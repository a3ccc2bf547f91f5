"""Centrally symmetric convex bodies and their basic evaluators.

A body K is used through three functions: the gauge mu_K (Minkowski
functional), the radial function rho_K = 1/mu_K, and the support function
h_K(u) = max_{x in K} u.x.  The boundary map Lambda(x) = grad(mu_K^2/2)
sends a boundary point of K to the boundary point y of the polar body
with x.y = 1.

All evaluators are vectorized over trailing-axis-3 arrays and bodies are
immutable after construction, so they are safe to share across threads.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import (
    BadParameter,
    DegenerateBody,
    NotOnBoundary,
    NotSymmetric,
    OriginNotInterior,
    ParseError,
    SingularMap,
    ZeroVector,
)

_ZERO_TOL = 1e-13


def sphere_point(alpha, beta):
    """The unit vectors (cos a, sin a cos b, sin a sin b) of array arguments
    alpha, beta, broadcast together, on a trailing axis of length 3."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    sa = np.sin(alpha)
    return np.stack(
        [np.cos(alpha) * np.ones_like(beta), sa * np.cos(beta), sa * np.sin(beta)],
        axis=-1,
    )


class LinearMap3:
    """Invertible 3x3 linear map with cached determinant and inverse."""

    __slots__ = ("matrix", "det", "inverse")

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)
        if m.shape != (3, 3):
            raise BadParameter("LinearMap3 expects a 3x3 matrix")
        if not np.all(np.isfinite(m)):
            raise BadParameter("LinearMap3 needs finite entries")
        d = float(np.linalg.det(m))
        # scale-free: |det| over the product of the row lengths (Hadamard's
        # bound), divided out one row at a time so that nothing overflows.
        # A zero row gives det 0 exactly, refused; so is a det that
        # underflows to 0, since its sign orients images
        a, b, c = (math.hypot(*row) for row in m.tolist())
        if d == 0.0 or abs(d) / a / b / c <= 1e-12:
            raise SingularMap(f"matrix is singular (det={d:g})")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "det", d)
        object.__setattr__(self, "inverse", np.linalg.inv(m))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("LinearMap3 is immutable")

    def compose(self, other: "LinearMap3") -> "LinearMap3":
        """self after other (matrix product self.matrix @ other.matrix)."""
        return LinearMap3(self.matrix @ other.matrix)


def _rotation(axis: int, t: float) -> np.ndarray:
    """The matrix of the rotation by t about coordinate axis 0, 1 or 2,
    counterclockwise seen from the positive end of the axis."""
    c, s = math.cos(t), math.sin(t)
    j, k = (axis + 1) % 3, (axis + 2) % 3
    m = np.eye(3)
    m[j, j] = m[k, k] = c
    m[j, k], m[k, j] = -s, s
    return m


class ConvexBody3:
    """Base class; subclasses implement the vectorized evaluators."""

    def __setattr__(self, *a):
        raise AttributeError("bodies are immutable")

    # -- evaluators ---------------------------------------------------
    def gauge_many(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def support_many(self, us: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def lambda_many(self, pts: np.ndarray) -> np.ndarray:
        """Boundary map on points of ∂K (inputs are renormalized radially)."""
        raise NotImplementedError

    def polar_body(self) -> "ConvexBody3":
        raise NotImplementedError

    def transformed(self, A: LinearMap3) -> "ConvexBody3":
        return TransformedBody(self, A)

    def radial_many(self, us: np.ndarray) -> np.ndarray:
        return 1.0 / self.gauge_many(us)

    # convenience scalar wrappers
    def gauge(self, v) -> float:
        return float(self.gauge_many(np.asarray(v, dtype=float)[None, :])[0])

    def support(self, u) -> float:
        return float(self.support_many(np.asarray(u, dtype=float)[None, :])[0])


def _cone6(tris: np.ndarray) -> np.ndarray:
    """det[a, b, c] per triangle of a (..., 3, 3) array: six times the signed
    volume of the cone from the origin over it."""
    a, b, c = tris[..., 0, :], tris[..., 1, :], tris[..., 2, :]
    return (
        a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
        + a[..., 1] * (b[..., 2] * c[..., 0] - b[..., 0] * c[..., 2])
        + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0])
    )


def _check_symmetric_vertices(verts: np.ndarray) -> None:
    """Every vertex has its antipode within 1e-9 of the largest |coordinate|."""
    tol = 1e-9 * np.max(np.abs(verts))
    if np.max(cKDTree(verts).query(-verts)[0]) > tol:
        raise NotSymmetric("vertex list is not closed under x -> -x")


class SymmetricPolytope(ConvexBody3):
    """Polytope given by vertices; facets a_i.x <= 1 derived by hull duality.

    The constructor checks outside input (finite entries, shape, symmetry,
    hull, interior origin).  Linear images and the polar reuse the checked
    parts with no new hull: an invertible map keeps extreme points and
    commutes with x -> -x.

    Vertices and facets are stored in sorted (lexicographic) order so that
    tie-breaking in the boundary map is deterministic.  `triangles` holds a
    boundary triangulation as (T, 3) vertex indices, each triangle
    counterclockwise seen from outside; `vertices[triangles]` is the
    (T, 3, 3) array the cone sums of the quadrature module run over.
    """

    __slots__ = ("vertices", "facets", "triangles")

    def __init__(self, vertices):
        verts = np.array(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 3 or len(verts) == 0:
            raise DegenerateBody("need a nonempty list of vertices in R^3")
        if not np.all(np.isfinite(verts)):
            raise DegenerateBody("vertices must be finite")
        _check_symmetric_vertices(verts)
        if len(verts) < 4:
            raise DegenerateBody("need at least 4 vertices in R^3")
        # the hull runs on the vertices scaled by a power of two into [1/2, 1),
        # which is exact, so qhull's tolerances and the interior test are
        # relative to the body's size
        scale = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(verts))))[1])
        unit = verts * scale
        try:
            hull = ConvexHull(unit)
        except QhullError as e:
            raise DegenerateBody(f"vertices are affinely dependent: {e}") from None
        n, b = hull.equations[:, :3], hull.equations[:, 3]  # n.x + b <= 0 on the scaled vertices
        if np.any(b >= -1e-12):
            raise OriginNotInterior("origin is not interior to the hull")
        # orient each simplex so that its right-hand normal is the facet's outward n
        tri = unit[hull.simplices]
        right = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        inward = np.einsum("ij,ij->i", right, n) < 0
        simplices = np.where(inward[:, None], hull.simplices[:, ::-1], hull.simplices)
        index = np.zeros(len(verts), dtype=np.intp)
        index[hull.vertices] = np.arange(len(hull.vertices))  # extreme only
        # qhull gives every triangle of a merged facet the same equation, bit
        # for bit, so the facets are the distinct rows
        self._set_parts(
            verts[hull.vertices], np.unique(n / (-b[:, None]), axis=0) * scale, index[simplices]
        )

    def _set_parts(self, verts, facets, triangles):
        """Store checked parts, sorted, with the triangles re-indexed to the
        sorted vertices; images and polars skip __init__ for it."""
        order = np.lexsort(verts.T[::-1])
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        object.__setattr__(self, "vertices", verts[order])
        object.__setattr__(self, "facets", facets[np.lexsort(facets.T[::-1])])
        object.__setattr__(self, "triangles", rank[triangles])
        return self

    def gauge_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.max(pts @ self.facets.T, axis=-1)

    def support_many(self, us):
        us = np.asarray(us, dtype=float)
        return np.max(us @ self.vertices.T, axis=-1)

    def lambda_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        vals = pts @ self.facets.T
        top = np.max(vals, axis=-1, keepdims=True)
        # lowest facet index among (numerically) active facets
        idx = np.argmax(vals >= top - 1e-12 * np.abs(top), axis=-1)
        return self.facets[idx] / top  # scale to x.y = 1

    def polar_body(self):
        return object.__new__(SymmetricPolytope)._set_parts(
            self.facets, self.vertices, _polar_fans(self)
        )

    def transformed(self, A):
        # a map with det < 0 reverses orientation; reversing each triangle keeps it outward
        tris = self.triangles if A.det > 0 else self.triangles[:, ::-1]
        return object.__new__(SymmetricPolytope)._set_parts(
            self.vertices @ A.matrix.T, self.facets @ A.inverse, tris
        )


def _polar_fans(K: SymmetricPolytope) -> np.ndarray:
    """Boundary triangles of polar(K) as indices into K.facets.

    The polar's facet at a vertex v of K is the polygon whose corners are the
    facets of K around v.  Each triangle of K lies on the facet its centroid
    attains the gauge on, which gives the (vertex, facet) incidences.  Around
    each v the facets are sorted by angle in a right-handed frame about v and
    fanned from the first, so every fan is counterclockwise seen from outside.
    """
    V, F = K.vertices, K.facets
    owner = np.argmax(V[K.triangles].sum(axis=1) @ F.T, axis=1)
    v, f = np.unique(
        np.column_stack([K.triangles.ravel(), np.repeat(owner, 3)]), axis=0
    ).T
    count = np.bincount(v, minlength=len(V))
    centre = np.stack([np.bincount(v, F[f, k], len(V)) for k in range(3)], axis=1)
    d = F[f] - centre[v] / count[v, None]
    # unit rows: the angle order is the same in any positive frame, but on a
    # huge or tiny body unequal row lengths would round every angle to +-pi/2
    e1 = np.cross(V, np.eye(3)[np.argmin(np.abs(V), axis=1)])
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(V / np.linalg.norm(V, axis=1)[:, None], e1)  # e1 x e2 is along +v
    angle = np.arctan2(np.einsum("ij,ij->i", d, e2[v]), np.einsum("ij,ij->i", d, e1[v]))
    order = np.lexsort((angle, v))
    v, f = v[order], f[order]
    start = np.repeat(np.cumsum(count) - count, count)
    i = np.flatnonzero((np.arange(len(v) - 1) > start[:-1]) & (v[1:] == v[:-1]))
    return np.column_stack([f[start[i]], f[i], f[i + 1]])


class LpBall(ConvexBody3):
    """{ sum |x_i / a_i|^p <= 1 } with p in (1, inf)."""

    __slots__ = ("p", "axes", "q")

    def __init__(self, p, axes=(1.0, 1.0, 1.0)):
        p = float(p)
        if not (p > 1.0 and math.isfinite(p)):
            raise BadParameter("lp exponent must lie in (1, inf)")
        axes = np.array(axes, dtype=float)
        if axes.shape != (3,) or not np.all(np.isfinite(axes) & (axes > 0)):
            raise DegenerateBody("semi-axes must be three positive numbers")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "q", p / (p - 1.0))

    # The kernels run on one C-ordered (3, ...) copy of the points: three
    # coordinate rows, not an inner axis of length 3, along which every ufunc
    # and reduction would run a loop of length 3.  Each element takes the
    # same IEEE operations as (|x| / a)^p summed over the last axis, in the
    # same order, so the values are bit for bit those of that form.

    def _axes(self, ndim):
        """The semi-axes shaped to act on coordinate rows of ndim - 1 axes."""
        return self.axes.reshape((3,) + (1,) * (ndim - 1))

    def gauge_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        z = np.abs(np.moveaxis(pts, -1, 0), order="C")
        z /= self._axes(pts.ndim)
        z **= self.p
        return (z[0] + z[1] + z[2]) ** (1.0 / self.p)

    def support_many(self, us):
        us = np.asarray(us, dtype=float)
        z = np.abs(np.moveaxis(us, -1, 0), order="C")
        z *= self._axes(us.ndim)
        z **= self.q
        return (z[0] + z[1] + z[2]) ** (1.0 / self.q)

    def lambda_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        a = self._axes(pts.ndim)
        # renormalize onto the boundary
        x = np.divide(np.moveaxis(pts, -1, 0), self.gauge_many(pts), order="C")
        z = np.abs(x)
        z /= a
        z **= self.p - 1.0
        z *= np.sign(x)
        z /= a
        return np.moveaxis(z, 0, -1)

    def polar_body(self):
        return LpBall(self.q, 1.0 / self.axes)


class Ellipsoid(ConvexBody3):
    """{ x . M x <= 1 } for positive definite M."""

    __slots__ = ("M", "Minv")

    def __init__(self, M):
        M = np.array(M, dtype=float)
        if M.shape != (3, 3):
            raise BadParameter("ellipsoid matrix must be 3x3")
        if not np.all(np.isfinite(M)):
            raise DegenerateBody("ellipsoid matrix entries must be finite")
        M = 0.5 * (M + M.T)
        if np.min(np.linalg.eigvalsh(M)) <= 1e-12:
            raise DegenerateBody("ellipsoid matrix is not positive definite")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "Minv", np.linalg.inv(M))

    def gauge_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.sqrt(np.einsum("...i,ij,...j->...", pts, self.M, pts))

    def support_many(self, us):
        us = np.asarray(us, dtype=float)
        return np.sqrt(np.einsum("...i,ij,...j->...", us, self.Minv, us))

    def lambda_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        mu = self.gauge_many(pts)
        return (pts / mu[..., None]) @ self.M.T

    def polar_body(self):
        return Ellipsoid(self.Minv)

    def transformed(self, A):
        return Ellipsoid(A.inverse.T @ self.M @ A.inverse)


def _table_units(na, nb):
    al = np.linspace(0.0, math.pi, na + 1)
    be = np.arange(nb) * (2.0 * math.pi / nb)
    return sphere_point(al[:, None], be[None, :])


# entries of one query-by-column block of _max_dot: 2 MB of float64 stays in
# cache, where a 32 MB block ran 2-3x slower on the same rows; each direction
# bin's rows are cut into such blocks too, however many columns it keeps
_MAX_DOT_CHUNK = 262_144
# queries per direction bin of _max_dot: a batch of m queries is cut n ways
# along each axis of its unit directions, n = isqrt(m // _MAX_DOT_BIN), so a
# batch below 4 * _MAX_DOT_BIN (a 33x64 table's 2,112 directions) is one bin
_MAX_DOT_BIN = 1024


def _max_dot(x, pts, reduce=np.max):
    """max_j x . pts[j] for a batch of query vectors; with reduce=np.argmax,
    the first maximizing index j instead.

    The queries are binned by direction, and each bin is reduced over only
    the columns that can reach a value it attains (_bin_columns).  A bin's
    kept columns, in ascending order, go through gemm in row blocks of at
    least two rows and about _MAX_DOT_CHUNK entries.  So the maxima and the
    first maximizers are those of the product with every column bit for
    bit, wherever BLAS computes an entry alike in any block.  OpenBLAS does,
    but in gemv for a one-row or one-column product and in the tail kernels
    for the last width % 8 columns of a wide block: a bin's columns are
    padded to a multiple of 8, so a column count that is one too (a 33x64
    table's 2,112) is exact."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, 3)
    out = np.empty(len(flat), dtype=np.intp if reduce is np.argmax else float)
    if not len(flat):
        return out.reshape(x.shape[:-1])
    norms = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    for rows in _direction_bins(flat):
        xb = flat[rows]
        cols = _bin_columns(xb, pts, norms)
        kept = pts[cols]
        step = max(2, _MAX_DOT_CHUNK // max(len(cols), 1))
        starts = range(0, max(len(xb) - 1, 1), step)
        for k, stop in zip(starts, [*starts[1:], len(xb)]):
            v = reduce(xb[k:stop] @ kept.T, axis=1)
            out[rows[k:stop]] = cols[v] if reduce is np.argmax else v
    return out.reshape(x.shape[:-1])


def _direction_bins(flat):
    """The ascending row indices of each direction bin of the (m, 3)
    queries.  The cells cut the cube [-1, 1]^3 of unit directions n ways
    along each axis, n growing with m (_MAX_DOT_BIN); a cell of one query
    joins the next (the last, the one before), so every bin of a batch of
    two or more has two rows."""
    n = math.isqrt(len(flat) // _MAX_DOT_BIN)
    cell = np.zeros(len(flat), dtype=np.intp)
    with np.errstate(invalid="ignore", divide="ignore"):
        norm = np.sqrt(np.einsum("ij,ij->i", flat, flat))
        for c in flat.T:
            cell = cell * n + np.minimum((c / norm + 1.0) * (n / 2), max(n - 1, 0)).astype(np.intp)
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
    size = np.diff(np.r_[starts, len(flat)])
    joins = np.r_[False, size[:-1] < 2]
    joins[-1] |= size[-1] < 2
    joins[0] = False
    return np.split(order, starts[~joins][1:])


def _bin_columns(xb, pts, norms):
    """The ascending indices of the columns pts[j] (of norms |pts[j]|) that
    can reach a value the bin xb of queries attains.

    Over a bin of centre c and angular radius r, x . p <= |x|max |p|
    cos(max(0, angle(c, p) - r)).  A column is dropped only where that bound
    falls below the least dot of the bin's rows with the column best along c,
    by more than 1e-9 |x|max max|p|; r carries 1e-6 of slack.  Both are far
    above the rounding of the dots and of arccos (at most 3e-8 near 0 and pi),
    so no maximizer is dropped, and a NaN keeps its column."""
    with np.errstate(invalid="ignore", divide="ignore"):
        xn = np.sqrt(np.einsum("ij,ij->i", xb, xb))
        u = xb / xn[:, None]
        c = np.sum(u, axis=0)
        c /= math.sqrt(c @ c)
        r = np.max(np.arccos(np.clip(u @ c, -1.0, 1.0))) + 1e-6
        d = pts @ c
        low = np.min(xb @ pts[np.argmax(d)])
        top = np.max(xn)
        cos = np.cos(np.maximum(np.arccos(np.clip(d / norms, -1.0, 1.0)) - r, 0.0))
        keep = ~(top * norms * np.maximum(cos, 0.0) < low - 1e-9 * top * np.max(norms))
    cols = np.flatnonzero(keep)
    # padded to a multiple of 8 with the last kept column, which changes no
    # maximum or first maximizer and leaves no tail columns (see _max_dot)
    return np.concatenate([cols, np.full(-len(cols) % 8, cols[-1])])


def _polar_table(vals, units):
    """Radial table of (conv of the tabulated boundary points)^polar."""
    pts = (vals[..., None] * units).reshape(-1, 3)
    return 1.0 / _max_dot(units, pts)


class RadialField(ConvexBody3):
    """Body from a table of radial values on a uniform (alpha, beta) grid.

    rho[i, j] at alpha_i = i*pi/na (i = 0..na), beta_j = j*2*pi/nb.
    Bilinear interpolation; documented first-order accurate.  The support
    function is the exact support of the convex hull of the tabulated
    boundary points, and the stored table is canonicalized with a double
    polar at construction.  The double polar acts as a closure operator on
    tables, so tables in its image are exact fixed points: polar_body is an
    involution to machine precision, while the canonical table differs from
    the raw input only by its convexity defect (zero at hull vertices).

    The support h_K at the table directions is computed once per body, where
    first read; the polar table is 1 / h_K, and the boundary map reads it too.
    Past that, the boundary map costs one argmax pass of the query points
    over the polar table (the table directions u / h_K(u)), a quadratic fit
    whose 3x3 stencil is read off that table, and one support pass at the
    fitted directions.  A body stays immutable: the stored h_K is a function
    of its table alone.
    """

    __slots__ = ("values", "n_alpha", "n_beta", "_bpts", "_h")

    def __init__(self, values):
        vals = np.array(values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 9 or vals.shape[1] < 8:
            raise DegenerateBody("radial table too small")
        if not np.all(np.isfinite(vals)):
            raise DegenerateBody("radial values must be finite")
        na, nb = vals.shape[0] - 1, vals.shape[1]
        if nb % 2:
            raise BadParameter("radial table needs an even beta count")
        if np.min(vals) <= 0:
            raise OriginNotInterior("radial values must be strictly positive")
        # collapse the poles to a single value
        vals[0, :] = np.mean(vals[0, :])
        vals[-1, :] = np.mean(vals[-1, :])
        anti = np.roll(vals[::-1], nb // 2, axis=1)
        if np.max(np.abs(vals - anti)) > 1e-12 * np.max(vals):
            raise NotSymmetric("radial table is not centrally symmetric")
        units = _table_units(na, nb)
        vals = _polar_table(_polar_table(vals, units), units)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "n_alpha", na)
        object.__setattr__(self, "n_beta", nb)
        object.__setattr__(self, "_bpts", (vals[..., None] * units).reshape(-1, 3))

    def _interp(self, alpha, beta):
        na, nb = self.n_alpha, self.n_beta
        fa = np.clip(alpha / math.pi * na, 0.0, na - 1e-12)
        fb = np.mod(beta, 2.0 * math.pi) / (2.0 * math.pi) * nb
        ia = fa.astype(int)
        ib = np.floor(fb).astype(int) % nb
        ta = fa - ia
        tb = fb - np.floor(fb)
        v = self.values
        v00 = v[ia, ib]
        v10 = v[ia + 1, ib]
        v01 = v[ia, (ib + 1) % nb]
        v11 = v[ia + 1, (ib + 1) % nb]
        return (
            v00 * (1 - ta) * (1 - tb)
            + v10 * ta * (1 - tb)
            + v01 * (1 - ta) * tb
            + v11 * ta * tb
        )

    def radial_many(self, us):
        us = np.asarray(us, dtype=float)
        norm = np.linalg.norm(us, axis=-1)
        u = us / norm[..., None]
        alpha = np.arccos(np.clip(u[..., 0], -1.0, 1.0))
        beta = np.arctan2(u[..., 2], u[..., 1])
        return self._interp(alpha, beta) / norm

    def gauge_many(self, pts):
        return 1.0 / self.radial_many(pts)

    def support_many(self, us):
        return _max_dot(us, self._bpts)

    def lambda_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        mu = self.gauge_many(pts)
        x = pts / mu[..., None]
        # maximize x.y over y in the polar: y = u / h_K(u)
        flat = x.reshape(-1, 3)
        na, nb = self.n_alpha, self.n_beta
        units = _table_units(na, nb).reshape(-1, 3)
        h = self._table_support()
        best = _max_dot(flat, units / h[:, None], reduce=np.argmax)
        ia = np.clip(best // nb, 1, na - 1)
        ib = best % nb
        da, db = math.pi / na, 2.0 * math.pi / nb
        # one quadratic-fit refinement step on g(a,b) = x . u(a,b)/h(u(a,b)),
        # its 3x3 stencil read off the table nodes around the argmax
        a0, b0 = ia * da, ib * db
        s = np.empty((len(flat), 3, 3))
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                k = (ia + di) * nb + (ib + dj) % nb
                s[:, di + 1, dj + 1] = np.einsum("ij,ij->i", flat, units[k]) / h[k]
        gx = 0.5 * (s[:, 2, 1] - s[:, 0, 1])
        gy = 0.5 * (s[:, 1, 2] - s[:, 1, 0])
        hxx = s[:, 2, 1] - 2 * s[:, 1, 1] + s[:, 0, 1]
        hyy = s[:, 1, 2] - 2 * s[:, 1, 1] + s[:, 1, 0]
        hxy = 0.25 * (s[:, 2, 2] - s[:, 0, 2] - s[:, 2, 0] + s[:, 0, 0])
        det = hxx * hyy - hxy * hxy
        ok = (hxx < 0) & (det > 0)
        dx = np.where(ok, np.clip((-gx * hyy + gy * hxy) / np.where(det == 0, 1, det), -1, 1), 0.0)
        dy = np.where(ok, np.clip((-gy * hxx + gx * hxy) / np.where(det == 0, 1, det), -1, 1), 0.0)
        a1, b1 = a0 + dx * da, b0 + dy * db
        u1 = sphere_point(a1, b1)
        y = u1 / self.support_many(u1)[:, None]
        return y.reshape(pts.shape)

    def _table_support(self):
        """h_K at the ((n_alpha + 1) * n_beta,) table directions, alpha-major."""
        try:
            return self._h
        except AttributeError:
            h = self.support_many(_table_units(self.n_alpha, self.n_beta).reshape(-1, 3))
            object.__setattr__(self, "_h", h)
            return h

    def polar_body(self):
        # 1 / h_K is _polar_table(values, units) bit for bit: the same pass
        return RadialField(1.0 / self._table_support().reshape(self.values.shape))


class TransformedBody(ConvexBody3):
    """A K for a base body K and invertible map A."""

    __slots__ = ("base", "map")

    def __init__(self, base, A):
        if isinstance(base, TransformedBody):  # flatten chains
            A = A.compose(base.map)
            base = base.base
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "map", A)

    def gauge_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        return self.base.gauge_many(pts @ self.map.inverse.T)

    def support_many(self, us):
        us = np.asarray(us, dtype=float)
        return self.base.support_many(us @ self.map.matrix)

    def lambda_many(self, pts):
        pts = np.asarray(pts, dtype=float)
        y = self.base.lambda_many(pts @ self.map.inverse.T)
        return y @ self.map.inverse

    def polar_body(self):
        return TransformedBody(self.base.polar_body(), LinearMap3(self.map.inverse.T))


# ---------------------------------------------------------------------------
# public operations


def make_body(spec) -> ConvexBody3:
    """Build a body from a descriptor dict (see the CLI schema)."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ParseError("body descriptor must be a dict with a 'type' field")
    kind = spec["type"]
    try:
        if kind == "polytope":
            return _finite_volumes(SymmetricPolytope(spec["vertices"]))
        elif kind == "lp":
            return LpBall(spec["p"], spec.get("axes", (1.0, 1.0, 1.0)))
        elif kind == "ellipsoid":
            return Ellipsoid(spec["matrix"])
        elif kind == "radial":
            return RadialField(spec["values"])
        elif kind == "transformed":
            # .transformed keeps exact representations (polytope, ellipsoid)
            return _finite_volumes(make_body(spec["base"]).transformed(LinearMap3(spec["matrix"])))
        else:
            raise ParseError(f"unknown body type {kind!r}")
    except KeyError as e:
        raise ParseError(f"body descriptor missing field {e}") from None


def _finite_volumes(K: ConvexBody3) -> ConvexBody3:
    """K, unless it is a polytope whose volume or polar volume is not a finite
    positive double; checked where a descriptor is built, not per image."""
    if isinstance(K, SymmetricPolytope):
        with np.errstate(all="ignore"):
            vols = [float(np.sum(_cone6(P.vertices[P.triangles]))) / 6.0 for P in (K, K.polar_body())]
        if not all(0.0 < v < math.inf for v in vols):
            raise DegenerateBody("polytope volume or polar volume is not a finite positive double")
    return K


def gauge_radial(K: ConvexBody3, v):
    """(mu_K(v), rho_K(v)); rho(v) v lies on the boundary of K."""
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) < _ZERO_TOL:
        raise ZeroVector("gauge_radial of the zero vector")
    mu = K.gauge(v)
    return mu, 1.0 / mu


def support(K: ConvexBody3, u) -> float:
    u = np.asarray(u, dtype=float)
    if np.linalg.norm(u) < _ZERO_TOL:
        raise ZeroVector("support of the zero vector")
    return K.support(u)


def polar(K: ConvexBody3) -> ConvexBody3:
    return K.polar_body()


def boundary_map(K: ConvexBody3, x):
    """Lambda(x) = grad(mu_K^2/2)(x): the point y of the polar with x.y = 1."""
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) < _ZERO_TOL:
        raise ZeroVector("boundary_map of the zero vector")
    mu = K.gauge(x)
    if abs(mu - 1.0) > 1e-8:
        raise NotOnBoundary(f"point has gauge {mu:.3e}, not on the boundary")
    return K.lambda_many(x[None, :])[0]


# convenient stock bodies used throughout the test-suite and scripts
def cube() -> SymmetricPolytope:
    signs = np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
        dtype=float,
    )
    return SymmetricPolytope(signs)


def cross_polytope() -> SymmetricPolytope:
    v = np.vstack([np.eye(3), -np.eye(3)])
    return SymmetricPolytope(v)
