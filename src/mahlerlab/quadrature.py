"""Spherical quadrature and every scalar measure used downstream.

The sphere is parametrized as P(alpha, beta) = (cos a, sin a cos b,
sin a sin b).  Grids are product Gauss-Legendre in cos(alpha) (split at
alpha = pi/2) times midpoint in beta, so no quadrature cell straddles a
coordinate plane and octant restrictions are exact sub-sums.

Polytopes bypass quadrature.  Volumes, octant volumes and polar pieces
are cone sums over the boundary triangles the polytope carries: each
cut is a plane through the origin, so a cut body is a sum of tetrahedra
over the cut triangles.  The last cut of a chain builds no pieces: it gives
each triangle's cone fraction on one side in closed form.  A central
section is bounded by the segments the same cut leaves on the triangles,
and each of its cones from the origin is a fan sum over those segments (the
planar kernel).  The cuts run on stacks of triangle sets, one plane per
set, elementwise, so a set's numbers do not depend on the rest of the
stack.  A shadow along an axis is
a quarter of the summed absolute vector areas of the triangles, since the
boundary covers it twice.  That keeps the extremizer values (cube,
cross-polytope) exact to machine precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .body import ConvexBody3, SymmetricPolytope, _cone6, polar, sphere_point
from .errors import BadGridSize, ClassificationUnstable
from .planar import _clip_segments, _fan_area

TWO_PI = 2.0 * math.pi

# octant numbering by sign pattern of (x, y, z)
OCTANT_SIGNS = (
    (1, 1, 1),
    (-1, 1, 1),
    (-1, -1, 1),
    (1, -1, 1),
    (1, 1, -1),
    (-1, 1, -1),
    (-1, -1, -1),
    (1, -1, -1),
)


@dataclass(frozen=True)
class SphereGrid:
    """Product grid on the sphere, split at every coordinate plane.

    Gauss-Legendre in cos(alpha), separately on the two half-ranges, and
    Gauss-Legendre in beta separately on each quadrant of the circle, so
    octant restrictions of the quadrature are spectrally accurate sub-sums
    (a single uniform beta rule would drop to O(n^-2) there).

    Every table is built where it is first read: the command line builds a
    grid per call, and a polytope, a polar or a planar body reads none."""

    n_alpha: int
    n_beta: int

    @functools.cached_property
    def _rules(self) -> tuple:
        """The Gauss-Legendre rules (x, w) on [-1, 1] of n_alpha / 2 and of
        n_beta / 4 points; one solve serves both where the counts agree."""
        ra = np.polynomial.legendre.leggauss(self.n_alpha // 2)
        if self.n_beta // 4 == self.n_alpha // 2:
            return ra, ra
        return ra, np.polynomial.legendre.leggauss(self.n_beta // 4)

    @functools.cached_property
    def _alpha_rule(self) -> tuple:
        """(alpha, w_alpha), in ascending alpha."""
        x, w = self._rules[0]
        cos_nodes = np.concatenate([(x - 1.0) / 2.0, (x + 1.0) / 2.0])
        w_alpha = np.concatenate([w / 2.0, w / 2.0])
        alpha = np.arccos(cos_nodes)
        order = np.argsort(alpha)
        return alpha[order], w_alpha[order]

    @functools.cached_property
    def alpha(self) -> np.ndarray:
        """(n_alpha,) ascending."""
        return self._alpha_rule[0]

    @functools.cached_property
    def w_alpha(self) -> np.ndarray:
        """The Gauss-Legendre weights in cos(alpha); sum 2."""
        return self._alpha_rule[1]

    @functools.cached_property
    def beta(self) -> np.ndarray:
        """(n_beta,) Gauss-Legendre nodes per quadrant of the circle."""
        xb = self._rules[1][0]
        quarter = 0.5 * math.pi
        return np.concatenate([(xb + 1.0) / 2.0 * quarter + q * quarter for q in range(4)])

    @functools.cached_property
    def w_beta(self) -> np.ndarray:
        """The matching weights; sum 2 pi."""
        return np.tile(self._rules[1][1] * (0.5 * math.pi) / 2.0, 4)

    @functools.cached_property
    def units(self) -> np.ndarray:
        """(n_alpha * n_beta, 3) nodes, alpha-major."""
        return sphere_point(self.alpha[:, None], self.beta[None, :]).reshape(-1, 3)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Product weights; sum 4 pi."""
        return (self.w_alpha[:, None] * self.w_beta[None, :]).reshape(-1)

    @functools.cached_property
    def octant(self) -> np.ndarray:
        """(N,) octant index 0..7 of each node."""
        return _octant_index(self.units.T)

    @functools.cached_property
    def octant_nodes(self) -> tuple:
        """Per octant, the ascending indices of its nodes."""
        return tuple(np.flatnonzero(self.octant == i) for i in range(8))

    @functools.cached_property
    def theta_dirs(self) -> np.ndarray:
        """The (n_alpha, n_beta, 3) directions at beta = j pi / n_beta of the
        pi-periodic beta profile that Theta balances."""
        betas = np.arange(self.n_beta) * (math.pi / self.n_beta)
        return sphere_point(self.alpha[:, None], betas[None, :])


def make_grid(n_alpha: int, n_beta: int) -> SphereGrid:
    """The SphereGrid of n_alpha x n_beta nodes, after checking the sizes."""
    if not (8 <= n_alpha <= 4096 and 16 <= n_beta <= 4096):
        raise BadGridSize("grid sizes must lie in [8,4096] x [16,4096]")
    if n_alpha % 2 or n_beta % 4:
        raise BadGridSize("need n_alpha even and n_beta divisible by 4")
    return SphereGrid(n_alpha, n_beta)


# ---------------------------------------------------------------------------
# volumes


def volume(K: ConvexBody3, grid: SphereGrid) -> float:
    """|K|; the cone sum over the boundary triangles for polytopes,
    (1/3) sum w rho^3 otherwise."""
    if isinstance(K, SymmetricPolytope):
        return float(np.sum(_cone6(K.vertices[K.triangles]))) / 6.0
    return _table_volume(K.radial_many(grid.units), grid)


def _table_volume(rho: np.ndarray, grid: SphereGrid) -> float:
    """|K| from its radial table rho on grid.units."""
    return float(np.sum(grid.weights * rho**3) / 3.0)


# per side code 4*s0 + 2*s1 + s2 of a triangle's vertices (s = 1 on the side
# n.x > 0): the cyclic turn that puts the lone vertex first, whether that
# vertex lies on the side n.x > 0, and whether the plane crosses the triangle
_SIDE_BITS = [(c >> 2 & 1, c >> 1 & 1, c & 1) for c in range(8)]
_LONE_FIRST = np.array(
    [(0, 1, 2) if s1 == s2 else (1, 2, 0) if s0 == s2 else (2, 0, 1) for s0, s1, s2 in _SIDE_BITS]
)
_LONE_POS = np.array([bool(bits[turn[0]]) for bits, turn in zip(_SIDE_BITS, _LONE_FIRST)])
_CROSSES = np.array([len(set(bits)) == 2 for bits in _SIDE_BITS])
# the pieces (a, p, q), (p, b, c), (c, q, p) as rows of (a, b, c, p, q)
_PIECES = np.array([0, 3, 4, 3, 1, 2, 2, 4, 3])


def _crossing(tris: np.ndarray, n: np.ndarray):
    """Where the planes n.x = 0 cross a (..., T, 3, 3) stack of triangles,
    n of shape (..., 3): one plane for each leading index, or (3,) for all.

    Each triangle is turned so that its lone vertex a, whose side differs
    from the other two, comes first.  Returns the turn, as indices into
    tris.reshape(-1, 3) (_turned applies it); whether a lies on the side
    n.x > 0; whether the plane crosses the triangle; and the fractions
    (w1, w2) at which it cuts ab and ac.  An uncrossed triangle has
    w1 = w2 = 1: its lone piece (a, p, q) is the whole triangle.  Every step
    is elementwise, so a triangle's numbers do not depend on the rest of the
    stack."""
    n = np.asarray(n, dtype=float)[..., None, None, :]
    d = tris[..., 0] * n[..., 0] + tris[..., 1] * n[..., 1] + tris[..., 2] * n[..., 2]
    pos = d > 0
    code = 4 * pos[..., 0] + 2 * pos[..., 1] + pos[..., 2]
    turn = _LONE_FIRST[code].reshape(-1, 3)
    turn += 3 * np.arange(code.size)[:, None]
    dr = np.take(d, turn).reshape(d.shape)
    cross = _CROSSES[code]
    # the lone vertex is strictly on its side and the others are not, so
    # neither denominator vanishes where the plane crosses
    w = np.ones(code.shape + (2,))
    np.divide(dr[..., :1], dr[..., :1] - dr[..., 1:], out=w, where=cross[..., None])
    return turn, _LONE_POS[code], cross, w


def _cut_points(tris: np.ndarray, turn: np.ndarray, cross: np.ndarray, w: np.ndarray):
    """The turned triangles (a, b, c) and their cut points (p, q) on ab and
    ac; an uncrossed triangle's are b and c themselves, so that its lone
    piece is the triangle bit for bit and its neighbours still share its
    corners."""
    r = np.take(tris.reshape(-1, 3), turn, axis=0).reshape(tris.shape)
    pq = r[..., :1, :] + w[..., None] * (r[..., 1:, :] - r[..., :1, :])
    return r, np.where(cross[..., None, None], pq, r[..., 1:, :])


def _segments(pq, lone_pos, cross):
    """The cut segments, counterclockwise about n along the section of a body
    whose outward triangles these are; zero where the plane does not cross."""
    seg = np.where(lone_pos[..., None, None], pq, pq[..., ::-1, :])
    return np.where(cross[..., None, None], seg, 0.0)


def _fraction(lone_pos: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The fraction of each triangle's cone from the origin on the side
    n.x > 0.  The cone over the lone piece (a, p, q) is det(a, a + w1 (b - a),
    a + w2 (c - a)) = w1 w2 det(a, b, c), and the other two pieces hold the
    rest."""
    lone = w[..., 0] * w[..., 1]
    return np.where(lone_pos, lone, 1.0 - lone)


def _cut(tris: np.ndarray, n: np.ndarray):
    """Cut a stack of triangles by planes n.x = 0 (as in _crossing) without
    building pieces: each triangle's cone fraction on the side n.x > 0, and
    the (..., T, 2, 3) cut segments."""
    turn, lone_pos, cross, w = _crossing(tris, n)
    pq = _cut_points(tris, turn, cross, w)[1]
    return _fraction(lone_pos, w), _segments(pq, lone_pos, cross)


def _split(tris: np.ndarray, n: np.ndarray):
    """Cut a stack of triangles by planes n.x = 0 (as in _crossing) into
    oriented pieces.  Returns the (..., 2T, 3, 3) pieces on the side n.x > 0,
    the (..., T, 2, 3) cut segments, and a function that builds the pieces
    on the side n.x <= 0 when called: most cuts read one side only.

    The cut points are p on ab and q on ac; the pieces are (a, p, q),
    (p, b, c) and (c, q, p), each with the orientation of its triangle.  A
    side holds the lone piece or the other two, in two slots per triangle;
    an empty slot is the zero triangle, whose cone, cuts and segments are
    all zero, so every row of a stack keeps the same shape."""
    turn, lone_pos, cross, w = _crossing(tris, n)
    r, pq = _cut_points(tris, turn, cross, w)
    pieces = np.take(np.concatenate([r, pq], axis=-2), _PIECES, axis=-2)
    p0, p1, p2 = (pieces[..., 3 * k : 3 * k + 3, :] for k in range(3))

    def side(lone_here):
        # the two slots filled in place, without a temporary per slot
        out = np.zeros(p0.shape[:-3] + (2 * p0.shape[-3], 3, 3))
        first, second = np.split(out, 2, axis=-3)
        np.copyto(first, p1, where=cross[..., None, None])
        np.copyto(first, p0, where=lone_here[..., None, None])
        np.copyto(second, p2, where=(cross & ~lone_here)[..., None, None])
        return out

    return side(lone_pos), _segments(pq, lone_pos, cross), lambda: side(~lone_pos)


_AXES = np.eye(3)


def _upper_octants(tris: np.ndarray):
    """The volumes of the octants 0-3, which lie in z >= 0, of a body whose
    outward boundary triangles are the (..., T, 3, 3) stack, as (..., 4);
    and the (..., 2T, 2, 3) cut segments of the plane x = 0 in z >= 0.

    The triangles are cut into pieces by z = 0 and then x = 0; the last cut,
    by y = 0, is taken as cone fractions."""
    # neither the upper half nor the builder of the side x <= 0, which holds
    # all pieces of the x cut, outlives the cut that reads it
    right, xseg, left = _split(_split(tris, _AXES[2])[0], _AXES[0])
    left = left()
    vols = []
    for pieces in (right, left):
        _, lone_pos, _, w = _crossing(pieces, _AXES[1])
        frac = _fraction(lone_pos, w)
        cone = np.abs(_cone6(pieces)) / 6.0
        vols.append((np.sum(cone * frac, axis=-1), np.sum(cone * (1.0 - frac), axis=-1)))
    (v0, v3), (v1, v2) = vols
    return np.stack([v0, v1, v2, v3], axis=-1), xseg


def octant_volumes(K: ConvexBody3, grid: SphereGrid):
    """|Delta_i| for the eight octants, in the fixed sign-pattern order."""
    if isinstance(K, SymmetricPolytope):
        ov = _upper_octants(K.vertices[K.triangles])[0]
        # by central symmetry octant i + 4 is the antipode of octant (i + 2) mod 4
        return np.concatenate([ov, ov[[2, 3, 0, 1]]])
    return _table_octants(K.radial_many(grid.units), grid)


def _table_octants(rho: np.ndarray, grid: SphereGrid) -> np.ndarray:
    """The octant volumes of K from its radial table rho on grid.units."""
    rho3 = rho**3 * grid.weights
    return np.array([np.sum(rho3[nodes]) / 3.0 for nodes in grid.octant_nodes])


# octant index by sign bits 4*(x<0) + 2*(y<0) + (z<0): the inverse of the
# permutation that maps each octant to its sign bits
_OCTANT_OF_SIGN_BITS = np.argsort(
    [4 * (sx < 0) + 2 * (sy < 0) + (sz < 0) for sx, sy, sz in OCTANT_SIGNS]
)


def _octant_index(c: np.ndarray) -> np.ndarray:
    """Octant index per point of the coordinate rows c = (x, y, z), in the
    fixed sign-pattern order."""
    return _OCTANT_OF_SIGN_BITS[4 * (c[0] < 0) + 2 * (c[1] < 0) + (c[2] < 0)]


def _classify_octants(x: np.ndarray):
    """Octant index per row of the (N, 3) points x; also the fraction of
    near-plane points.  The norm and the smallest |coordinate| come from the
    three rows of |x|, in the order of the reductions over the last axis
    that they replace (|c|^2 is c^2 bit for bit)."""
    c = np.moveaxis(x, -1, 0)
    a = np.abs(c, order="C")
    least = np.minimum(np.minimum(a[0], a[1]), a[2])
    a *= a
    near = least < 1e-9 * np.sqrt(a[0] + a[1] + a[2])
    return _octant_index(c), float(np.mean(near)) if len(x) else 0.0


def polar_piece_volumes(K: ConvexBody3, grid: SphereGrid):
    """|K°_i|: pieces of the polar classified by where Lambda maps back on ∂K."""
    return _polar_pieces(polar(K), grid)


def _polar_pieces(Kp: ConvexBody3, grid: SphereGrid):
    """The polar piece volumes from Kp = polar(K) alone."""
    if isinstance(Kp, SymmetricPolytope):
        tris = Kp.vertices[Kp.triangles]
        # the facet of Kp each triangle lies on, which is a vertex of K
        duals = Kp.facets[np.argmax(tris.sum(axis=1) @ Kp.facets.T, axis=1)]
        idx, near = _classify_octants(duals)
        if near > 0:
            raise ClassificationUnstable("a vertex lies on a coordinate plane")
        return np.bincount(idx, np.abs(_cone6(tris)) / 6.0, minlength=8)
    return _table_pieces(Kp, Kp.radial_many(grid.units), grid)


def _table_pieces(Kp: ConvexBody3, rho: np.ndarray, grid: SphereGrid):
    """The polar piece volumes from a smooth Kp = polar(K) and its radial
    table rho on grid.units."""
    # the boundary points are a temporary, let go before the classification
    idx, near = _classify_octants(Kp.lambda_many(grid.units * rho[:, None]))
    if near > 1e-3:
        raise ClassificationUnstable(
            f"{near:.2%} of nodes sit on a piece boundary"
        )
    contrib = grid.weights * rho**3 / 3.0
    out = np.zeros(8)
    np.add.at(out, idx, contrib)
    return out


def _chain_measures(K: ConvexBody3, Kp: ConvexBody3, grid: SphereGrid):
    """|K|, |Kp|, the octant volumes of K and the polar pieces, for Kp =
    polar(K).  A smooth body's radial table on grid.units, and its polar's,
    are each sampled once and feed every measure that reads it."""
    if isinstance(K, SymmetricPolytope):
        return volume(K, grid), volume(Kp, grid), octant_volumes(K, grid), _polar_pieces(Kp, grid)
    rho = K.radial_many(grid.units)
    vol, ov = _table_volume(rho, grid), _table_octants(rho, grid)
    # K's table is let go before the polar pieces, the peak of the chain
    rho = Kp.radial_many(grid.units)
    return vol, _table_volume(rho, grid), ov, _table_pieces(Kp, rho, grid)


# ---------------------------------------------------------------------------
# planar measures

# coordinate frames of the three central planes: plane i kills axis i-1 and
# uses the cyclic pair as (first, second) in-plane coordinates.
_PLANE_COORDS = {1: (1, 2), 2: (2, 0), 3: (0, 1)}


def circle_dirs(plane: int, t):
    """Unit directions in central plane `plane` at in-plane angle t."""
    t = np.asarray(t, dtype=float)
    j, k = _PLANE_COORDS[plane]
    out = np.zeros(t.shape + (3,))
    out[..., j] = np.cos(t)
    out[..., k] = np.sin(t)
    return out


# the right-handed frame (u, v, n) of each central plane as the rows of a
# matrix: the in-plane axes, then the normal
_PLANE_FRAMES = {p: np.eye(3)[[j, k, p - 1]] for p, (j, k) in _PLANE_COORDS.items()}


def _section_segments(K: SymmetricPolytope, F: np.ndarray) -> np.ndarray:
    """The (T, 2, 2) cut segments of the central section of K by the plane
    of the right-handed orthonormal frame F (rows u, v, n), in the in-plane
    coordinates (u.x, v.x) and counterclockwise there.  An uncrossed
    triangle gives the zero segment."""
    return _cut(K.vertices[K.triangles], F[2])[1] @ F[:2].T


def _section_vertices(seg: np.ndarray) -> np.ndarray:
    """The start points of the non-degenerate (u, v) segments, sorted by
    angle: the section polygon, counterclockwise."""
    p = seg[np.any(seg[:, 0] != seg[:, 1], axis=1), 0]
    return p[np.argsort(np.arctan2(p[:, 1], p[:, 0]))]


_N_CIRCLE = 2048


def _section_area_quad(K: ConvexBody3, plane: int) -> float:
    t = np.arange(_N_CIRCLE) * (TWO_PI / _N_CIRCLE)
    rho = K.radial_many(circle_dirs(plane, t))
    return 0.5 * float(np.sum(rho**2)) * (TWO_PI / _N_CIRCLE)


def _projection_area_quad(K: ConvexBody3, plane: int) -> float:
    # shadow area from the restricted support function: (1/2)∫(h² - h'²)
    t = np.arange(_N_CIRCLE) * (TWO_PI / _N_CIRCLE)
    h = K.support_many(circle_dirs(plane, t))
    hk = np.fft.rfft(h)
    freq = np.arange(len(hk))
    dh = np.fft.irfft(1j * freq * hk, n=_N_CIRCLE)
    return 0.5 * float(np.sum(h**2 - dh**2)) * (TWO_PI / _N_CIRCLE)


def section_areas(K: ConvexBody3) -> np.ndarray:
    """|K ∩ e_i^⊥| for i = 1, 2, 3: fan sums over the cut segments for
    polytopes, (1/2) of the integral of rho^2 around the circle otherwise."""
    if isinstance(K, SymmetricPolytope):
        return np.array([_fan_area(_section_segments(K, _PLANE_FRAMES[p])) for p in (1, 2, 3)])
    return np.array([_section_area_quad(K, p) for p in (1, 2, 3)])


def projection_areas(K: ConvexBody3) -> np.ndarray:
    """|P_i K|, the shadows along the axes.  A polytope's boundary covers each
    shadow twice, front and back, so it is a quarter of the summed
    |((b - a) x (c - a))_i| over the carried triangles (a, b, c)."""
    if isinstance(K, SymmetricPolytope):
        t = K.vertices[K.triangles]
        return 0.25 * np.sum(np.abs(np.cross(t[:, 1] - t[:, 0], t[:, 2] - t[:, 0])), axis=0)
    return np.array([_projection_area_quad(K, p) for p in (1, 2, 3)])


# the package's one 64-point Gauss-Legendre rule on [-1, 1]
GL64 = np.polynomial.legendre.leggauss(64)


def _arc_area(K: ConvexBody3, plane: int, t0: float, t1: float) -> float:
    x, w = GL64
    t = 0.5 * (t1 - t0) * x + 0.5 * (t0 + t1)
    rho = K.radial_many(circle_dirs(plane, t))
    return 0.25 * (t1 - t0) * float(np.sum(w * rho**2))


def _plane_quarters(K: ConvexBody3, plane: int) -> np.ndarray:
    """The two quarter areas of a central plane: the cones over the half
    v >= 0 of its section on the sides u >= 0 and u <= 0, in its (u, v)
    frame.  (|O*d|, |O*e|) for plane 1 (x = 0), (|O*f|, |O*g|) for plane 2
    and (|O*h|, |O*i|) for plane 3."""
    if isinstance(K, SymmetricPolytope):
        upper = _clip_segments(_section_segments(K, _PLANE_FRAMES[plane]), (0.0, 1.0))
        return np.array([_fan_area(_clip_segments(upper, m)) for m in ((1.0, 0.0), (-1.0, 0.0))])
    half = 0.5 * math.pi
    return np.array([_arc_area(K, plane, 0.0, half), _arc_area(K, plane, half, math.pi)])


def quarter_areas(K: ConvexBody3) -> np.ndarray:
    """(|O*d|, |O*e|, |O*f|, |O*g|, |O*h|, |O*i|): the quarter pairs of the
    planes 1, 2, 3."""
    return np.concatenate([_plane_quarters(K, p) for p in (1, 2, 3)])


# ---------------------------------------------------------------------------
# volume product


def volume_product(K: ConvexBody3, grid: SphereGrid) -> float:
    """|K| |K°|.  The product does not change under K -> sK, so a polytope's
    cone sums run on it scaled by the power of two that brings its largest
    coordinate into [1/2, 1), and on its polar scaled back.  That is exact
    and keeps them in range for tiny and huge bodies alike."""
    if isinstance(K, SymmetricPolytope):
        s = math.ldexp(1.0, -math.frexp(float(np.max(np.abs(K.vertices))))[1])
        Kp = polar(K)
        vols = [float(np.sum(_cone6(P.vertices[P.triangles] * c))) / 6.0 for P, c in ((K, s), (Kp, 1.0 / s))]
        return vols[0] * vols[1]
    return volume(K, grid) * volume(polar(K), grid)
