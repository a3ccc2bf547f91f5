"""Independent reference computations used to validate library results.

Everything here deliberately avoids the code paths under test: volumes by
Monte Carlo, gauges through support-function duality, areas by rational
shoelace, balance equations by brute-force cumulative sums, ball cone
volumes by spherical excess.  The library's root, Newton and closed-form
solves are checked against fixed-step bisections of the same functions:
60 steps on the polytope balance measures, 64 on the spectral
antiderivative of the smooth ones, 48 on the Gamma map of the T map and
80 on the quadrant gap of the planar normalization.  A polytope's
polar-side curve vectors, read by the library off the section polygon, are
checked against a sampled polyline: 512 chord samples, each interval whose
contact vertices differ bisected recursively.  The radial table's boundary
map, whose refinement stencil the library reads off the tabulated polar, is
checked against the same stencil evaluated by nine support passes.  The
polytope symmetry check, one nearest-neighbour query of the negated
vertices, is checked against a scan of all vertex pairs.  A polytope's cone
sums over its boundary triangles (volume, octants, wedges, polar pieces)
are checked against qhull: the halfspace intersection of the facets with
the cut, and the hull of the vertices.  Its central sections, which the
library takes from the cut segments of the same triangles, are checked
against facet duality: the 2-D hull of the facet normals restricted to the
plane, whose edge duals are the section's vertices.  Its shadows, which the
library sums from the triangles' vector areas, are checked against the 2-D
hull of the projected vertices.  The library clips planar regions as
segment sets by half-planes through the origin; the reference clip is
Sutherland-Hodgman on the vertex list.  The winding contour, which the
library refines in breadth-first rounds of batched points, is checked
against the depth-first loop that evaluates one point at a time.  The lp
ball's gauge, support and boundary map, which the library runs on three
coordinate rows, are checked bit for bit against the formulas over a
trailing axis of length 3.  The library's max-dot kernel, which bins its
queries by direction and reduces each bin over the columns that can reach
its maxima, is checked bit for bit against the full product in row blocks.

The last section holds references and lemma checks that no command runs,
kept here so that their tests read them by the same names: a polytope's
wedge volume (`wedge_volume`) and coordinate section polygon
(`section_polygon`) from the cut triangles, a 200-point Gauss-Legendre check
of the balance equations (`balance_residuals`), the chain's test points from
a body's own measures (`test_points`), the cone-volume comparison on random
boundary triangles (`cone_inequality_check`, with `cone_volume` and
`curve_vector_between`), the equality-case classifier (`detect_equality`)
and the planar equality family of tilted squares (`equality_family`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def mc_points(rng, n, box):
    """Uniform points in [-box, box]^3."""
    return rng.uniform(-box, box, size=(n, 3))


def mc_volume(K, n=200_000, seed=1234):
    """Monte Carlo volume from gauge membership."""
    rng = np.random.default_rng(seed)
    box = float(max(K.support((1, 0, 0)), K.support((0, 1, 0)), K.support((0, 0, 1))))
    pts = mc_points(rng, n, box)
    inside = K.gauge_many(pts) <= 1.0
    return (2.0 * box) ** 3 * np.count_nonzero(inside) / n


def mc_octant_volumes(K, n=400_000, seed=1234):
    """Monte Carlo octant volumes, same sign-pattern order as the library."""
    from mahlerlab.quadrature import OCTANT_SIGNS

    rng = np.random.default_rng(seed)
    box = float(max(K.support((1, 0, 0)), K.support((0, 1, 0)), K.support((0, 0, 1))))
    pts = mc_points(rng, n, box)
    inside = pts[K.gauge_many(pts) <= 1.0]
    cell = (2.0 * box) ** 3 / n
    out = []
    for s in OCTANT_SIGNS:
        m = np.all(inside * np.array(s) >= 0, axis=1)
        out.append(cell * np.count_nonzero(m))
    return np.array(out)


def support_gauge(K, x, n=4000, seed=5):
    """Lower bound on the gauge via mu(x) = sup_u (x.u)/h(u) over sampled u."""
    rng = np.random.default_rng(seed)
    us = rng.standard_normal((n, 3))
    us /= np.linalg.norm(us, axis=1)[:, None]
    h = K.support_many(us)
    return float(np.max(us @ np.asarray(x, dtype=float) / h))


def frac_shoelace(poly):
    """Exact signed polygon area treating the float coordinates as rationals."""
    pts = [(Fraction(float(x)), Fraction(float(y))) for x, y in poly]
    acc = Fraction(0)
    for i in range(len(pts)):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % len(pts)]
        acc += x0 * y1 - x1 * y0
    return acc / 2


def clip_halfplane(poly, n, c):
    """Clip a convex polygon to the halfplane {p : n.p <= c} (Sutherland-Hodgman)."""
    p = np.asarray(poly, dtype=float)
    n = np.asarray(n, dtype=float)
    if len(p) == 0:
        return p
    out = []
    vals = p @ n - c
    m = len(p)
    for i in range(m):
        j = (i + 1) % m
        vi, vj = vals[i], vals[j]
        if vi <= 0:
            out.append(p[i])
        if (vi < 0) != (vj < 0) and vi != vj:
            t = vi / (vi - vj)
            out.append(p[i] + t * (p[j] - p[i]))
    return np.array(out) if out else np.empty((0, 2))


def clip_quadrant(poly, sx, sy):
    """Clip to {sx*x >= 0, sy*y >= 0}."""
    q = clip_halfplane(poly, (-sx, 0.0), 0.0)
    return clip_halfplane(q, (0.0, -sy), 0.0)


def hull2(points):
    """CCW convex hull vertices of a 2D point cloud (a 2-D qhull)."""
    from scipy.spatial import ConvexHull

    pts = np.asarray(points, dtype=float)
    return pts[ConvexHull(pts).vertices]


def projection_polygon(K, plane):
    """The shadow of a polytope along axis `plane` (1: x, 2: y, 3: z) as the
    hull of its projected vertices, in the in-plane coordinates of
    section_polygon."""
    j, k = {1: (1, 2), 2: (2, 0), 3: (0, 1)}[plane]
    return hull2(K.vertices[:, [j, k]])


def cumulative_theta(K, n_beta=2000, n_alpha=400):
    """Brute-force cumulative rho^3 mass in beta (trapezoid in alpha)."""
    from mahlerlab.body import sphere_point

    beta = (np.arange(n_beta) + 0.5) * (math.pi / n_beta)
    alpha = np.linspace(0.0, math.pi, n_alpha + 1)
    rho = K.radial_many(sphere_point(alpha[:, None], beta[None, :]))
    J = np.trapezoid(rho**3 * np.sin(alpha)[:, None], alpha, axis=0)
    return beta, np.cumsum(J) * (math.pi / n_beta)


def brute_theta(K, n_beta=2000, n_alpha=400):
    """Balance angle in beta by dense cumulative bisection."""
    beta, C = cumulative_theta(K, n_beta, n_alpha)
    return float(np.interp(C[-1] / 2.0, C, beta))


def brute_circle_angle(K, beta, n=200_000):
    """Half-area angle of the planar radial profile at fixed beta."""
    from mahlerlab.body import sphere_point

    a = (np.arange(n) + 0.5) * (math.pi / n)
    rho = K.radial_many(sphere_point(a, np.full(n, beta)))
    C = np.cumsum(rho**2)
    return float(np.interp(C[-1] / 2.0, C, a))


def bisect(pred, lo, hi, steps):
    """Final midpoint of `steps` halvings of [lo, hi].

    Each step moves lo to the midpoint where pred(mid) holds and hi
    otherwise, so a pred that is true below a switch point and false above
    brackets that point to a width of (hi - lo) / 2**steps.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_theta_polytope(K):
    """Theta of a polytope by 60 halvings on the exact wedge volume."""
    upper = wedge_volume(K, 0.0, math.pi)
    return bisect(lambda b: wedge_volume(K, 0.0, b) < 0.5 * upper, 1e-5, math.pi - 1e-5, 60)


def halfspaces_to_polygon(normals):
    """Vertices (ccw) of {p : a.p <= 1 for each row a}, origin interior.

    Uses polar duality: the region is the polar of conv{a_i}, so its
    vertices are the edge duals of that hull (a 2-D qhull)."""
    from scipy.spatial import ConvexHull

    from mahlerlab import planar

    a = np.asarray(normals, dtype=float)
    scale = np.max(np.abs(a))
    a = a[np.linalg.norm(a, axis=1) > 1e-12 * scale]
    cyc = ConvexHull(a).vertices  # ccw order
    poly = planar.dual_vertices2(a[cyc], a[np.roll(cyc, -1)])
    if planar.shoelace(poly) < 0:
        poly = poly[::-1]
    return poly


def hull_section_polygon(K, plane):
    """The section of a polytope by a coordinate plane (1: x = 0, 2: y = 0,
    3: z = 0) by facet duality, in the in-plane coordinates of
    section_polygon."""
    j, k = {1: (1, 2), 2: (2, 0), 3: (0, 1)}[plane]
    return halfspaces_to_polygon(K.facets[:, [j, k]])


def _upper_half_section(K, beta):
    """The half r >= 0 of the section by the plane through the x-axis at
    angle beta, in the in-plane coordinates (x, r), by facet duality."""
    w = np.array([0.0, math.cos(beta), math.sin(beta)])
    poly = halfspaces_to_polygon(np.column_stack([K.facets[:, 0], K.facets @ w]))
    return clip_halfplane(poly, (0.0, -1.0), 0.0)


def hull_sector_polytope(K, beta):
    """Half-area angle of the upper central section at beta, in closed form
    on the facet-duality polygon: fanned from the origin in angular order,
    the split point lies on the outer edge of the triangle holding half the
    area, at the linear fraction of that triangle's area still to cover."""
    from mahlerlab import planar

    upper = _upper_half_section(K, beta)
    target = 0.5 * planar.shoelace(upper)
    # an x-axis crossing with y = -0.0 would get the angle -pi
    upper[:, 1] = np.where(upper[:, 1] > 0.0, upper[:, 1], 0.0)
    fan = upper[np.argsort(np.arctan2(upper[:, 1], upper[:, 0]))]
    p, q = fan[:-1], fan[1:]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]))])
    k = int(np.argmax(cum[1:] >= target))
    t = (target - cum[k]) / (cum[k + 1] - cum[k])
    x, y = p[k] + t * (q[k] - p[k])
    return min(max(math.atan2(y, x), 1e-5), math.pi - 1e-5)


def bisect_sector_polytope(K, beta):
    """Half-area angle of the upper central section at beta by 60 halvings
    on clipped-polygon areas."""
    from mahlerlab import planar

    upper = _upper_half_section(K, beta)
    target = 0.5 * planar.shoelace(upper)

    def sector(phi):
        cut = clip_halfplane(upper, (-math.sin(phi), math.cos(phi)), 0.0)
        return planar.shoelace(cut)

    return bisect(lambda phi: sector(phi) < target, 1e-5, math.pi - 1e-5, 60)


def bisect_half_balance(rows):
    """Half-balance angles of the (R, n) rows of samples, one row at a time."""
    return np.array([_bisect_half_balance_row(vals) for vals in rows])


def _bisect_half_balance_row(vals):
    """Half-balance angle of g sampled uniformly over [0, pi) by 64 halvings
    on its spectral antiderivative C(t) = int_0^t g, against C(pi)/2."""
    n = len(vals)
    c = np.fft.rfft(vals) / n
    w = 2.0  # angular frequency of the period pi
    k = np.arange(1, len(c))
    fac = np.full(len(c) - 1, 2.0)
    if n % 2 == 0:
        fac[-1] = 1.0

    def C(t):
        phase = np.exp(1j * t * (k * w))
        return c[0].real * t + (((phase - 1.0) / (1j * k * w)) * c[1:]).real @ fac

    target = C(math.pi) / 2.0
    return bisect(lambda t: C(t) < target, 0.0, math.pi, 64)


def bisect_t_map(K, s, psi, grid):
    """T_psi(s) by 48 halvings of the box height on the Gamma map."""
    from mahlerlab.normalize import _rotation_matrix, _thetas, gamma_map

    th0 = _thetas(K, [_rotation_matrix(0.0, 0.0, psi)], grid)[0]
    height = math.pi - th0
    target = math.pi - th0 * s
    theta = bisect(lambda t: gamma_map(K, psi, t, grid) < target, 0.0, height, 48)
    return theta / height


def bisect_normalize2(P):
    """Rotation angle of the planar normalization by 80 halvings of a
    quarter turn on the quadrant gap, whose sign the quarter turn flips."""
    from mahlerlab.bound2d import _quadrant_gap, _rot2

    g0 = _quadrant_gap(P.vertices)
    if abs(g0) <= 1e-15 * P.area():
        return 0.0
    return bisect(
        lambda a: (_quadrant_gap(P.vertices @ _rot2(a).T) < 0) == (g0 < 0),
        0.0,
        0.5 * math.pi,
        80,
    )


def sampled_dual_polyline(K, P, Q, n=512):
    """Ordered distinct contact vertices on the polar along the segment.

    The dual curve of a polytope is piecewise constant with jumps where the
    chord crosses a facet boundary; each coarse interval whose endpoints
    disagree is bisected recursively so that no intermediate vertex is
    skipped.
    """
    from mahlerlab.bound3d import _segment_samples

    def lam(t):
        p = (1.0 - t) * P + t * Q
        x = p / K.gauge(p)
        return K.lambda_many(x[None, :])[0]

    scale = max(float(np.abs(K.vertices).max()), 1.0)
    tol = 1e-9 * scale
    ts = np.linspace(0.0, 1.0, n + 1)
    ys = K.lambda_many(_segment_samples(K, P, Q, n))
    out = [ys[0]]

    def refine(t0, y0, t1, y1, depth):
        if np.max(np.abs(y0 - y1)) <= tol:
            return
        if depth == 0 or t1 - t0 < 1e-14:
            out.append(y1)
            return
        tm = 0.5 * (t0 + t1)
        ym = lam(tm)
        refine(t0, y0, tm, ym, depth - 1)
        refine(tm, ym, t1, y1, depth - 1)

    for k in range(n):
        refine(ts[k], ys[k], ts[k + 1], ys[k + 1], 48)
    return np.array(out)


def sampled_dual_curve_vector(K, P, Q):
    """Polar-side curve vector of a polytope arc from the sampled polyline."""
    poly = sampled_dual_polyline(K, P, Q)
    return np.sum(np.cross(poly[:-1], poly[1:]), axis=0)


def stencil_radial_lambda(K, pts):
    """Boundary map of a RadialField with its quadratic-fit stencil evaluated
    by one support pass per stencil node (nine passes over all points)."""
    from mahlerlab.body import _table_units, sphere_point

    pts = np.asarray(pts, dtype=float)
    mu = K.gauge_many(pts)
    x = pts / mu[..., None]
    # maximize x.y over y in the polar: y = u / h_K(u)
    flat = x.reshape(-1, 3)
    na, nb = K.n_alpha, K.n_beta
    units = _table_units(na, nb).reshape(-1, 3)
    h = K.support_many(units)
    best = brute_max_dot(flat, units / h[:, None], reduce=np.argmax)
    ia = np.clip(best // nb, 1, na - 1).astype(float)
    ib = (best % nb).astype(float)
    da, db = math.pi / na, 2.0 * math.pi / nb
    # one quadratic-fit refinement step on g(a,b) = x . u(a,b)/h(u(a,b))
    def val(a, b):
        u = sphere_point(a, b)
        return np.einsum("...i,...i->...", flat, u) / K.support_many(u)

    a0, b0 = ia * da, ib * db
    s = np.empty((len(flat), 3, 3))
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            s[:, di + 1, dj + 1] = val(a0 + di * da, b0 + dj * db)
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
    y = u1 / K.support_many(u1)[:, None]
    return y.reshape(pts.shape)


def brute_max_dot(x, pts, reduce=np.max):
    """max_j x . pts[j] (or, with reduce=np.argmax, the first maximizing j)
    over every column, in row blocks of at least two rows and at most
    body._MAX_DOT_CHUNK entries: a one-row block is a BLAS gemv, whose last
    bits differ from gemm's, so only a batch of one query takes it."""
    from mahlerlab import body

    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, 3)
    out = np.empty(len(flat), dtype=np.intp if reduce is np.argmax else float)
    step = max(2, body._MAX_DOT_CHUNK // max(len(pts), 1))
    starts = range(0, max(len(flat) - 1, 1), step)
    for k, stop in zip(starts, [*starts[1:], len(flat)]):
        out[k:stop] = reduce(flat[k:stop] @ pts.T, axis=1)
    return out.reshape(x.shape[:-1])


def antipode_gap(verts):
    """Largest distance from a negated vertex to its nearest vertex, by a
    scan over all pairs."""
    return max(float(np.min(np.linalg.norm(verts + v, axis=1))) for v in verts)


def solid_angle(a, b, c):
    """Spherical excess of the triangle with unit vertices a, b, c."""

    def ang(u, v):
        return math.acos(np.clip(float(u @ v), -1.0, 1.0))

    sa, sb, sc = ang(b, c), ang(c, a), ang(a, b)
    s = 0.5 * (sa + sb + sc)
    t = math.tan(s / 2) * math.tan((s - sa) / 2) * math.tan((s - sb) / 2) * math.tan(
        (s - sc) / 2
    )
    return 4.0 * math.atan(math.sqrt(max(t, 0.0)))


def ball_cone_volume(a, b, c, radius=1.0):
    """Volume of the radial cone of a ball over a spherical triangle."""
    return solid_angle(a, b, c) * radius**3 / 3.0


def is_parallelepiped(K, tol=1e-5):
    """Parallelepiped test by geometry: the six facets pair up by negation
    (within tol) into three independent normals B, and every vertex lies
    within tol of a corner B^{-1}{+-1}^3."""
    from mahlerlab.body import SymmetricPolytope

    if not isinstance(K, SymmetricPolytope):
        return False
    if len(K.vertices) != 8 or len(K.facets) != 6:
        return False
    fac = K.facets
    used = np.zeros(6, dtype=bool)
    normals = []
    scale = float(np.abs(fac).max())
    for a in range(6):
        if used[a]:
            continue
        match = None
        for b in range(a + 1, 6):
            if not used[b] and np.allclose(fac[a], -fac[b], atol=tol * scale):
                match = b
                break
        if match is None:
            return False
        used[a] = used[match] = True
        normals.append(fac[a])
    B = np.array(normals)
    if abs(np.linalg.det(B)) < 1e-10 * scale**3:
        return False
    signs = np.array(np.meshgrid(*[[-1, 1]] * 3)).T.reshape(-1, 3)
    corners = np.array([np.linalg.solve(B, s) for s in signs])
    vscale = float(np.abs(K.vertices).max())
    for v in K.vertices:
        if np.min(np.max(np.abs(corners - v), axis=1)) > tol * vscale:
            return False
    return True


def qhull_cut_volume(K, normals, u):
    """|K ∩ {n.x <= 0 for each row n of normals}| of a polytope by a qhull
    halfspace intersection and the hull of its vertices; u points into the cut."""
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    half = np.hstack([K.facets, -np.ones((len(K.facets), 1))])
    extra = np.hstack([normals, np.zeros((len(normals), 1))])
    interior = u * (0.5 / K.gauge(u))
    hs = HalfspaceIntersection(np.vstack([half, extra]), interior)
    return float(ConvexHull(hs.intersections).volume)


def qhull_volume(K):
    """|K| of a polytope as the qhull hull volume of its vertices."""
    from scipy.spatial import ConvexHull

    return float(ConvexHull(K.vertices).volume)


def qhull_octant_volume(K, signs):
    """|K ∩ octant| for the octant of a sign pattern, by qhull."""
    s = np.array(signs, dtype=float)
    return qhull_cut_volume(K, np.diag(-s), s / math.sqrt(3.0))


def qhull_wedge_volume(K, b0, b1):
    """|K ∩ {b0 <= beta <= b1}|, beta the angle around the x-axis, by qhull;
    needs 0 < b1 - b0 <= pi."""
    n0 = np.array([0.0, -math.sin(b0), math.cos(b0)])
    n1 = np.array([0.0, -math.sin(b1), math.cos(b1)])
    m = 0.5 * (b0 + b1)
    return qhull_cut_volume(K, np.array([-n0, n1]), np.array([0.0, math.cos(m), math.sin(m)]))


def qhull_polar_pieces(Kp):
    """|K°_i| of a polytope from Kp = polar(K) by a qhull hull of Kp's
    vertices: each simplex's cone goes to the octant of its facet's dual,
    a vertex of K."""
    from scipy.spatial import ConvexHull

    from mahlerlab.errors import ClassificationUnstable
    from mahlerlab.quadrature import _classify_octants

    hull = ConvexHull(Kp.vertices)
    eq = hull.equations
    idx, near = _classify_octants(eq[:, :3] / (-eq[:, 3][:, None]))
    if near > 0:
        raise ClassificationUnstable("a vertex lies on a coordinate plane")
    out = np.zeros(8)
    np.add.at(out, idx, np.abs(np.linalg.det(Kp.vertices[hull.simplices])) / 6.0)
    return out


def depth_first_winding(K, n_samples, grid):
    """The winding trace of (G, H) on the s = 0 face by depth-first
    refinement, one box point at a time: each adjacent pair whose angular
    step is at least pi/2 is split at its midpoint and its left half refined
    first.  Returns (samples, winding) as normalize.winding does."""
    from mahlerlab.errors import NotGeneric
    from mahlerlab.normalize import _BoxField, _contour_angles
    from mahlerlab.quadrature import volume

    volK = volume(K, grid)
    field = _BoxField(K, grid)

    def gh(t, kind="inserted by refinement"):
        key = _contour_angles(t)
        v = field(0.0, *key).fgh
        r = math.hypot(v[1], v[2])
        if r < 1e-9 * volK:
            raise NotGeneric(f"(G,H) vanishes at t = {float(t)!r}, {kind}")
        return v[1], v[2]

    ts = list(np.linspace(0.0, 4 * math.pi, n_samples + 1))
    for t in ts:
        gh(t, "a base sample")
    total = 0.0
    rows = [(ts[0], *gh(ts[0]), total)]
    i = 0
    while i < len(ts) - 1:
        v0, v = gh(ts[i]), gh(ts[i + 1])
        d = math.atan2(v0[0] * v[1] - v0[1] * v[0], v0[0] * v[0] + v0[1] * v[1])
        if abs(d) >= 0.5 * math.pi and ts[i + 1] - ts[i] > 1e-12:
            ts.insert(i + 1, 0.5 * (ts[i] + ts[i + 1]))
        else:
            total += d
            i += 1
            rows.append((ts[i], *v, total))
    return np.array(rows), int(round(total / (2 * math.pi)))


def lp_gauge(K, pts):
    """An LpBall's gauge in the (..., 3) form: (|x| / a)^p summed over the
    last axis, whose reduction adds the three terms left to right."""
    z = np.abs(np.asarray(pts, dtype=float)) / K.axes
    return np.sum(z**K.p, axis=-1) ** (1.0 / K.p)


def lp_support(K, us):
    """An LpBall's support function in the (..., 3) form."""
    z = np.abs(np.asarray(us, dtype=float)) * K.axes
    return np.sum(z**K.q, axis=-1) ** (1.0 / K.q)


def lp_lambda(K, pts):
    """An LpBall's boundary map in the (..., 3) form: the gradient of the
    gauge at the point renormalized onto the boundary."""
    pts = np.asarray(pts, dtype=float)
    x = pts / lp_gauge(K, pts)[..., None]
    z = np.abs(x) / K.axes
    return np.sign(x) * z ** (K.p - 1.0) / K.axes


# ---------------------------------------------------------------------------
# references and lemma checks that no command runs


def wedge_volume(K, b0, b1):
    """Exact |K ∩ {b0 <= beta <= b1}| of a polytope by two cuts of its
    boundary triangles, beta the angle around the x-axis.

    beta is measured in the (y, z) plane from +y toward +z, matching the
    second spherical coordinate; requires 0 <= b1 - b0 <= pi."""
    from mahlerlab.body import _cone6
    from mahlerlab.quadrature import _cut, _split

    if b1 - b0 < 1e-9:
        return 0.0
    n0 = np.array([0.0, -math.sin(b0), math.cos(b0)])  # beta >= b0 where n0.x > 0
    n1 = np.array([0.0, math.sin(b1), -math.cos(b1)])  # beta < b1 where n1.x > 0
    pieces = _split(K.vertices[K.triangles], n0)[0]
    return float(np.sum(_cone6(pieces) * _cut(pieces, n1)[0])) / 6.0


def section_polygon(K, plane):
    """Exact polygon (in-plane coords, ccw) of a polytope cut by a coordinate
    plane (1: x = 0, 2: y = 0, 3: z = 0), from the cut segments the library's
    section measures read.

    Its vertices are where the plane cuts the boundary triangles, so a
    collinear vertex appears where the plane crosses a diagonal that the
    triangulation draws inside a facet."""
    from mahlerlab.quadrature import _PLANE_FRAMES, _section_segments, _section_vertices

    return _section_vertices(_section_segments(K, _PLANE_FRAMES[plane]))


def balance_residuals(K, ang):
    """Independent Gauss-Legendre check of the three balance equations.

    Returns (I_theta, I_phi, I_psi): differences of the two sides, each
    computed with 200-point GL on the split intervals (no FFT involved).
    """
    from mahlerlab.body import sphere_point
    from mahlerlab.quadrature import GL64

    x, w = np.polynomial.legendre.leggauss(200)

    def seg(f, a, b, rule=(x, w)):
        t = 0.5 * (b - a) * rule[0] + 0.5 * (a + b)
        return 0.5 * (b - a) * np.sum(rule[1] * f(t))

    def split(f, cut, rule=(x, w)):
        return seg(f, 0.0, cut, rule) - seg(f, cut, math.pi, rule)

    def profile(beta, power):
        return lambda a: K.radial_many(sphere_point(a, np.full_like(a, beta))) ** power

    def J(betas):
        return np.array([seg(lambda a: profile(b, 3)(a) * np.sin(a), 0.0, math.pi) for b in betas])

    return (
        split(J, ang.theta_cap, GL64),
        split(profile(0.0, 2), ang.phi_cap),
        split(profile(ang.theta_cap, 2), ang.psi_cap),
    )


def test_points(K, grid):
    """The four points S_i in K and four points R_i in the polar, from K's
    measures alone (verify_chain reads them off the measures it reports).
    Not a test: import it under another name into a test module."""
    from mahlerlab.body import polar
    from mahlerlab.bound3d import _test_points, curve_vectors
    from mahlerlab.quadrature import _polar_pieces, octant_volumes

    cv = curve_vectors(K)
    piece = octant_volumes(K, grid)[:4]
    Kp = polar(K)
    return _test_points(K, Kp, cv, piece, _polar_pieces(Kp, grid)[:4])


_GL8 = np.polynomial.legendre.leggauss(8)
_PANELS = 64


def _gauge_line_integral(K, P, Q):
    """int_0^1 gauge((1-t)P + tQ)^(-2) dt, composite Gauss-Legendre on 64
    panels of 8 nodes."""
    x, w = _GL8
    edges = np.linspace(0.0, 1.0, _PANELS + 1)
    centre = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 / _PANELS
    t = (centre[:, None] + half * x[None, :]).ravel()
    pts = np.outer(1.0 - t, P) + np.outer(t, Q)
    g = K.gauge_many(pts)
    wt = np.tile(w * half, _PANELS)
    return float(np.sum(wt / g**2))


def curve_vector_between(K, P, Q):
    """Curve vector of the oriented boundary segment from P to Q.

    For the radial projection of a chord the integrand factorizes: the
    vector is cross(P, Q) times the line integral of gauge^(-2)."""
    return np.cross(P, Q) * _gauge_line_integral(K, P, Q)


def cone_volume(K, A1, A2, A3):
    """Volume of the radial cone over the boundary patch spanned by the
    directions of A1, A2, A3 (collapsed-square quadrature on the flat
    triangle; the radial factor reduces to gauge^(-3))."""
    from mahlerlab.quadrature import GL64

    x, w = GL64
    xi = 0.5 * (x + 1.0)
    wi = 0.5 * w
    a = xi[:, None]
    b = xi[None, :] * (1.0 - a)
    jac = (wi[:, None] * wi[None, :]) * (1.0 - a)
    u = (
        np.asarray(A1)[None, None, :]
        + a[:, :, None] * (np.asarray(A2) - np.asarray(A1))[None, None, :]
        + b[:, :, None] * (np.asarray(A3) - np.asarray(A1))[None, None, :]
    )
    g = K.gauge_many(u.reshape(-1, 3)).reshape(u.shape[:2])
    det = float(np.linalg.det(np.array([A1, A2, A3])))
    return det / 3.0 * float(np.sum(jac / g**3))


@dataclass(frozen=True)
class ConeCheck:
    trials: int
    violations: int
    worst_margin: float  # min over trials of cone volume - signed cone sum


def cone_inequality_check(K, trials=1000, seed=0):
    """Signed-volume comparison on random boundary triangles.

    For boundary points A1, A2, A3 with det(A1,A2,A3) > 0 and any P in K,
    one sixth of P dotted with the sum of the three segment curve vectors
    (the signed volume of the cone from P over the three chordal fans) is
    at most the radial cone volume over the patch (up to 1e-6 slack).
    """
    rng = np.random.default_rng(seed)
    violations = 0
    worst = math.inf
    done = 0
    while done < trials:
        u = rng.standard_normal((3, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        det = float(np.linalg.det(u))
        if abs(det) < 0.05:
            continue
        if det < 0:
            u[[1, 2]] = u[[2, 1]]
        A = u / K.gauge_many(u)[:, None]
        up = rng.standard_normal(3)
        up /= np.linalg.norm(up)
        P = rng.random() ** (1.0 / 3.0) / K.gauge(up) * up
        c = (
            curve_vector_between(K, A[0], A[1])
            + curve_vector_between(K, A[1], A[2])
            + curve_vector_between(K, A[2], A[0])
        )
        lhs = float(P @ c) / 6.0
        vol = cone_volume(K, A[0], A[1], A[2])
        margin = vol - lhs
        worst = min(worst, margin)
        if margin < -1e-6:
            violations += 1
        done += 1
    return ConeCheck(trials=trials, violations=violations, worst_margin=worst)


def _is_parallelepiped(K):
    # a symmetric polytope with six facets is three slabs: a parallelepiped
    from mahlerlab.body import SymmetricPolytope

    return isinstance(K, SymmetricPolytope) and len(K.vertices) == 8 and len(K.facets) == 6


def detect_equality(K):
    """Classify a body as an extremizer shape.

    Returns "parallelepiped" if the body itself is one, "cross_polytope_dual"
    if its polar is, "neither" otherwise.  Smooth bodies are never
    extremizers, so non-polytopes report "neither"."""
    from mahlerlab.body import SymmetricPolytope, polar

    if _is_parallelepiped(K):
        return "parallelepiped"
    if isinstance(K, SymmetricPolytope) and _is_parallelepiped(polar(K)):
        return "cross_polytope_dual"
    return "neither"


def equality_family(a):
    """The tilted-square pair attaining product 8, parameter a in (-1, 1].

    K has vertices +-(1-a, 1+a)/(1+a^2), +-(-1-a, 1-a)/(1+a^2) and its polar
    is the square with vertices +-(1, a), +-(-a, 1); the areas are 4/(1+a^2)
    and 2(1+a^2).
    """
    from mahlerlab.bound2d import Polygon2
    from mahlerlab.errors import BadParameter

    if not (-1.0 < a <= 1.0):
        raise BadParameter("parameter must lie in (-1, 1]")
    d = 1.0 + a * a
    v1 = np.array([1.0 - a, 1.0 + a]) / d
    v2 = np.array([-1.0 - a, 1.0 - a]) / d
    K = Polygon2(np.array([v1, v2, -v1, -v2]))
    w1 = np.array([1.0, a])
    w2 = np.array([-a, 1.0])
    Kp = Polygon2(np.array([w1, w2, -w1, -w2]))
    return K, Kp
