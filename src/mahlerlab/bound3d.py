"""The 3D volume-product chain: boundary curve vectors, the eight test
points, the pairing inequalities, the sharp estimate P(K) >= 32/3 under the
balanced-piece condition, cone-volume comparisons, and equality detection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import ConvexBody3, SymmetricPolytope, polar
from .errors import MembershipViolated, SingularFace
from .normalize import _r23
from .quadrature import (
    GL64,
    SphereGrid,
    _chain_measures,
    _polar_pieces,
    _section_segments,
    _section_vertices,
    octant_volumes,
    projection_areas,
    quarter_areas,
    section_areas,
)

__all__ = [
    "CurveVectors",
    "ChainReport",
    "ConeCheck",
    "curve_vectors",
    "test_points",
    "verify_chain",
    "cone_inequality_check",
    "dual_vertex3",
    "detect_equality",
]

LOWER_BOUND = 32.0 / 3.0
_N_CURVE = 512  # chord samples per smooth boundary curve of the polar-side curve vectors


def _axis_points(K: ConvexBody3):
    eye = np.eye(3)
    rho = K.radial_many(eye)
    return rho[0] * eye[0], rho[1] * eye[1], rho[2] * eye[2]


def _segment_samples(K: ConvexBody3, P: np.ndarray, Q: np.ndarray, n: int):
    """Boundary points of the radially projected chord, t in [0,1]."""
    t = np.linspace(0.0, 1.0, n + 1)
    pts = np.outer(1.0 - t, P) + np.outer(t, Q)
    return pts / K.gauge_many(pts)[:, None]


def _dual_polyline_polytope(K: SymmetricPolytope, P, Q) -> np.ndarray:
    """Contact vertices on the polar along the boundary arc from P to Q.

    The arc is the section of K in the plane of P and Q between the two, an
    angle below pi.  Lambda is constant on each arc edge, so evaluating it at
    P, at each edge midpoint and at Q gives every vertex of the polar curve
    in order (consecutive repeats add nothing to the cross sum)."""
    e1 = P / np.linalg.norm(P)
    e2 = Q - (Q @ e1) * e1
    e2 = e2 / np.linalg.norm(e2)
    F = np.array([e1, e2, np.cross(e1, e2)])
    poly = _section_vertices(_section_segments(K, F))
    ang = np.arctan2(poly[:, 1], poly[:, 0])
    inner = (ang > 0.0) & (ang < math.atan2(Q @ e2, Q @ e1))
    arc = np.vstack([P, poly[inner] @ F[:2], Q])
    return K.lambda_many(np.vstack([P, 0.5 * (arc[:-1] + arc[1:]), Q]))


def _cross_sum(poly: np.ndarray) -> np.ndarray:
    """Sum of cross(p_k, p_{k+1}); the three pairwise determinant integrals
    of the chordal polyline (components in the (2,3),(3,1),(1,2) order)."""
    return np.sum(np.cross(poly[:-1], poly[1:]), axis=0)


def _dual_curve_vector(K: ConvexBody3, P, Q) -> np.ndarray:
    if isinstance(K, SymmetricPolytope):
        return _cross_sum(_dual_polyline_polytope(K, P, Q))
    # chord sums are O(h^2); one Richardson step removes the leading bias
    ys = K.lambda_many(_segment_samples(K, P, Q, _N_CURVE))
    full = _cross_sum(ys)
    half = _cross_sum(ys[::2])
    return (4.0 * full - half) / 3.0


@dataclass(frozen=True)
class CurveVectors:
    """Determinant-integral vectors of the six axis-to-axis boundary curves.

    d, e lie in the x=0 plane, f, g in y=0, h, i in z=0 (fields without
    suffix are computed on the body, the _p fields on its polar via the
    boundary contact map)."""

    d: np.ndarray
    e: np.ndarray
    f: np.ndarray
    g: np.ndarray
    h: np.ndarray
    i: np.ndarray
    d_p: np.ndarray
    e_p: np.ndarray
    f_p: np.ndarray
    g_p: np.ndarray
    h_p: np.ndarray
    i_p: np.ndarray


def curve_vectors(K: ConvexBody3) -> CurveVectors:
    """Curve vectors of the six oriented boundary segments and their duals.

    Body-side vectors are planar, so they reduce to twice the quarter-arc
    areas placed in the normal slot; polar-side vectors accumulate the
    pairwise determinant integrals of the contact-map image curves."""
    return _curve_vectors(K, quarter_areas(K))


def _curve_vectors(K: ConvexBody3, qa: np.ndarray) -> CurveVectors:
    """Curve vectors from the quarter areas qa of K."""
    A, B, C = _axis_points(K)
    # d, e in the x=0 plane, f, g in y=0, h, i in z=0
    body = {k: 2.0 * qa[n] * np.eye(3)[n // 2] for n, k in enumerate("defghi")}
    segs = {
        "d": (B, C),
        "e": (C, -B),
        "f": (C, A),
        "g": (A, -C),
        "h": (A, B),
        "i": (B, -A),
    }
    dual = {k + "_p": _dual_curve_vector(K, P, Q) for k, (P, Q) in segs.items()}
    return CurveVectors(**body, **dual)


# the three curves bounding each of the four pieces, with their signs
_PIECE_CURVES = (
    (("d", "f", "h"), (1, 1, 1)),
    (("d", "g", "i"), (-1, 1, 1)),
    (("e", "g", "h"), (-1, -1, 1)),
    (("e", "f", "i"), (1, -1, 1)),
)


def test_points(K: ConvexBody3, grid: SphereGrid):
    """The four points S_i in K and four points R_i in the polar.

    Each is a signed combination of three curve vectors divided by six
    times the matching piece volume (the first four octant volumes of K
    and polar pieces); membership (gauge <= 1 + 1e-6) follows from the
    cone-volume comparison and doubles as a consistency check of the
    quadrature, so a violation raises."""
    cv = curve_vectors(K)
    piece = octant_volumes(K, grid)[:4]
    Kp = polar(K)
    return _test_points(K, Kp, cv, piece, _polar_pieces(Kp, grid)[:4])


def _test_points(K, Kp, cv: CurveVectors, piece, piece_p):
    """S_i, R_i from the curve vectors and the pieces of K and of Kp = polar(K)."""

    def points(suffix, pieces):
        # a piece that vanishes (possible for the polar pieces of a polytope)
        # gets the degenerate test point O, whose pairing is trivially 0
        eps = 1e-12 * float(np.sum(pieces))
        vec = {k: getattr(cv, k + suffix) for k in "defghi"}
        return np.array([
            (s1 * vec[a] + s2 * vec[b] + s3 * vec[c]) / (6.0 * p) if p > eps else np.zeros(3)
            for ((a, b, c), (s1, s2, s3)), p in zip(_PIECE_CURVES, pieces)
        ])

    S, R = points("_p", piece_p), points("", piece)
    gS = K.gauge_many(S)
    gR = Kp.gauge_many(R)
    if np.max(gS) > 1.0 + 1e-6 or np.max(gR) > 1.0 + 1e-6:
        raise MembershipViolated(
            "test point outside body: gauges %s / %s" % (gS, gR)
        )
    return S, R


@dataclass(frozen=True)
class ChainReport:
    piece_volumes: np.ndarray  # (4,)
    polar_pieces: np.ndarray  # (4,)
    s_points: np.ndarray  # (4,3)
    r_points: np.ndarray  # (4,3)
    pairings: np.ndarray  # (4,) R_i . S_i
    section_areas: np.ndarray  # (3,) central sections of K
    projection_areas: np.ndarray  # (3,) shadows of the polar
    planar_products: np.ndarray  # (3,)
    sum_products: float
    nine_quarter: float  # (9/4)|K||K^polar|
    volume: float
    polar_volume: float
    product: float
    slack: float  # product - 32/3
    condition_residual: float  # max |balanced-piece residual| / |K|
    applicable: bool
    pairings_ok: bool
    planar_ok: bool
    chain_ok: bool


def verify_chain(K: ConvexBody3, grid: SphereGrid) -> ChainReport:
    """Evaluate the whole product estimate on one body.

    The chain: each pairing R_i . S_i <= 1; summing the pairings under the
    balanced-piece condition gives (9/4)|K||K'| >= sum of the three
    section-shadow products; each such planar product is >= 8 since the
    factors are polar to each other; hence the product is >= 32/3.  When
    the condition residual is large the report is marked not applicable but
    the pairings and planar products are still evaluated (they hold
    unconditionally).  The polar is built once and each measure of K and of
    its polar is computed once, and only where the report uses it: the
    octant volumes feed the residual and the R_i, the quarter areas the
    residual and the body-side curve vectors.  A smooth body's radial table
    is sampled once for K and once for its polar."""
    Kp = polar(K)
    vol, vol_p, ov, pieces_p = _chain_measures(K, Kp, grid)
    product = vol * vol_p
    qa = quarter_areas(K)
    resid = float(np.max(np.abs(_r23(ov, qa)))) / vol
    applicable = resid < 1e-4
    cv = _curve_vectors(K, qa)
    piece = ov[:4]
    piece_p = pieces_p[:4]
    S, R = _test_points(K, Kp, cv, piece, piece_p)
    pairings = np.einsum("ij,ij->i", R, S)
    Q = section_areas(K)
    P = projection_areas(Kp)
    planar_products = Q * P
    sum_products = float(np.sum(planar_products))
    nine_quarter = 2.25 * product
    pairings_ok = bool(np.all(pairings <= 1.0 + 1e-8))
    planar_ok = bool(np.all(planar_products >= 8.0 - 1e-6))
    chain_ok = (
        pairings_ok
        and planar_ok
        and nine_quarter >= sum_products - 1e-8 * product
        and (not applicable or product >= LOWER_BOUND - 1e-6)
    )
    return ChainReport(
        piece_volumes=piece,
        polar_pieces=piece_p,
        s_points=S,
        r_points=R,
        pairings=pairings,
        section_areas=Q,
        projection_areas=P,
        planar_products=planar_products,
        sum_products=sum_products,
        nine_quarter=nine_quarter,
        volume=vol,
        polar_volume=vol_p,
        product=product,
        slack=product - LOWER_BOUND,
        condition_residual=resid,
        applicable=applicable,
        pairings_ok=pairings_ok,
        planar_ok=planar_ok,
        chain_ok=chain_ok,
    )


# ---------------------------------------------------------------------------
# cone-volume comparison


_GL8 = np.polynomial.legendre.leggauss(8)
_PANELS = 64


def _gauge_line_integral(K: ConvexBody3, P, Q) -> float:
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


def curve_vector_between(K: ConvexBody3, P, Q) -> np.ndarray:
    """Curve vector of the oriented boundary segment from P to Q.

    For the radial projection of a chord the integrand factorizes: the
    vector is cross(P, Q) times the line integral of gauge^(-2)."""
    return np.cross(P, Q) * _gauge_line_integral(K, P, Q)


def cone_volume(K: ConvexBody3, A1, A2, A3) -> float:
    """Volume of the radial cone over the boundary patch spanned by the
    directions of A1, A2, A3 (collapsed-square quadrature on the flat
    triangle; the radial factor reduces to gauge^(-3))."""
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


def cone_inequality_check(
    K: ConvexBody3, trials: int = 1000, seed: int = 0
) -> ConeCheck:
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


# ---------------------------------------------------------------------------
# dual faces and equality cases


def dual_vertex3(p1, p2, p3) -> np.ndarray:
    """The point v with v.p1 = v.p2 = v.p3 = 1 (dual vertex of a face)."""
    M = np.array([p1, p2, p3], dtype=float)
    scale = max(float(np.abs(M).max()), 1.0)
    if abs(np.linalg.det(M)) <= 1e-12 * scale**3:
        raise SingularFace("face points are linearly dependent")
    v = np.linalg.solve(M, np.ones(3))
    if np.max(np.abs(M @ v - 1.0)) > 1e-10:
        raise SingularFace("dual vertex solve is ill-conditioned")
    return v


def _is_parallelepiped(K: ConvexBody3) -> bool:
    # a symmetric polytope with six facets is three slabs: a parallelepiped
    return isinstance(K, SymmetricPolytope) and len(K.vertices) == 8 and len(K.facets) == 6


def detect_equality(K: ConvexBody3) -> str:
    """Classify a body as an extremizer shape.

    Returns "parallelepiped" if the body itself is one, "cross_polytope_dual"
    if its polar is, "neither" otherwise.  Smooth bodies are never
    extremizers, so non-polytopes report "neither"."""
    if _is_parallelepiped(K):
        return "parallelepiped"
    if isinstance(K, SymmetricPolytope) and _is_parallelepiped(polar(K)):
        return "cross_polytope_dual"
    return "neither"
