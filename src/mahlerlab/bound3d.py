"""The 3D volume-product chain: boundary curve vectors, the eight test
points, the pairing inequalities and the sharp estimate P(K) >= 32/3 under
the balanced-piece condition."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import ConvexBody3, SymmetricPolytope, polar
from .errors import MembershipViolated
from .normalize import _r23
from .quadrature import (
    SphereGrid,
    _chain_measures,
    _section_segments,
    _section_vertices,
    projection_areas,
    quarter_areas,
    section_areas,
)

__all__ = [
    "CurveVectors",
    "ChainReport",
    "curve_vectors",
    "verify_chain",
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


def _test_points(K, Kp, cv: CurveVectors, piece, piece_p):
    """The four points S_i in K and the four points R_i in Kp = polar(K).

    Each is a signed combination of three curve vectors divided by six
    times the matching piece volume (the first four octant volumes of K and
    polar pieces); membership (gauge <= 1 + 1e-6) follows from the
    cone-volume comparison and doubles as a consistency check of the
    quadrature, so a violation raises."""

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
