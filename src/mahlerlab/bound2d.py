"""Planar volume-product machinery: the sharp bound P(K) >= 8 for symmetric
convex polygons, with polar duals, the four-piece decomposition, balance
rotation and test points."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBody, NotNormalized, NotSymmetric
from .planar import _clip_segments, _edges, _fan_area, brent_root, dual_vertices2, shoelace

__all__ = [
    "Polygon2",
    "Report2",
    "polar2",
    "normalize2",
    "verify2",
]


@dataclass(frozen=True)
class Polygon2:
    """Centrally symmetric convex polygon, counterclockwise vertices.

    Vertices are canonicalized to start at the lexicographically smallest
    one so that structurally equal polygons compare equal vertex-wise.
    """

    vertices: np.ndarray = field()

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 4:
            raise DegenerateBody("need at least 4 planar vertices")
        # the shape checks run on u = v / scale, whose products cannot
        # overflow; an area that is zero, NaN or infinite is rejected
        scale = float(np.abs(v).max())
        with np.errstate(all="ignore"):
            u = v / scale
            rel_area, area = shoelace(u), shoelace(v)
        if rel_area < 0:
            v, u, rel_area, area = v[::-1], u[::-1], -rel_area, -area
        if not (rel_area > 1e-12 and 0.0 < area < math.inf):
            raise DegenerateBody("polygon area is (numerically) zero or not finite")
        e = np.roll(u, -1, axis=0) - u
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        if np.any(cross < -1e-12):
            raise DegenerateBody("vertex list is not convex")
        # closed under negation: -v must be a cyclic rotation of v
        n = len(v)
        if n % 2:
            raise NotSymmetric("odd vertex count cannot be centrally symmetric")
        if not np.allclose(u, -np.roll(u, n // 2, axis=0), rtol=0.0, atol=1e-9):
            raise NotSymmetric("vertex list is not closed under negation")
        start = int(np.lexsort((v[:, 1], v[:, 0]))[0])
        object.__setattr__(self, "vertices", np.roll(v, -start, axis=0))

    def area(self) -> float:
        return shoelace(self.vertices)

    def gauge_many(self, pts: np.ndarray) -> np.ndarray:
        """gauge(p) = max over edges of the supporting-line functional."""
        normals = _edge_normals(self.vertices)
        vals = np.atleast_2d(pts) @ normals.T
        return vals.max(axis=1)

    def gauge(self, p) -> float:
        return float(self.gauge_many(np.asarray(p, dtype=float)[None, :])[0])

    def support(self, u) -> float:
        return float(np.max(self.vertices @ np.asarray(u, dtype=float)))

    def transformed(self, matrix) -> "Polygon2":
        A = np.asarray(matrix, dtype=float)
        return Polygon2(self.vertices @ A.T)


def _edge_normals(v: np.ndarray) -> np.ndarray:
    """Rows a with a.p <= 1 describing the polygon; a = dual vertex of each edge."""
    return dual_vertices2(v, np.roll(v, -1, axis=0))


def polar2(P: Polygon2) -> Polygon2:
    """Polar polygon; vertices of the polar are the edge duals of P."""
    return Polygon2(_edge_normals(P.vertices))


def _quadrant_gap(v: np.ndarray) -> float:
    """|P ∩ {u >= 0, v >= 0}| - |P ∩ {u <= 0, v >= 0}| for the polygon P of
    the counterclockwise vertex array v, fan sums over its edges clipped to
    the upper half and then to each side of the v-axis."""
    upper = _clip_segments(_edges(v), (0.0, 1.0))
    right = _fan_area(_clip_segments(upper, (1.0, 0.0)))
    left = _fan_area(_clip_segments(upper, (-1.0, 0.0)))
    return float(right - left)


def _rot2(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


def normalize2(P: Polygon2):
    """Balance the quadrant areas by a rotation, then scale the axes.

    Returns (map, P') with P' = map applied to P, |K_1(P')| = |K_2(P')|
    (a Brent root of the quadrant gap over a quarter turn, which brackets it
    because a quarter turn swaps the two quadrant areas), and (1,0), (0,1)
    on the boundary of P' after diagonal scaling.
    """
    if abs(_quadrant_gap(P.vertices)) <= 1e-15 * P.area():
        t = 0.0
    else:
        # a rotation of a checked polygon needs no new Polygon2 per step
        t = brent_root(
            lambda a: _quadrant_gap(P.vertices @ _rot2(a).T), 0.0, 0.5 * math.pi, "planar balance"
        )
    R = _rot2(t)
    Q = P.transformed(R)
    rx = 1.0 / Q.gauge((1.0, 0.0))
    ry = 1.0 / Q.gauge((0.0, 1.0))
    D = np.array([[1.0 / rx, 0.0], [0.0, 1.0 / ry]])
    M = D @ R
    out = P.transformed(M)
    gap = _quadrant_gap(out.vertices)
    if abs(gap) > 1e-10 * out.area():
        raise NotNormalized("quadrant balance residual %.3e" % gap)
    return M, out


def _extreme_vertex(v: np.ndarray, coord: int) -> np.ndarray:
    """Vertex with maximal v[:, coord]; ties broken by the other coordinate."""
    other = 1 - coord
    idx = np.lexsort((v[:, other], v[:, coord]))[-1]
    return v[idx]


@dataclass(frozen=True)
class Report2:
    b: float
    c: float
    piece_areas: tuple  # (|Kpolar_1|, |Kpolar_2|)
    s_points: tuple  # (S1, S2) in K
    r_points: tuple  # (R1, R2) in polar
    pairings: tuple  # (R1.S1, R2.S2)
    area: float
    polar_area: float
    product: float
    bound_ok: bool


def verify2(P: Polygon2) -> Report2:
    """Evaluate the two-piece test-point chain giving area(P)*area(polar) >= 8.

    Requires P normalized (normalize2 output). The polar is cut by the lines
    through the extreme points Bpolar = (1, b), Cpolar = (c, 1) into pieces 1
    and 2; the test points S_i = (two-triangle area functional)/(2 piece area)
    lie in P, and R_i = (2/area)(+-1, 1) lie in the polar, so each pairing
    R_i . S_i is at most 1 and the product bound follows.  A piece whose area
    underflows (the tilted-square equality case at parameter 1) gets the
    degenerate test point O, whose pairing is trivially 0.
    """
    area = P.area()
    if abs(_quadrant_gap(P.vertices)) > 1e-8 * area:
        raise NotNormalized("quadrant areas differ; run normalize2 first")
    if abs(P.gauge((1.0, 0.0)) - 1.0) > 1e-8 or abs(P.gauge((0.0, 1.0)) - 1.0) > 1e-8:
        raise NotNormalized("(1,0) and (0,1) must lie on the boundary")
    Q = polar2(P)
    qv = Q.vertices
    b = float(_extreme_vertex(qv, 0)[1])
    c = float(_extreme_vertex(qv, 1)[0])
    # piece 1: {v >= b u} and {u >= c v}; piece 2: {v >= b u} and {u <= c v}
    upper = _clip_segments(_edges(qv), (-b, 1.0))
    a1 = float(_fan_area(_clip_segments(upper, (1.0, -c))))
    a2 = float(_fan_area(_clip_segments(upper, (-1.0, c))))
    polar_area = Q.area()
    eps = 1e-12 * polar_area
    s1 = np.array([1.0 - b, 1.0 - c]) / (2.0 * a1) if a1 > eps else np.zeros(2)
    s2 = np.array([-1.0 - b, 1.0 + c]) / (2.0 * a2) if a2 > eps else np.zeros(2)
    r1 = (2.0 / area) * np.array([1.0, 1.0])
    r2 = (2.0 / area) * np.array([-1.0, 1.0])
    pair1 = float(r1 @ s1)
    pair2 = float(r2 @ s2)
    product = area * polar_area
    ok = pair1 <= 1.0 + 1e-12 and pair2 <= 1.0 + 1e-12 and product >= 8.0 - 1e-9
    return Report2(
        b=b,
        c=c,
        piece_areas=(a1, a2),
        s_points=(s1, s2),
        r_points=(r1, r2),
        pairings=(pair1, pair2),
        area=area,
        polar_area=polar_area,
        product=product,
        bound_ok=ok,
    )
