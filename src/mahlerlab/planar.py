"""Small exact 2D kernel: shoelace areas, halfplane clipping, edge duals,
convex hulls, and the Brent root solve shared by the angle and rotation
solvers."""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq
from scipy.spatial import ConvexHull

from .errors import CollinearPoints, NoConvergence


def brent_root(f, lo: float, hi: float, what: str) -> float:
    """Root of f on [lo, hi] by Brent's method to full double precision.

    A bracket without a sign change, or no convergence, raises NoConvergence
    naming `what`."""
    try:
        # rtol 8.9e-16 is the smallest brentq accepts (4 * machine epsilon)
        return brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
    except (RuntimeError, ValueError) as e:
        raise NoConvergence(f"{what}: {e}") from None


def shoelace(poly: np.ndarray) -> float:
    """Signed area of a polygon given as an (n,2) vertex array."""
    p = np.asarray(poly, dtype=float)
    if len(p) < 3:
        return 0.0
    x, y = p[:, 0], p[:, 1]
    x1, y1 = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))
    return 0.5 * float(np.sum(x * y1 - x1 * y))


def clip_halfplane(poly: np.ndarray, n, c: float) -> np.ndarray:
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


def clip_quadrant(poly: np.ndarray, sx: int, sy: int) -> np.ndarray:
    """Clip to {sx*x >= 0, sy*y >= 0}."""
    q = clip_halfplane(poly, (-sx, 0.0), 0.0)
    return clip_halfplane(q, (0.0, -sy), 0.0)


def dual_vertices2(p, q) -> np.ndarray:
    """Row k is the point v with v.p[k] = v.q[k] = 1."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    det = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    scale = np.maximum(1.0, np.abs(p).max(axis=1) * np.abs(q).max(axis=1))
    if np.any(np.abs(det) <= 1e-14 * scale):
        raise CollinearPoints("points are linearly dependent")
    return np.column_stack([q[:, 1] - p[:, 1], p[:, 0] - q[:, 0]]) / det[:, None]


def dual_vertex2(p, q):
    """The point v with v.p = v.q = 1."""
    return dual_vertices2(p, q)[0]


def hull2(points: np.ndarray) -> np.ndarray:
    """CCW convex hull vertices of a 2D point cloud."""
    pts = np.asarray(points, dtype=float)
    hull = ConvexHull(pts)
    return pts[hull.vertices]
