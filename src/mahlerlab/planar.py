"""Small exact 2D kernel, and the Brent root solve shared by the angle and
rotation solvers.

A planar region that is star-shaped about the origin is a set of (u, v)
segments, its boundary oriented counterclockwise.  It is clipped only by
half-planes through the origin, which turn the cone from the origin over
each segment into the cone over the clipped segment, and its area is the
fan sum of those cones.  A polygon is the segment set of its closed edge
list; a central section of a polytope is the set of cut segments its
boundary triangles leave in the plane."""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

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


def _edges(poly: np.ndarray) -> np.ndarray:
    """The (n, 2, 2) closed edge list of an (n, 2) vertex array."""
    e = np.empty((len(poly), 2, 2))
    e[:, 0], e[:-1, 1], e[-1:, 1] = poly, poly[1:], poly[:1]
    return e


def _clip_segments(seg: np.ndarray, m) -> np.ndarray:
    """The part m.p >= 0 of each (u, v) segment of a (..., 2, 2) array, the
    line m.p = 0 through the origin; a segment wholly outside shrinks to the
    origin.  The cone from the origin over a segment, cut by the half-plane,
    is the cone over the clipped segment."""
    d = seg @ np.asarray(m, dtype=float)
    p, q = seg[..., 0, :], seg[..., 1, :]
    p_in, q_in = d[..., :1] >= 0.0, d[..., 1:] >= 0.0
    w = np.zeros(p_in.shape)
    np.divide(d[..., :1], d[..., :1] - d[..., 1:], out=w, where=p_in != q_in)
    x = np.where(p_in | q_in, p + w * (q - p), 0.0)
    return np.stack([np.where(p_in, p, x), np.where(q_in, q, x)], axis=-2)


def _fan_area(seg: np.ndarray):
    """(1/2) sum of p x q over the (u, v) segments of a (..., S, 2, 2) array:
    the signed area of the cones from the origin over them."""
    return 0.5 * np.sum(seg[..., 0, 0] * seg[..., 1, 1] - seg[..., 0, 1] * seg[..., 1, 0], axis=-1)


def shoelace(poly: np.ndarray) -> float:
    """Signed area of a polygon given as an (n,2) vertex array: the fan sum
    over its closed edge list."""
    return float(_fan_area(_edges(np.asarray(poly, dtype=float))))


def dual_vertices2(p, q) -> np.ndarray:
    """Row k is the point v with v.p[k] = v.q[k] = 1."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    det = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    scale = np.maximum(1.0, np.abs(p).max(axis=1) * np.abs(q).max(axis=1))
    if np.any(np.abs(det) <= 1e-14 * scale):
        raise CollinearPoints("points are linearly dependent")
    return np.column_stack([q[:, 1] - p[:, 1], p[:, 0] - q[:, 0]]) / det[:, None]
