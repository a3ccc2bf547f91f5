"""Balance angles, the unit shear, the (F,G,H) field, and its zero finder.

The balance angle Theta splits the beta-integral of rho^3 into equal
halves; Phi and Psi do the same for rho^2 along the beta=0 and
beta=Theta half-circles.  The associated unit upper-triangular shear
makes three of the seven normalization equations hold identically; the
remaining three are the field (F, G, H) over the rotation box
D = {(s, phi, psi)} whose zero yields the fully normalized body.

Every rotated image R K is a row of a stack of rotation matrices:
_thetas gives Theta of each row and _field_rows its (F, G, H), balance
angles, shear and r23, and each branches once on the body kind.  A polytope
stack runs as one pass of array operations over its rows' boundary
triangles; other bodies run one row at a time.

The angles that are roots, Theta and a smooth body's Phi and Psi, are rows
of one safeguarded Newton solve (_newton).  For smooth bodies the integrands
are pi-periodic and smooth, so we sample them uniformly and solve on the
Fourier antiderivative, a monotone function whose derivative is the spectral
interpolant of the samples; this keeps every (F,G,H) evaluation at a couple
of grid passes.  For polytopes Theta is the root of the exact wedge volume,
whose derivative comes from the same cut of the boundary triangles.  Phi and
Psi are closed forms on the cut segments of the half-sections: Theta's solve
cuts the triangles at z = 0, which gives the beta = 0 section, and keeps
their upper halves, whose one cut at beta = Theta gives the half-section
there.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import planar
from .body import ConvexBody3, LinearMap3, SymmetricPolytope, _cone6, _rotation, sphere_point
from .errors import BadParameter, NoConvergence, NotGeneric, NoZeroFound
from .planar import _clip_segments, _fan_area
from .quadrature import (
    SphereGrid,
    _cut,
    _plane_quarters,
    _split,
    _upper_octants,
    octant_volumes,
    quarter_areas,
    volume,
)

PI = math.pi


@dataclass(frozen=True)
class BalanceAngles:
    theta_cap: float  # Theta
    phi_cap: float  # Phi
    psi_cap: float  # Psi


@dataclass(frozen=True)
class BoxPoint:
    s: float
    phi: float
    psi: float

    def __post_init__(self):
        if not (0.0 <= self.s <= 1.0 and 0.0 <= self.phi <= PI and 0.0 <= self.psi <= PI):
            raise BadParameter("box point outside [0,1] x [0,pi] x [0,pi]")


@dataclass
class NormalizationResult:
    """One box point's evaluation: the body X(theta) Y(phi) Z(psi) K under
    its own shear, and its (F, G, H)."""

    angles: tuple  # (theta, phi, psi)
    residual23: np.ndarray  # 4 signed residuals of the target condition
    fgh_norm: float  # max |fgh|
    fgh: np.ndarray  # (F, G, H)
    balance: BalanceAngles  # of the rotated body, before its shear
    base: ConvexBody3  # K

    @functools.cached_property
    def shear(self) -> LinearMap3:
        """The unit shear of the rotated body, built when first read, as
        normalized_body is."""
        return shear_matrix(self.balance)

    @functools.cached_property
    def normalized_body(self) -> ConvexBody3:
        """X(theta) Y(phi) Z(psi) K under its shear, built when first read:
        of the many points a search evaluates, only its result needs it."""
        return rotate(self.base, *self.angles).transformed(self.shear)


@dataclass
class WindingTrace:
    samples: np.ndarray  # rows (t, G, H, accumulated angle)
    winding: int


# ---------------------------------------------------------------------------
# the safeguarded Newton solver


def _newton(f, x, lo, hi, target, steps: int, what: str) -> np.ndarray:
    """Per row i the root of V_i(x) = target[i] for an increasing V_i, from
    x[i] in the bracket [lo[i], hi[i]]; f(rows, x) gives (V, V') of the
    listed rows at their x.  A Newton step that would leave the bracket, or
    move more than half as far as the row's previous step (at first the
    bracket width), bisects it instead, as Numerical Recipes' rtsafe does,
    unless it meets the end test: a step of at most 1e-15 or a residual
    within the round-off of V, below which the steps can bounce between
    neighbouring doubles.  A finished row leaves the rounds, so its numbers
    are those of its own solve alone."""
    root = np.empty(len(x))
    rows = np.arange(len(x))
    last = hi - lo
    tol = 8 * np.finfo(float).eps * target
    for _ in range(steps):
        V, dV = f(rows, x)
        r = V - target
        below = r < 0.0
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        mid = 0.5 * (lo + hi)
        # a slope that is not positive, or nan, gives a nan step: bisect
        nxt = x - r / np.where(dV > 0.0, dV, math.nan)
        nxt = np.where((lo <= nxt) & (nxt <= hi), nxt, mid)
        step = np.abs(nxt - x)
        done = (step <= 1e-15) | (np.abs(r) <= tol)
        nxt = np.where(done | (step <= 0.5 * last), nxt, mid)
        if done.all():
            root[rows] = nxt
            return root
        root[rows[done]] = nxt[done]
        go = ~done
        last = np.abs(nxt - x)[go]
        rows, x, lo, hi, target, tol = rows[go], nxt[go], lo[go], hi[go], target[go], tol[go]
    raise NoConvergence(f"{what}: no Newton convergence in {steps} steps")


def _half_balance(vals: np.ndarray) -> np.ndarray:
    """Per row of the (R, n) samples, solve C(t) = C(pi)/2 for the
    increasing antiderivative C(t) = int_0^t g of g sampled uniformly over
    [0, pi).

    A trapezoid cumulative sum of a row's samples brackets its root within a
    few grid cells.  Newton steps (_newton, one row per sample row) then take
    C and its exact derivative, the spectral interpolant of g, from one phase
    row each.  Every step is per row, so a row's angle is bit for bit that of
    its samples solved alone."""
    R, n = vals.shape
    h = PI / n
    c = np.fft.rfft(vals, axis=-1) / n
    kw = 2.0 * np.arange(1, c.shape[-1])  # angular frequencies of the period pi
    coef = np.where(kw == n, 1.0, 2.0) * c[:, 1:]  # an even n's Nyquist term once
    c0 = c[:, 0].real
    target = 0.5 * PI * c0  # the phase terms of C(pi) vanish
    cum = np.cumsum(0.5 * h * (vals + np.roll(vals, -1, axis=-1)), axis=-1)
    cum = np.concatenate([np.zeros((R, 1)), cum], axis=-1)
    nodes = h * np.arange(n + 1)
    t, lo, hi = np.empty(R), np.empty(R), np.empty(R)
    for r in range(R):
        # the trapezoid root lies in cell j - 1; its O(h^2) error is far
        # below the two cells kept on either side
        j = int(np.searchsorted(cum[r], target[r]))
        lo[r], hi[r] = h * max(j - 3, 0), h * min(j + 2, n)
        t[r] = np.interp(target[r], cum[r], nodes)

    def C(rows, t):
        phase = np.exp(1j * t[:, None] * kw)
        value = c0[rows] * t + ((phase - 1.0) / (1j * kw) * coef[rows]).real.sum(axis=-1)
        return value, c0[rows] + (phase * coef[rows]).real.sum(axis=-1)

    return _newton(C, t, lo, hi, target, 8, "half balance")


# ---------------------------------------------------------------------------
# balance angles and shear


def _theta_polytopes(tris: np.ndarray):
    """Exact theta balance for a (B, T, 3, 3) stack of polytope boundary
    triangles: V(b) = |K ∩ {0 <= beta <= b}| = |K|/4 for each row's K.

    The wedge over [0, pi] is half of K by central symmetry.  The upper half
    z >= 0 of the triangles is cut into pieces once; each Newton round
    (_newton, one row per body) cuts them by the plane at beta = b of every
    unfinished row, which gives V and V' together (_theta_wedge).

    Returns (Theta per row, the upper pieces, the cut segments of the plane
    z = 0), from which _balance_polytopes takes the half-sections of Phi and
    Psi."""
    target = 0.25 * (np.sum(_cone6(tris), axis=-1) / 6.0)  # a quarter of volume(K)
    upper, zseg, _ = _split(tris, np.array([0.0, 0.0, 1.0]))
    cone = _cone6(upper)

    def wedge(rows, b):
        # a round in which every row is still active passes the whole stack
        if len(rows) == len(tris):
            return _theta_wedge(upper, cone, b)
        return _theta_wedge(upper[rows], cone[rows], b)

    start, lo, hi = (np.full(len(tris), b) for b in (0.5 * PI, 1e-5, PI - 1e-5))
    return _newton(wedge, start, lo, hi, target, 16, "theta balance"), upper, zseg


def _theta_wedge(upper: np.ndarray, cone: np.ndarray, b: np.ndarray):
    """(V(b), V'(b)) per row from the (B, P, 3, 3) pieces of the boundary
    triangles in z >= 0, their cones det(a, b, c) and the angles b (B,).

    V sums the cone fractions of the pieces on the side beta < b.  Turning
    the half-plane beta = b sweeps volume at the rate V'(b) = integral of
    r dA over its section, r the distance from the x-axis.  By Green's
    theorem in the half-plane coordinates (x, r) that is the sum of r^2/2 dx
    over the cut segments, which run clockwise about the plane's normal
    (0, -sin b, cos b); the x-axis, where r = 0, adds nothing."""
    c = np.array([math.cos(x) for x in b])
    s = np.array([math.sin(x) for x in b])
    frac, seg = _cut(upper, np.stack([np.zeros(len(b)), s, -c], axis=-1))
    V = np.sum(cone * frac, axis=-1) / 6.0
    x = seg[..., 0]
    r = seg[..., 1] * c[:, None, None] + seg[..., 2] * s[:, None, None]
    r0, r1 = r[..., 0], r[..., 1]
    moment = (x[..., 1] - x[..., 0]) * (r0**2 + r0 * r1 + r1**2)
    return V, np.sum(moment, axis=-1) / 6.0


def _sector_polytope(seg: np.ndarray, beta: np.ndarray) -> list:
    """Exact circle balance for polytopes: per row, the in-plane angle
    splitting the upper half of the central section (plane through the
    x-axis at angle beta) into equal areas, in closed form.

    seg holds the (B, S, 2, 3) cut segments of the sections, beta the (B,)
    angles.  In the in-plane coordinates (x, r) the segments are clipped to
    the upper half r >= 0 and fanned from the origin in angular order; the
    split point lies on the segment whose cone holds half the area, at the
    linear fraction of that cone's area still to cover."""
    c = np.array([math.cos(x) for x in beta])[:, None, None]
    s = np.array([math.sin(x) for x in beta])[:, None, None]
    half = _clip_segments(np.stack([seg[..., 0], seg[..., 1] * c + seg[..., 2] * s], axis=-1), (0.0, 1.0))
    # the angular order of the start points without an arctangent, whose
    # vectorised last bits may depend on the array's layout: by the cosine,
    # whose ties near the x-axis the sine breaks, signed so that it grows
    # with the angle there; a segment at the origin has no cone, and goes last
    x, r = half[..., 0, 0], half[..., 0, 1]
    length = np.sqrt(x**2 + r**2)
    cosine = np.divide(-x, length, out=np.full(length.shape, 2.0), where=length > 0.0)
    sine = np.divide(np.where(x > 0.0, r, -r), length, out=np.zeros(length.shape), where=length > 0.0)
    half = np.take_along_axis(half, np.lexsort((sine, cosine), axis=-1)[..., None, None], axis=-3)
    p, q = half[..., 0, :], half[..., 1, :]
    area = 0.5 * (p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0])
    cum = np.concatenate([np.zeros((len(area), 1)), np.cumsum(area, axis=-1)], axis=-1)
    target = 0.5 * cum[:, -1]
    # the first cone whose end reaches the target; cum[k] < target there, so
    # a degenerate segment, whose cone has no area, is never picked
    k = np.argmax(cum[:, 1:] >= target[:, None], axis=-1)
    i = np.arange(len(k))
    t = (target - cum[i, k]) / (cum[i, k + 1] - cum[i, k])
    x, y = (p[i, k] + t[:, None] * (q[i, k] - p[i, k])).T
    return [min(max(math.atan2(yy, xx), 1e-5), PI - 1e-5) for xx, yy in zip(x, y)]


def _balance_polytopes(tris: np.ndarray) -> list:
    """The BalanceAngles of each row of a (B, T, 3, 3) stack of polytope
    boundary triangles, as one stacked cut pass.  Phi takes the half-section
    from the z = 0 cut of Theta's solve, and Psi from one cut of its upper
    pieces at beta = Theta, which leaves the half-section r >= 0."""
    theta, upper, zseg = _theta_polytopes(tris)
    c = [math.cos(t) for t in theta]
    s = [math.sin(t) for t in theta]
    seg = _cut(upper, np.stack([np.zeros(len(theta)), -np.array(s), np.array(c)], axis=-1))[1]
    phi = _sector_polytope(zseg, np.zeros(len(theta)))
    psi = _sector_polytope(seg, theta)
    return [BalanceAngles(float(t), f, p) for t, f, p in zip(theta, phi, psi)]


def _theta_only(K: ConvexBody3, grid: SphereGrid) -> float:
    """Theta of a smooth body from its beta-profile, sampled at the grid's
    Theta directions: a one-row solve."""
    rho = K.radial_many(grid.theta_dirs)
    J = np.sum(grid.w_alpha[:, None] * rho**3, axis=0)
    return float(_half_balance(J[None])[0])


def balance_angles(K, grid: SphereGrid):
    """Theta, Phi and Psi of a body.  K may also be a (B, T, 3, 3) stack of
    polytope boundary triangles, solved as one stacked cut pass; the result
    is then the list of the rows' BalanceAngles, each bit for bit what the
    row's polytope gives alone."""
    if isinstance(K, np.ndarray):
        return _balance_polytopes(K)
    if isinstance(K, SymmetricPolytope):
        return _balance_polytopes(K.vertices[K.triangles][None])[0]
    theta = _theta_only(K, grid)
    # Phi and Psi balance rho^2 on the half-circles beta = 0 and beta = Theta:
    # one radial pass over both, and one two-row solve
    m = 4 * max(grid.n_beta, 2 * grid.n_alpha)
    alphas = np.arange(m) * (PI / m)
    rho = K.radial_many(np.stack([sphere_point(alphas, np.full(m, beta)) for beta in (0.0, theta)]))
    phi, psi = _half_balance(rho**2)
    return BalanceAngles(theta, float(phi), float(psi))


def _shear_rows(ang: BalanceAngles) -> list:
    """The rows of the inverse of [[1, 1/tanPhi, 1/(sinTheta tanPsi)],
    [0,1,1/tanTheta], [0,0,1]]: the one shear formula, which shear_matrix
    and the stacked polytope pass both read."""
    a = 1.0 / math.tan(ang.phi_cap)
    c = 1.0 / math.tan(ang.theta_cap)
    b = 1.0 / (math.sin(ang.theta_cap) * math.tan(ang.psi_cap))
    return [[1.0, -a, a * c - b], [0.0, 1.0, -c], [0.0, 0.0, 1.0]]


def shear_matrix(ang: BalanceAngles) -> LinearMap3:
    """Inverse of [[1, 1/tanPhi, 1/(sinTheta tanPsi)], [0,1,1/tanTheta], [0,0,1]]."""
    return LinearMap3(_shear_rows(ang))


def _rotation_matrix(theta: float, phi: float, psi: float) -> np.ndarray:
    """The matrix of X(theta) Y(phi) Z(psi)."""
    return (_rotation(0, theta) @ _rotation(1, phi)) @ _rotation(2, psi)


def rotate(K: ConvexBody3, theta: float, phi: float, psi: float) -> ConvexBody3:
    """X(theta) Y(phi) Z(psi) K."""
    return K.transformed(LinearMap3(_rotation_matrix(theta, phi, psi)))


# stacked triangles per polytope pass: 16 points of a 64-triangle body, which
# keeps the arrays of a pass near 2 MB
_TRIANGLES = 1024


def _triangle_stacks(K: SymmetricPolytope, mats):
    """The (B, T, 3, 3) boundary triangles of R K for each matrix R of mats,
    in stacks of at most _TRIANGLES triangles (one row at least), bit for
    bit those of K.transformed(R): the image's vertices are
    K.vertices @ R.T, and the image sorts them but keeps each triangle's
    corners and order."""
    n = max(1, _TRIANGLES // len(K.triangles))
    for k in range(0, len(mats), n):
        yield np.stack([(K.vertices @ m.T)[K.triangles] for m in mats[k : k + n]])


def _thetas(K: ConvexBody3, mats, grid: SphereGrid) -> list:
    """Theta of R K for each rotation matrix R of mats: stacked Newton
    passes for a polytope, one body at a time otherwise."""
    if isinstance(K, SymmetricPolytope):
        return [float(t) for tris in _triangle_stacks(K, mats) for t in _theta_polytopes(tris)[0]]
    return [_theta_only(K.transformed(LinearMap3(m)), grid) for m in mats]


# ---------------------------------------------------------------------------
# the (F, G, H) field


def _field_rows(K: ConvexBody3, mats, grid: SphereGrid) -> list:
    """(F,G,H), the balance angles and the target residuals r23 of R K under
    its own shear for each rotation matrix R of mats.  Of the quarter areas
    only the plane-1 pair is computed: it gives F and r23[3].

    A polytope's rows are stacked cut passes of at most _TRIANGLES
    triangles.  The shear fixes z, so the octants 0-3 and the plane-1
    quarters, which all lie in z >= 0, come from the sheared triangles'
    upper half: its cut by x = 0 gives the octant pieces and the section,
    whose quarters are its sides y >= 0 and y <= 0.  Every step is
    elementwise over the rows or reduces within one, so a row's values are
    bit for bit those of its polytope alone.  Other bodies are evaluated one
    at a time."""
    if isinstance(K, SymmetricPolytope):
        out = []
        for tris in _triangle_stacks(K, mats):
            angs = balance_angles(tris, grid)
            A = np.array([_shear_rows(a) for a in angs])[:, None, None]
            sheared = tris[..., :1] * A[..., 0] + tris[..., 1:2] * A[..., 1] + tris[..., 2:] * A[..., 2]
            ov, xseg = _upper_octants(sheared)
            uv = xseg[..., 1:]  # plane 1 in its frame (u, v) = (y, z)
            qa = np.stack([_fan_area(_clip_segments(uv, m)) for m in ((1.0, 0.0), (-1.0, 0.0))])
            out += zip(_fgh(ov.T, qa).T.copy(), angs, _r23(ov.T, qa).T.copy())
        return out
    out = []
    for m in mats:
        L = K.transformed(LinearMap3(m))
        ang = balance_angles(L, grid)
        M = L.transformed(shear_matrix(ang))
        ov, qa = octant_volumes(M, grid), _plane_quarters(M, 1)
        out.append((_fgh(ov, qa), ang, _r23(ov, qa)))
    return out


class _BoxField:
    """The only evaluator of the field over the box: the NormalizationResult
    of X(theta) Y(phi) Z(psi) K under its own shear at each box point
    (s, phi, psi), with theta = (pi - Theta(0, phi, psi)) s.  fgh,
    symmetry_residuals, winding, find_normalization and the CLI sweep read
    it, and keep no cache of their own.

    `many` evaluates a list of points and `field(s, phi, psi)` one, a batch
    of one.  Each box point is evaluated once and Theta(0, phi, psi) solved
    once per exact (phi, psi) pair over the life of the field; at s = +-0,
    theta is s itself and Theta(0, phi, psi) is not solved.  The new points
    of a call go to _thetas and _field_rows together, which run a polytope's
    points in stacked passes of at most _TRIANGLES triangles, and a point's
    record does not depend on the batch or the pass it came in."""

    def __init__(self, K: ConvexBody3, grid: SphereGrid):
        self.K, self.grid = K, grid
        self.records = {}
        self.theta0 = {}

    def __call__(self, s, phi, psi) -> NormalizationResult:
        return self.many([(s, phi, psi)])[0]

    def many(self, points) -> list:
        points = [tuple(p) for p in points]
        new = [p for p in dict.fromkeys(points) if p not in self.records]
        pairs = dict.fromkeys((phi, psi) for s, phi, psi in new if s != 0)
        pairs = [p for p in pairs if p not in self.theta0]
        if pairs:
            mats = [_rotation_matrix(0.0, *p) for p in pairs]
            self.theta0.update(zip(pairs, _thetas(self.K, mats, self.grid)))
        angles = [(s if s == 0 else (PI - self.theta0[phi, psi]) * s, phi, psi) for s, phi, psi in new]
        rows = _field_rows(self.K, [_rotation_matrix(*a) for a in angles], self.grid)
        for p, a, (v, ang, r23) in zip(new, angles, rows):
            self.records[p] = NormalizationResult(a, r23, float(np.max(np.abs(v))), v, ang, self.K)
        return [self.records[p] for p in points]


def fgh(K: ConvexBody3, point: BoxPoint, grid: SphereGrid) -> np.ndarray:
    """(F, G, H) at a box point (s, phi, psi)."""
    return _BoxField(K, grid)(point.s, point.phi, point.psi).fgh


def condition_residuals(K: ConvexBody3, grid: SphereGrid):
    """Signed residuals of the shear condition (r22) and the target (r23)."""
    ov, qa = octant_volumes(K, grid), quarter_areas(K)
    r22 = np.array([qa[2] - qa[3], qa[4] - qa[5], ov[0] + ov[1] - ov[2] - ov[3]])
    return r22, _r23(ov, qa)


def _fgh(ov, qa):
    """(F, G, H) from the octant volumes ov and the plane-1 quarter areas qa
    of a sheared body."""
    return np.array([qa[0] - qa[1], ov[0] + ov[2] - ov[1] - ov[3], ov[0] + ov[3] - ov[1] - ov[2]])


def _r23(ov, qa):
    """The target residuals r23 from the octant volumes ov and the quarter
    areas qa of a body; only the plane-1 pair (|O*d|, |O*e|) of qa is read."""
    return np.array([ov[0] - ov[1], ov[0] - ov[2], ov[0] - ov[3], qa[0] - qa[1]])


# ---------------------------------------------------------------------------
# the Gamma / T reparametrization of the box faces


def gamma_map(K: ConvexBody3, psi: float, theta: float, grid: SphereGrid) -> float:
    """Gamma_psi(theta) = pi - Theta(theta, 0, psi) + theta (strictly increasing)."""
    return PI - _thetas(K, [_rotation_matrix(theta, 0.0, psi)], grid)[0] + theta


def t_map(K: ConvexBody3, s: float, psi: float, grid: SphereGrid) -> float:
    """The face-matching map T_psi(s) (decreasing, T(0)=1, T(1)=0): the
    Brent root of Gamma_psi(theta) = pi - Theta_0 s over the box height
    pi - Theta_0, as a fraction of that height."""
    return _t_map(K, psi, grid)(s)


def _t_map(K: ConvexBody3, psi: float, grid: SphereGrid):
    """T_psi as a function of s, with one Gamma_psi memo over all its calls."""
    gamma = functools.cache(lambda t: gamma_map(K, psi, t, grid))

    def T(s):
        height = gamma(0.0)  # pi - Theta_0
        target = PI - (PI - height) * s
        # Gamma(0) = pi - Theta_0 exactly, so s = 1 puts the root at 0, and brentq
        # returns that end.  Gamma(height) = pi holds only to quadrature accuracy, so
        # near s = 0 the target (at most pi) can pass the top end: it maps to that
        # end, as under bisection.  A target below Gamma(0) stays an error.
        if gamma(height) < target:
            return 1.0
        return planar.brent_root(lambda t: gamma(t) - target, 0.0, height, "T map") / height

    return T


# ---------------------------------------------------------------------------
# symmetry identities (the property-test backbone)


def symmetry_residuals(K: ConvexBody3, point: BoxPoint, grid: SphereGrid) -> dict:
    """Absolute residuals of the reflection/rotation identities at a box point.

    Keys group as: angle identities of the three half-turns and the
    X(pi-Theta) turn, the sign relations of (F,G,H) under those maps, and
    the three face-matching identities of the box field.
    """
    s, phi, psi = point.s, point.phi, point.psi
    # at s = 0 the face_s partner is the point itself
    field = _BoxField(K, grid)
    here = field(s, phi, psi)
    FL, angL = here.fgh, here.balance
    L = rotate(K, here.angles[0], phi, psi)
    a = (angL.theta_cap, angL.phi_cap, angL.psi_cap)
    # one row of a stack per map of L: the image's (Theta, Phi, Psi) as (index
    # i into a, relation), where "=" expects a[i], "-" expects pi - a[i] and
    # "+" checks a[i] + angle = pi; its (F, G, H) as (sign, index into FL)
    body_maps = (
        ("comp", _rotation(0, PI - a[0]), "+-=", (0, 2, 1), ((-1, 0), (-1, 2), (1, 1))),
        ("xpi", _rotation(0, PI), "=--", (0, 1, 2), ((1, 0), (-1, 1), (-1, 2))),
        ("ypi", _rotation(1, PI), "--=", (0, 1, 2), ((-1, 0), (-1, 1), (1, 2))),
        ("zpi", _rotation(2, PI), "-=-", (0, 1, 2), ((-1, 0), (1, 1), (-1, 2))),
    )
    images = _field_rows(L, [turn for _, turn, *_ in body_maps], grid)
    res = {}
    for (name, _, relations, index, signs), (F2, ang2, *_) in zip(body_maps, images):
        got = (ang2.theta_cap, ang2.phi_cap, ang2.psi_cap)
        for label, g, rel, i in zip(("theta", "phi", "psi"), got, relations, index):
            if rel == "+":
                res[f"{name}_{label}_sum"] = abs(a[i] + g - PI)
            else:
                res[f"{name}_{label}"] = abs(g - (PI - a[i] if rel == "-" else a[i]))
        for label, f, (sign, i) in zip("FGH", F2, signs):
            res[f"{name}_{label}"] = abs(f - sign * FL[i])
    # one row per pair of box faces: a face point, its partner, and the face
    # point's (F, G, H) as (sign, index into the partner's)
    T = _t_map(K, psi, grid)
    ts = T(s)
    face_pairs = (
        ("face_s", (1.0, phi, psi), (0.0, phi, psi), ((-1, 0), (-1, 2), (1, 1))),
        ("face_phi", (s, PI, psi), (ts, 0.0, psi), ((1, 0), (-1, 2), (-1, 1))),
        ("face_psi", (s, phi, PI), (s, PI - phi, 0.0), ((1, 0), (-1, 1), (-1, 2))),
    )
    for name, face, partner, signs in face_pairs:
        f1 = field(*face).fgh
        f0 = field(*partner).fgh
        for label, f, (sign, i) in zip("FGH", f1, signs):
            res[f"{name}_{label}"] = abs(f - sign * f0[i])

    # endpoints of the face-matching map
    res["t_map_0"] = abs(T(0.0) - 1.0)
    res["t_map_1"] = abs(T(1.0))
    return res


# ---------------------------------------------------------------------------
# winding number on the bottom-face boundary


def _contour_angles(t: float):
    """Four-leg parametrization of the boundary of the s=0 face."""
    if t <= PI:
        return t, 0.0
    if t <= 2 * PI:
        return PI, t - PI
    if t <= 3 * PI:
        return 3 * PI - t, PI
    return 0.0, 4 * PI - t


def winding(K: ConvexBody3, n_samples: int, grid: SphereGrid) -> WindingTrace:
    """Winding number of (G, H) around the boundary of the s = 0 face, whose
    points (0, phi, psi) are read through the box field: t = 0 and t = 4 pi
    are the same point, evaluated once.

    The base samples are one batch.  Refinement then runs in rounds: each
    takes every adjacent pair's angular step afresh, splits the pairs whose
    step is at least pi/2 at their midpoints and evaluates the new points as
    one batch.  Whether a pair is split depends on its endpoints alone, so
    the samples and the total are those of refining each pair depth first.
    A (G, H) below 1e-9 |K| raises NotGeneric at the first such point, in
    contour order, of the earliest batch that has one.  Each of the four
    legs of the contour needs a base sample, so n_samples below 4 raises
    BadParameter."""
    if n_samples < 4:
        raise BadParameter(f"winding needs at least 4 contour samples, got {n_samples}")
    volK = volume(K, grid)
    field = _BoxField(K, grid)

    def gh(ts, kind):
        keys = [_contour_angles(t) for t in ts]
        out = []
        for t, key, rec in zip(ts, keys, field.many([(0.0, *key) for key in keys])):
            v = rec.fgh
            r = math.hypot(v[1], v[2])
            if r < 1e-9 * volK:
                raise NotGeneric(
                    f"(G,H) vanishes on the contour at t = {float(t)!r}, (phi, psi) = "
                    f"{tuple(map(float, key))}, {kind}: |(G,H)| = {r / volK:.2g} |K|, "
                    "below the 1e-9 |K| threshold"
                )
            out.append((v[1], v[2]))
        return out

    ts = list(np.linspace(0.0, 4 * PI, n_samples + 1))
    vals = gh(ts, "a base sample")
    while True:
        steps = [math.atan2(g0 * h1 - h0 * g1, g0 * g1 + h0 * h1)
                 for (g0, h0), (g1, h1) in zip(vals, vals[1:])]
        split = [i for i, d in enumerate(steps) if abs(d) >= 0.5 * PI and ts[i + 1] - ts[i] > 1e-12]
        if not split:
            break
        if len(ts) + len(split) > 1 << 20:
            raise NoConvergence("contour refinement exceeded 2^20 samples")
        mids = [0.5 * (ts[i] + ts[i + 1]) for i in split]
        for i, t, v in reversed(list(zip(split, mids, gh(mids, "inserted by refinement")))):
            ts.insert(i + 1, t)
            vals.insert(i + 1, v)
    total = np.cumsum([0.0, *steps])
    return WindingTrace(samples=np.column_stack([ts, vals, total]), winding=int(round(total[-1] / (2 * PI))))


# ---------------------------------------------------------------------------
# zero finder


def _scan_candidates(field: _BoxField) -> list:
    """The 9^3 scan of the box as one batch: (max |fgh|, point, fgh) for
    each of its distinct points, the origin among them, smallest first."""
    svals = np.linspace(0.0, 1.0, 9)
    avals = np.linspace(0.0, PI, 9)
    points = [(s, phi, psi) for phi, psi, s in itertools.product(avals, avals, svals)]
    cand = [(rec.fgh_norm, x, rec.fgh) for x, rec in zip(points, field.many(points))]
    cand.sort(key=lambda c: c[0])
    return cand


def _refine(field: _BoxField, x0, v0, volK: float) -> np.ndarray:
    """The box point where a search for a zero of the field from x0, where
    it is v0, ends.

    Damped least squares: each round takes the central-difference Jacobian
    J, whose six points are one batch, and then the first step, clipped to
    the box, that lowers max |v| among the minimisers of
    |J d + v|^2 + mu s |d|^2 for mu = 0, 1e-4, ..., 10, where s is the mean
    squared column of J.  mu = 0 is the least-norm Newton step, which also
    serves where J is singular, as where the zero set is locally a curve.
    The search ends at its first point below 1e-8 |K|, where no mu descends,
    or after three steps in a row that do not halve max |v|."""
    target = 1e-8 * volK
    h = 1e-4
    steps = [sign * h * e for e in np.eye(3) for sign in (1.0, -1.0)]
    x, v = np.array(x0, dtype=float), v0
    size, stalls = np.max(np.abs(v0)), 0
    while size >= target and stalls < 3:
        f = [rec.fgh for rec in field.many([tuple(x + e) for e in steps])]
        J = np.column_stack([(f[2 * j] - f[2 * j + 1]) / (2 * h) for j in range(3)])
        rhs = np.concatenate([-v, np.zeros(3)])
        scale = np.sum(J * J) / 3.0
        for mu in (0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0):
            d = np.linalg.lstsq(np.vstack([J, math.sqrt(mu * scale) * np.eye(3)]), rhs, rcond=None)[0]
            x1 = np.clip(x + d, 0.0, (1.0, PI, PI))
            v1 = field(*x1).fgh
            size1 = np.max(np.abs(v1))
            if size1 < size:
                stalls = 0 if size1 <= 0.5 * size else stalls + 1
                x, v, size = x1, v1, size1
                break
        else:
            break
    return x


def find_normalization(K: ConvexBody3, grid: SphereGrid) -> NormalizationResult:
    """Locate a zero of (F,G,H) in the box and return the normalized body.

    A coarse 9^3 scan, then _refine from the six best distinct scan points,
    smallest |fgh| first.  The first end below 1e-8 |K| is the result; if
    none is, the smallest end below 1e-6 |K| (the earliest start among
    equals), and otherwise NoZeroFound.  The scan and each Jacobian are one
    batch of the field.
    """
    volK = volume(K, grid)
    # every box point is evaluated once; the winner's evaluation is the result
    field = _BoxField(K, grid)

    # quick exit for bodies already normalized at the origin of the box
    origin = field(0.0, 0.0, 0.0)
    if origin.fgh_norm < 1e-8 * volK:
        return origin

    ends = []
    for _, x0, v0 in _scan_candidates(field)[:6]:
        end = field(*_refine(field, x0, v0, volK))
        if end.fgh_norm < 1e-8 * volK:
            return end
        ends.append(end)
    best = min(ends, key=lambda rec: rec.fgh_norm)
    if best.fgh_norm < 1e-6 * volK:
        return best
    raise NoZeroFound("no zero of (F,G,H) located in the box")
