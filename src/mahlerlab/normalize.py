"""Balance angles, the unit shear, the (F,G,H) field, and its zero finder.

The balance angle Theta splits the beta-integral of rho^3 into equal
halves; Phi and Psi do the same for rho^2 along the beta=0 and
beta=Theta half-circles.  The associated unit upper-triangular shear
makes three of the seven normalization equations hold identically; the
remaining three are the field (F, G, H) over the rotation box
D = {(s, phi, psi)} whose zero yields the fully normalized body.

For smooth bodies the angle equations are solved through a spectral
antiderivative: the defining integrands are pi-periodic and smooth, so we
sample them uniformly, take the Fourier antiderivative, and run safeguarded
Newton steps on the resulting monotone function, whose derivative is the
spectral interpolant of the samples.  This keeps every (F,G,H) evaluation
at a couple of grid passes.  For polytopes Theta is a safeguarded Newton
root of the exact wedge volume, whose derivative comes from the same cut
of the boundary triangles.  Phi and Psi are closed forms on the cut
segments of the half-sections: Theta's solve cuts the triangles at z = 0,
which gives the beta = 0 section, and keeps their upper halves, whose one
cut at beta = Theta gives the half-section there.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from . import planar
from .body import ConvexBody3, LinearMap3, SymmetricPolytope, _cone6, _rotation, sphere_point
from .errors import BadParameter, NoConvergence, NotGeneric, NoZeroFound
from .planar import _clip_segments
from .quadrature import (
    GL64,
    SphereGrid,
    _plane_quarters,
    _split,
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
    shear: LinearMap3
    normalized_body: ConvexBody3
    residual23: np.ndarray  # 4 signed residuals of the target condition
    fgh_norm: float  # max |fgh|
    fgh: np.ndarray  # (F, G, H)
    balance: BalanceAngles  # of the rotated body, before its shear


@dataclass
class WindingTrace:
    samples: np.ndarray  # rows (t, G, H, accumulated angle)
    winding: int


# ---------------------------------------------------------------------------
# spectral half-balance solver


def _half_balance(vals: np.ndarray) -> float:
    """Solve C(t) = C(pi)/2 for the increasing antiderivative
    C(t) = int_0^t g of g sampled uniformly over [0, pi).

    A trapezoid cumulative sum of the samples brackets the root within a few
    grid cells.  Newton steps then take C and its exact derivative, the
    spectral interpolant of g, from one phase row each; a step that would
    leave the bracket bisects it instead.  The solve ends at a step of at
    most 1e-15 or at a residual within the round-off of C, below which a
    small g can bounce the steps between neighbouring doubles."""
    n = len(vals)
    h = PI / n
    c = np.fft.rfft(vals) / n
    kw = 2.0 * np.arange(1, len(c))  # angular frequencies of the period pi
    coef = np.where(kw == n, 1.0, 2.0) * c[1:]  # an even n's Nyquist term once
    c0 = c[0].real
    target = 0.5 * PI * c0  # the phase terms of C(pi) vanish
    cum = np.concatenate([[0.0], np.cumsum(0.5 * h * (vals + np.roll(vals, -1)))])
    # the trapezoid root lies in cell j - 1; its O(h^2) error is far below
    # the two cells kept on either side
    j = int(np.searchsorted(cum, target))
    lo, hi = h * max(j - 3, 0), h * min(j + 2, n)
    t = float(np.interp(target, cum, h * np.arange(n + 1)))
    for _ in range(8):
        phase = np.exp(1j * t * kw)
        C = c0 * t + float(np.sum(((phase - 1.0) / (1j * kw) * coef).real))
        lo, hi = (t, hi) if C < target else (lo, t)
        nxt = t - (C - target) / (c0 + float(np.sum((phase * coef).real)))
        nxt = nxt if lo <= nxt <= hi else 0.5 * (lo + hi)
        if abs(nxt - t) <= 1e-15 or abs(C - target) <= 8 * np.finfo(float).eps * target:
            return float(nxt)
        t = nxt
    raise NoConvergence("half balance: no Newton convergence in 8 steps")


# ---------------------------------------------------------------------------
# balance angles and shear


def _theta_polytope(K: SymmetricPolytope):
    """Exact theta balance for polytopes: V(b) = |K ∩ {0 <= beta <= b}| = |K|/4.

    The wedge over [0, pi] is half of K by central symmetry.  The upper half
    z >= 0 of the boundary triangles is cut once; each Newton step cuts it by
    the plane at beta = b, which gives V and V' together (_theta_wedge).  A
    step that would leave the bracket bisects it instead, as in _half_balance,
    and the solve ends at a step of at most 1e-15 or a residual within the
    round-off of V.

    Returns (Theta, the upper pieces, the cut segments of the plane z = 0),
    from which balance_angles takes the half-sections of Phi and Psi."""
    tris = K.vertices[K.triangles]
    target = 0.25 * (float(np.sum(_cone6(tris))) / 6.0)  # a quarter of volume(K)
    pieces, _, upper, zseg = _split(tris, np.array([0.0, 0.0, 1.0]))
    upper = pieces[upper]
    lo, hi = 1e-5, PI - 1e-5
    b = 0.5 * PI
    for _ in range(16):
        V, dV = _theta_wedge(upper, b)
        lo, hi = (b, hi) if V < target else (lo, b)
        nxt = b - (V - target) / dV if dV > 0 else math.nan
        nxt = nxt if lo <= nxt <= hi else 0.5 * (lo + hi)
        if abs(nxt - b) <= 1e-15 or abs(V - target) <= 8 * np.finfo(float).eps * target:
            return float(nxt), upper, zseg
        b = nxt
    raise NoConvergence("theta balance: no Newton convergence in 16 steps")


def _theta_wedge(upper: np.ndarray, b: float):
    """(V(b), V'(b)) from the pieces of the boundary triangles in z >= 0.

    V sums the cones over the pieces with beta <= b.  Turning the half-plane
    beta = b sweeps volume at the rate V'(b) = integral of r dA over its
    section, r the distance from the x-axis.  By Green's theorem in the
    half-plane coordinates (x, r) that is the sum of -r^2/2 dx over the
    counterclockwise cut segments; the x-axis, where r = 0, adds nothing."""
    c, s = math.cos(b), math.sin(b)
    pieces, _, side, seg = _split(upper, np.array([0.0, -s, c]))
    V = float(np.sum(_cone6(pieces[~side]))) / 6.0
    x = seg[:, :, 0]
    r = seg[:, :, 1] * c + seg[:, :, 2] * s
    moment = (x[:, 1] - x[:, 0]) * (r[:, 0] ** 2 + r[:, 0] * r[:, 1] + r[:, 1] ** 2)
    return V, -float(np.sum(moment)) / 6.0


def _sector_polytope(seg: np.ndarray, beta: float) -> float:
    """Exact circle balance for polytopes: the in-plane angle splitting the
    upper half of the central section (plane through the x-axis at angle
    beta) into equal areas, in closed form.

    seg holds the (S, 2, 3) cut segments of that section.  In the in-plane
    coordinates (x, r) they are clipped to the upper half r >= 0 and fanned
    from the origin in angular order; the split point lies on the segment
    whose cone holds half the area, at the linear fraction of that cone's
    area still to cover."""
    E = np.array([[1.0, 0.0, 0.0], [0.0, math.cos(beta), math.sin(beta)]])
    half = _clip_segments(seg @ E.T, (0.0, 1.0))
    # the x-axis crossings may carry r = -0.0 or -1e-16 from round-off, which
    # would give the -x crossing the angle -pi and start the fan there
    half[:, :, 1] = np.where(half[:, :, 1] > 0.0, half[:, :, 1], 0.0)
    half = half[np.argsort(np.arctan2(half[:, 0, 1], half[:, 0, 0]))]
    p, q = half[:, 0], half[:, 1]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]))])
    target = 0.5 * cum[-1]
    # the first cone whose end reaches the target; cum[k] < target there, so
    # a degenerate segment, whose cone has no area, is never picked
    k = int(np.argmax(cum[1:] >= target))
    t = (target - cum[k]) / (cum[k + 1] - cum[k])
    x, y = p[k] + t * (q[k] - p[k])
    return min(max(math.atan2(y, x), 1e-5), PI - 1e-5)


def _theta_only(K: ConvexBody3, grid: SphereGrid) -> float:
    if isinstance(K, SymmetricPolytope):
        return _theta_polytope(K)[0]
    m = grid.n_beta  # samples of the pi-periodic beta profile
    betas = np.arange(m) * (PI / m)
    dirs = sphere_point(grid.alpha[:, None], betas[None, :])
    rho = K.radial_many(dirs)
    J = np.sum(grid.w_alpha[:, None] * rho**3, axis=0)
    return _half_balance(J)


def _circle_balance(K: ConvexBody3, beta: float, grid: SphereGrid) -> float:
    m = 4 * max(grid.n_beta, 2 * grid.n_alpha)
    alphas = np.arange(m) * (PI / m)
    rho = K.radial_many(sphere_point(alphas, np.full(m, beta)))
    return _half_balance(rho**2)


def balance_angles(K: ConvexBody3, grid: SphereGrid) -> BalanceAngles:
    if isinstance(K, SymmetricPolytope):
        theta, upper, zseg = _theta_polytope(K)
        # the upper pieces cut at beta = Theta leave the half-section r >= 0
        seg = _split(upper, np.array([0.0, -math.sin(theta), math.cos(theta)]))[3]
        return BalanceAngles(theta, _sector_polytope(zseg, 0.0), _sector_polytope(seg, theta))
    theta = _theta_only(K, grid)
    phi = _circle_balance(K, 0.0, grid)
    psi = _circle_balance(K, theta, grid)
    return BalanceAngles(theta, phi, psi)


def balance_residuals(K: ConvexBody3, ang: BalanceAngles):
    """Independent Gauss-Legendre check of the three balance equations.

    Returns (I_theta, I_phi, I_psi): differences of the two sides, each
    computed with 200-point GL on the split intervals (no FFT involved).
    """
    x, w = np.polynomial.legendre.leggauss(200)

    def seg(f, a, b, rule=(x, w)):
        t = 0.5 * (b - a) * rule[0] + 0.5 * (a + b)
        return 0.5 * (b - a) * np.sum(rule[1] * f(t))

    def split(f, cut, rule=(x, w)):
        return seg(f, 0.0, cut, rule) - seg(f, cut, PI, rule)

    def profile(beta, power):
        return lambda a: K.radial_many(sphere_point(a, np.full_like(a, beta))) ** power

    def J(betas):
        return np.array([seg(lambda a: profile(b, 3)(a) * np.sin(a), 0.0, PI) for b in betas])

    return (
        split(J, ang.theta_cap, GL64),
        split(profile(0.0, 2), ang.phi_cap),
        split(profile(ang.theta_cap, 2), ang.psi_cap),
    )


def shear_matrix(ang: BalanceAngles) -> LinearMap3:
    """Inverse of [[1, 1/tanPhi, 1/(sinTheta tanPsi)], [0,1,1/tanTheta], [0,0,1]]."""
    a = 1.0 / math.tan(ang.phi_cap)
    c = 1.0 / math.tan(ang.theta_cap)
    b = 1.0 / (math.sin(ang.theta_cap) * math.tan(ang.psi_cap))
    return LinearMap3([[1.0, -a, a * c - b], [0.0, 1.0, -c], [0.0, 0.0, 1.0]])


def shear(K: ConvexBody3, grid: SphereGrid) -> LinearMap3:
    return shear_matrix(balance_angles(K, grid))


def rotate(K: ConvexBody3, theta: float, phi: float, psi: float) -> ConvexBody3:
    """X(theta) Y(phi) Z(psi) K."""
    R = (_rotation(0, theta) @ _rotation(1, phi)) @ _rotation(2, psi)
    return K.transformed(LinearMap3(R))


# ---------------------------------------------------------------------------
# the (F, G, H) field


def _fgh_body(L: ConvexBody3, grid: SphereGrid):
    """(F,G,H) of a body under its own shear; also the balance angles, the
    shear, the sheared body and its target residuals r23.  Of the quarter
    areas only the plane-1 pair is computed: it gives F and the last r23."""
    ang = balance_angles(L, grid)
    A = shear_matrix(ang)
    M = L.transformed(A)
    qa = _plane_quarters(M, 1)
    ov = octant_volumes(M, grid)
    F = qa[0] - qa[1]
    G = ov[0] + ov[2] - ov[1] - ov[3]
    H = ov[0] + ov[3] - ov[1] - ov[2]
    return np.array([F, G, H]), ang, A, M, _r23(ov, qa)


def _theta_cap0(K: ConvexBody3, phi: float, psi: float, grid: SphereGrid) -> float:
    """Theta(0, phi, psi) of K: the box-height angle at (phi, psi)."""
    return _theta_only(rotate(K, 0.0, phi, psi), grid)


def _box_field(K: ConvexBody3, grid: SphereGrid):
    """The only evaluator of the field over the box: a memoised function of
    (s, phi, psi) that gives the NormalizationResult of X(theta) Y(phi) Z(psi) K
    under its own shear, theta = (pi - Theta(0, phi, psi)) s.  Each box point
    is evaluated once and Theta(0, phi, psi) solved once per exact (phi, psi)
    pair over the life of the returned function; at s = +-0, theta is s itself
    and Theta(0, phi, psi) is not solved."""
    th0 = functools.cache(lambda phi, psi: _theta_cap0(K, phi, psi, grid))

    @functools.cache
    def point(s, phi, psi) -> NormalizationResult:
        theta = s if s == 0 else (PI - th0(phi, psi)) * s
        v, ang, A, M, r23 = _fgh_body(rotate(K, theta, phi, psi), grid)
        return NormalizationResult((theta, phi, psi), A, M, r23, float(np.max(np.abs(v))), v, ang)

    return point


def fgh(K: ConvexBody3, point: BoxPoint, grid: SphereGrid) -> np.ndarray:
    """(F, G, H) at a box point (s, phi, psi)."""
    return _box_field(K, grid)(point.s, point.phi, point.psi).fgh


def condition_residuals(K: ConvexBody3, grid: SphereGrid):
    """Signed residuals of the shear condition (r22) and the target (r23)."""
    ov, qa = octant_volumes(K, grid), quarter_areas(K)
    r22 = np.array([qa[2] - qa[3], qa[4] - qa[5], ov[0] + ov[1] - ov[2] - ov[3]])
    return r22, _r23(ov, qa)


def _r23(ov, qa):
    """The target residuals r23 from the octant volumes ov and the quarter
    areas qa of a body; only the plane-1 pair (|O*d|, |O*e|) of qa is read."""
    return np.array([ov[0] - ov[1], ov[0] - ov[2], ov[0] - ov[3], qa[0] - qa[1]])


# ---------------------------------------------------------------------------
# the Gamma / T reparametrization of the box faces


def gamma_map(K: ConvexBody3, psi: float, theta: float, grid: SphereGrid) -> float:
    """Gamma_psi(theta) = pi - Theta(theta, 0, psi) + theta (strictly increasing)."""
    return PI - _theta_only(rotate(K, theta, 0.0, psi), grid) + theta


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
    field = _box_field(K, grid)
    here = field(s, phi, psi)
    FL, angL = here.fgh, here.balance
    L = rotate(K, here.angles[0], phi, psi)
    a = (angL.theta_cap, angL.phi_cap, angL.psi_cap)
    # one row per map of L: the image's (Theta, Phi, Psi) as (index i into a,
    # relation), where "=" expects a[i], "-" expects pi - a[i] and "+" checks
    # a[i] + angle = pi; the image's (F, G, H) as (sign, index into FL)
    body_maps = (
        ("comp", LinearMap3.rotation_x(PI - a[0]), "+-=", (0, 2, 1), ((-1, 0), (-1, 2), (1, 1))),
        ("xpi", LinearMap3.rotation_x(PI), "=--", (0, 1, 2), ((1, 0), (-1, 1), (-1, 2))),
        ("ypi", LinearMap3.rotation_y(PI), "--=", (0, 1, 2), ((-1, 0), (-1, 1), (1, 2))),
        ("zpi", LinearMap3.rotation_z(PI), "-=-", (0, 1, 2), ((-1, 0), (1, 1), (-1, 2))),
    )
    res = {}
    for name, turn, relations, index, signs in body_maps:
        F2, ang2, *_ = _fgh_body(L.transformed(turn), grid)
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
    are the same point, evaluated once."""
    volK = volume(K, grid)
    field = _box_field(K, grid)

    def gh(t: float, kind: str = "inserted by refinement"):
        key = _contour_angles(t)
        v = field(0.0, *key).fgh
        r = math.hypot(v[1], v[2])
        if r < 1e-9 * volK:
            raise NotGeneric(
                f"(G,H) vanishes on the contour at t = {float(t)!r}, (phi, psi) = "
                f"{tuple(map(float, key))}, {kind}: |(G,H)| = {r / volK:.2g} |K|, "
                "below the 1e-9 |K| threshold"
            )
        return v[1], v[2]

    ts = list(np.linspace(0.0, 4 * PI, n_samples + 1))
    for t in ts:
        gh(t, "a base sample")
    # adaptive bisection of long angular steps; a pair that is not split is
    # final, so its step goes into the total as i passes it
    total = 0.0
    rows = [(ts[0], *gh(ts[0]), total)]
    i = 0
    while i < len(ts) - 1:
        if len(ts) > 1 << 20:
            raise NoConvergence("contour refinement exceeded 2^20 samples")
        v0, v = gh(ts[i]), gh(ts[i + 1])
        d = math.atan2(v0[0] * v[1] - v0[1] * v[0], v0[0] * v[0] + v0[1] * v[1])
        if abs(d) >= 0.5 * PI and ts[i + 1] - ts[i] > 1e-12:
            ts.insert(i + 1, 0.5 * (ts[i] + ts[i + 1]))
        else:
            total += d
            i += 1
            rows.append((ts[i], *v, total))
    return WindingTrace(samples=np.array(rows), winding=int(round(total / (2 * PI))))


# ---------------------------------------------------------------------------
# zero finder


def find_normalization(K: ConvexBody3, grid: SphereGrid) -> NormalizationResult:
    """Locate a zero of (F,G,H) in the box and return the normalized body.

    Coarse 9^3 scan, then damped Newton (central finite differences) from
    the best candidates, then recursive local rescans around the best
    point at halved spacing, up to depth 12.
    """
    volK = volume(K, grid)
    target = 1e-8 * volK
    # every box point is evaluated once; the winner's evaluation is the result
    point = _box_field(K, grid)

    def f(x):
        return point(*x).fgh

    def norm(v):
        return float(np.max(np.abs(v)))

    def clip(x):
        return np.array(
            [min(max(x[0], 0.0), 1.0), min(max(x[1], 0.0), PI), min(max(x[2], 0.0), PI)]
        )

    def newton(x0, v0):
        x, v = np.array(x0, dtype=float), v0
        h = np.array([1e-4, 1e-4, 1e-4])
        for _ in range(40):
            if norm(v) < target:
                return x, v
            J = np.empty((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h[j]
                J[:, j] = (f(x + e) - f(x - e)) / (2 * h[j])
            try:
                d = np.linalg.solve(J, -v)
            except np.linalg.LinAlgError:
                return None
            lam = 1.0
            while lam > 1e-3:
                x1 = clip(x + lam * d)
                v1 = f(x1)
                if norm(v1) < norm(v):
                    x, v = x1, v1
                    break
                lam *= 0.5
            else:
                return None
        return (x, v) if norm(v) < target else None

    def refine(x0, v0):
        got = newton(x0, v0)
        if got is not None:
            return got
        # the Newton direction degenerates when the zero set is locally a
        # curve; a bounded trust-region step still descends there
        res = least_squares(
            f,
            np.asarray(x0, dtype=float),
            bounds=([0.0, 0.0, 0.0], [1.0, PI, PI]),
            xtol=3e-16,
            ftol=3e-16,
            gtol=3e-16,
            diff_step=1e-6,
        )
        if norm(res.fun) < 1e-6 * volK:
            return np.asarray(res.x), res.fun
        return None

    # quick exit for bodies already normalized at the origin of the box
    origin = point(0.0, 0.0, 0.0)
    if origin.fgh_norm < target:
        return origin

    svals = np.linspace(0.0, 1.0, 9)
    avals = np.linspace(0.0, PI, 9)
    cand = [(origin.fgh_norm, (0.0, 0.0, 0.0), origin.fgh)]
    for phi, psi, s in itertools.product(avals, avals, svals):
        x = np.array([s, phi, psi])
        v = f(x)
        cand.append((norm(v), tuple(x), v))
    cand.sort(key=lambda c: c[0])

    zeros = []
    for _, x0, vv in cand[:6]:
        got = refine(x0, vv)
        if got is not None:
            zeros.append(got)
    depth, spacing = 0, np.array([1.0 / 8.0, PI / 8.0, PI / 8.0])
    center = np.array(cand[0][1])
    while not zeros and depth < 12:
        spacing = spacing / 2.0
        local = []
        for step in itertools.product((-1, 0, 1), repeat=3):
            x = clip(center + spacing * np.array(step))
            v = f(x)
            local.append((norm(v), tuple(x), v))
        local.sort(key=lambda c: c[0])
        center = np.array(local[0][1])
        got = refine(local[0][1], local[0][2])
        if got is not None:
            zeros.append(got)
        depth += 1
    if not zeros:
        raise NoZeroFound("no zero of (F,G,H) located in the box")
    zeros.sort(key=lambda z: (norm(z[1]), tuple(np.round(z[0], 9))))
    return point(*zeros[0][0])
