"""Seeded workloads of the mahlerlab benchmark.

Each workload builds its inputs from the seed alone and turns them into a
list of ops. An op is a timed call into mahlerlab plus a correctness check
that runs outside the timed call. Calls go through module attributes
(`normalize.fgh`, not a local binding) so the traced run sees them.

The acceptance tolerances of the test suite are the check limits:
certificate residual < 1e-6 |K|, planar products >= 8 - 1e-5, product
>= 32/3 - 1e-5, chain_ok where the chain applies, odd winding, vp equal to
32/3 within 1e-10 on the cube and the cross-polytope, CLI exit code 0.

Listed refusals are typed errors that an input earns by its shape, not by a
fault of the run: ClassificationUnstable from cli_screen `verify` on the
cross-polytope and the tabulated unit ball, NotGeneric from exact_polytope
`winding` on the rare body whose (G, H) vanishes on the contour. An op whose
first run ends in a listed refusal is reported and leaves the timed loop;
any other failure fails the op and makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass
from functools import partial
from time import perf_counter, process_time

import numpy as np

from mahlerlab import body, bound3d, cli, normalize, quadrature
from mahlerlab.errors import NotGeneric

PI = math.pi
LOWER_BOUND = 32.0 / 3.0
TOL = 1e-5

PASS, REFUSED, FAIL = "pass", "refused", "fail"

# the CLI's stderr line for ClassificationUnstable, from the exact (polytope)
# and the quadrature piece classification; `error: ` is its MahlerLabError prefix
CLASSIFICATION_UNSTABLE = re.compile(
    r"error: (a vertex lies on a coordinate plane|\S+ of nodes sit on a piece boundary)"
)


@dataclass(frozen=True)
class Op:
    """call() is timed; check(result) returns (outcome, report bytes)."""

    name: str
    call: object
    check: object


def execute(op):
    """Run one op: (CPU time of the call, its wall time, outcome, report bytes).

    The CPU time is the process's (BLAS runs on one thread), which CPU steal
    on a shared host does not inflate; the wall time is printed beside it.
    A raised error (a typed MahlerLabError or any other) or a failed check
    fails the op; none of them ends the run."""
    c0, t0 = process_time(), perf_counter()
    try:
        result = op.call()
    except Exception as e:
        cpu, wall = process_time() - c0, perf_counter() - t0
        return cpu, wall, FAIL, f"{type(e).__name__}: {e}".encode()
    cpu, wall = process_time() - c0, perf_counter() - t0
    try:
        outcome, report = op.check(result)
    except Exception as e:
        return cpu, wall, FAIL, f"check raised {type(e).__name__}: {e}".encode()
    return cpu, wall, outcome, report


def _plain(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _report(**fields) -> bytes:
    return json.dumps(_plain(fields), sort_keys=True).encode()


def _chain_ok(rep, need_applicable: bool) -> bool:
    """Unconditional steps always; chain_ok where the chain applies.

    The (9/4) step needs the balanced-piece condition, so on a body that is
    not in normalized position chain_ok may be false without any error."""
    ok = (
        rep.pairings_ok
        and bool(np.all(rep.planar_products >= 8.0 - TOL))
        and rep.product >= LOWER_BOUND - TOL
    )
    if need_applicable:
        return ok and rep.applicable and rep.chain_ok
    return ok and (rep.chain_ok or not rep.applicable)


def _chain_fields(rep) -> dict:
    return {
        "pairings": rep.pairings,
        "planar_products": rep.planar_products,
        "product": rep.product,
        "s_points": rep.s_points,
        "r_points": rep.r_points,
        "condition_residual": rep.condition_residual,
        "chain_ok": rep.chain_ok,
    }


# ---------------------------------------------------------------------------
# body distributions (after tests/conftest.py and tests/test_acceptance.py)


def random_smooth_body(rng, spread=0.25):
    p = rng.uniform(2.5, 4.5)
    axes = rng.uniform(0.7, 1.4, size=3)
    A = np.eye(3) + spread * rng.standard_normal((3, 3))
    while abs(np.linalg.det(A)) < 0.3:
        A = np.eye(3) + spread * rng.standard_normal((3, 3))
    return body.TransformedBody(body.LpBall(p, axes), body.LinearMap3(A))


def random_symmetric_polytope(rng, pairs):
    """Symmetric polytope with exactly `pairs` vertex pairs, on the unit sphere."""
    pts = rng.standard_normal((pairs, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return body.SymmetricPolytope(np.vstack([pts, -pts]))


def perturbed_cube(rng, spread=0.15):
    A = np.eye(3) + spread * rng.standard_normal((3, 3))
    while abs(np.linalg.det(A)) < 0.4:
        A = np.eye(3) + spread * rng.standard_normal((3, 3))
    return body.cube().transformed(body.LinearMap3(A))


def symmetric_smooth_body(rng):
    """Smooth body symmetric in the coordinate planes, hence in normalized position."""
    base = body.LpBall(rng.uniform(2.5, 4.5), rng.uniform(0.7, 1.4, size=3))
    return base.transformed(body.LinearMap3(np.diag(rng.uniform(0.8, 1.25, size=3))))


# ---------------------------------------------------------------------------
# certify_smooth


def _certify_call(K, s, phi, Ks, grid):
    on_face = normalize.fgh(K, normalize.BoxPoint(s, phi, PI), grid)
    partner = normalize.fgh(K, normalize.BoxPoint(s, PI - phi, 0.0), grid)
    res = normalize.find_normalization(Ks, grid)
    rep = bound3d.verify_chain(res.normalized_body, grid)
    return on_face, partner, res, rep


def _certify_check(vol, out):
    on_face, partner, res, rep = out
    # the psi = pi face of the box maps to psi = 0 with (F, G, H) -> (F, -G, -H)
    face = float(np.max(np.abs(on_face - partner * np.array([1.0, -1.0, -1.0]))))
    ok = (
        face < 1e-6 * vol
        and float(np.max(np.abs(res.residual23))) < 1e-6 * rep.volume
        and _chain_ok(rep, need_applicable=True)
    )
    report = _report(
        on_face=on_face, partner=partner, angles=res.angles, residual23=res.residual23, **_chain_fields(rep)
    )
    return (PASS if ok else FAIL), report


def certify_smooth(seed, workdir):
    rng = np.random.default_rng(seed)
    grid = quadrature.make_grid(96, 192)
    ops = []
    for _ in range(32):
        K = random_smooth_body(rng)
        s, phi = rng.uniform(0.05, 0.95), rng.uniform(0.1, PI - 0.1)
        Ks = symmetric_smooth_body(rng)
        vol = quadrature.volume(K, grid)
        ops.append(Op(f"smooth{len(ops)}", partial(_certify_call, K, s, phi, Ks, grid), partial(_certify_check, vol)))
    return ops


# ---------------------------------------------------------------------------
# exact_polytope


def _polytope_call(K, grid):
    rep = bound3d.verify_chain(K, grid)
    try:
        return rep, normalize.winding(K, 64, grid)
    except NotGeneric as e:
        return rep, e


def _polytope_check(out):
    rep, trace = out
    if isinstance(trace, NotGeneric):
        # listed refusal: on about 1 in 40 perturbed cubes the contour
        # refinement lands on a point where (G, H) vanishes
        if _chain_ok(rep, need_applicable=False):
            return REFUSED, f"NotGeneric: {trace}".encode()
        return FAIL, _report(winding_error=str(trace), **_chain_fields(rep))
    ok = _chain_ok(rep, need_applicable=False) and trace.winding % 2 == 1
    return (PASS if ok else FAIL), _report(winding=trace.winding, samples=trace.samples, **_chain_fields(rep))


def exact_polytope(seed, workdir):
    rng = np.random.default_rng(seed)
    grid = quadrature.make_grid(96, 192)
    # every seed gets the same sizes, since cost grows with the vertex count;
    # one pass (about 22 s) fits a run
    bodies = []
    for pairs in (4, 8, 12, 16):
        bodies += [(f"cube{pairs // 4}", perturbed_cube(rng)), (f"polytope{pairs}", random_symmetric_polytope(rng, pairs))]
    return [Op(name, partial(_polytope_call, K, grid), _polytope_check) for name, K in bodies]


# ---------------------------------------------------------------------------
# cli_screen


def _polygon(rng):
    """Symmetric convex polygon: 2m points of a seeded ellipse, counterclockwise."""
    m = int(rng.integers(2, 7))
    while True:
        t = np.sort(rng.uniform(0.0, PI, size=m))
        if np.min(np.diff(np.append(t, t[0] + PI))) > 0.1:
            break
    A = np.diag(rng.uniform(0.6, 1.6, size=2))
    A[0, 1] = rng.uniform(-0.4, 0.4)
    half = np.stack([np.cos(t), np.sin(t)], axis=-1) @ A.T
    return np.vstack([half, -half])


def _cli_bodies(rng):
    """(label, descriptor) of the 3D bodies.

    All sit in normalized position (symmetric in the coordinate planes),
    where the chain applies, so `verify` is expected to exit 0 on them, but
    on the cross-polytope and the unit-ball table it refuses the piece
    classification (ClassificationUnstable)."""
    units = body.sphere_point(np.linspace(0.0, PI, 33)[:, None], np.arange(64)[None, :] * (2.0 * PI / 64))
    out = [
        ("cube", {"type": "polytope", "vertices": body.cube().vertices.tolist()}),
        ("cross", {"type": "polytope", "vertices": body.cross_polytope().vertices.tolist()}),
        # The unit ball tabulated at 32x64 (the default 128x256 table needs ~10 GB
        # in verify). It is fixed, not seeded: seeded tables pass or fail the piece
        # classification depending on the table, which would make the cost and the
        # failures of a cycle depend on the seed; this one fails it every time.
        ("radial", {"type": "radial", "values": np.ones((33, 64)).tolist()}),
        # the l4 unit ball at 32x64, on which radial `verify` passes
        ("radial_l4", {"type": "radial", "values": (1.0 / np.sum(units**4, axis=-1) ** 0.25).tolist()}),
    ]
    for k in range(2):
        out.append((f"lp{k}", {"type": "lp", "p": rng.uniform(1.5, 8.0), "axes": rng.uniform(0.6, 1.6, 3).tolist()}))
        out.append((f"ellipsoid{k}", {"type": "ellipsoid", "matrix": np.diag(rng.uniform(0.4, 2.8, 3)).tolist()}))
        base = {"type": "lp", "p": rng.uniform(2.5, 4.5), "axes": rng.uniform(0.7, 1.4, 3).tolist()}
        out.append(
            (f"transformed{k}", {"type": "transformed", "base": base, "matrix": np.diag(rng.uniform(0.7, 1.4, 3)).tolist()})
        )
    return out


def _polar_ok(spec, polar) -> bool:
    kind = spec["type"]
    if polar.get("type") != kind:
        return False
    if kind == "polytope":
        # every polar vertex is a facet normal: max over the body's vertices of v.x is 1
        dots = np.asarray(polar["vertices"]) @ np.asarray(spec["vertices"]).T
        return bool(np.allclose(np.max(dots, axis=1), 1.0, atol=1e-9))
    if kind == "lp":
        return _lp_polar_ok(spec, polar)
    if kind == "ellipsoid":
        return bool(np.allclose(np.asarray(polar["matrix"]) @ np.asarray(spec["matrix"]), np.eye(3), atol=1e-9))
    if kind == "transformed":
        # polar(A K) = A^{-T} polar(K)
        prod = np.asarray(polar["matrix"]) @ np.asarray(spec["matrix"]).T
        return bool(np.allclose(prod, np.eye(3), atol=1e-9)) and _lp_polar_ok(spec["base"], polar["base"])
    values = np.asarray(polar["values"])
    return values.shape == np.shape(spec["values"]) and bool(np.all(np.isfinite(values) & (values > 0)))


def _lp_polar_ok(spec, polar) -> bool:
    p = spec["p"]
    return (
        polar.get("type") == "lp"
        and abs(polar["p"] - p / (p - 1.0)) < 1e-9 * p
        and bool(np.allclose(np.asarray(polar["axes"]) * np.asarray(spec["axes"]), 1.0, atol=1e-12))
    )


def _cli_call(argv):
    """(exit code, stderr) of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return cli.run(argv), err.getvalue().strip()


def _cli_check(command, spec, exact, known, out_path, result):
    code, err = result
    if code != cli.EXIT_OK:
        # a listed refusal counts only with its exit code and its error message
        listed = known and code == cli.EXIT_INVALID and CLASSIFICATION_UNSTABLE.fullmatch(err)
        return (REFUSED if listed else FAIL), f"exit {code}: {err}".encode()
    with open(out_path, "rb") as fh:
        data = fh.read()
    os.remove(out_path)
    rep = json.loads(data)
    if command == "vp":
        ok = rep["product"] >= LOWER_BOUND - TOL
        if exact:
            ok = ok and abs(rep["product"] - LOWER_BOUND) <= 1e-10
    elif command == "polar":
        ok = _polar_ok(spec, rep)
    elif command == "verify":
        ok = (
            rep["chain_ok"]
            and rep["applicable"]
            and min(rep["planar_products"]) >= 8.0 - TOL
            and rep["product"] >= LOWER_BOUND - TOL
        )
    else:  # verify2
        ok = rep["bound_ok"] and rep["product"] >= 8.0 - TOL and max(rep["pairings"]) <= 1.0 + 1e-12
    return (PASS if ok else FAIL), data


def cli_screen(seed, workdir):
    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)
    jobs = []
    for label, spec in _cli_bodies(rng):
        for command in ("vp", "polar", "verify"):
            # listed refusals: both reject the piece classification (ClassificationUnstable, exit 3)
            known = command == "verify" and label in ("cross", "radial")
            jobs.append((command, label, spec, label in ("cube", "cross"), known))
    for k in range(12):
        spec = {"dim": 2, "vertices": _polygon(rng).tolist()}
        jobs.append(("verify2", f"polygon{k}", spec, False, False))
    ops = []
    for n, (command, label, spec, exact, known) in enumerate(jobs):
        body_path = os.path.join(workdir, f"{label}.json")
        with open(body_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        out_path = os.path.join(workdir, f"report{n}.json")
        argv = [command, "--body", body_path, "--out", out_path]
        ops.append(Op(f"{command} {label}", partial(_cli_call, argv), partial(_cli_check, command, spec, exact, known, out_path)))
    return ops


# ---------------------------------------------------------------------------
# provenance; every workload is a closed loop with one client

SEED = 1  # development seed
HELDOUT_SEED = 1001  # kept back to confirm a claimed gain on unseen inputs

WORKLOADS = {
    "certify_smooth": {
        "prepare": certify_smooth,
        "grid": "96x192",
        "op": "fgh at a seeded point of the psi=pi box face and at its psi=0 partner on a random smooth body "
        "(face identity check), then find_normalization + verify_chain on a seeded coordinate-symmetric smooth body",
    },
    "exact_polytope": {
        "prepare": exact_polytope,
        "grid": "96x192",
        "op": "verify_chain (exact paths) + winding(K, 64) on one body: four perturbed cubes and four random "
        "symmetric polytopes with 4, 8, 12 and 16 vertex pairs",
    },
    "cli_screen": {
        "prepare": cli_screen,
        "grid": "128x256 (CLI default); radial table 32x64",
        "op": "one in-process cli.run of vp, polar or verify on a 3D body file (cube, cross-polytope, two radial "
        "tables, lp, ellipsoid, transformed) or verify2 on a 2D polygon file, with its report file checked",
    },
}
