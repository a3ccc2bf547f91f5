"""Dump what one source tree computes on a fixed polytope corpus, and compare
two such dumps field by field.

Usage:
    python scripts/compare_trees.py dump TREE OUT.json
    python scripts/compare_trees.py compare BEFORE.json AFTER.json

`dump` imports mahlerlab from TREE/src and the benchmark's workloads from
TREE/mahlerbench, so two checkouts (say a parent
commit exported with `git archive` and the working tree) are compared from
one place, each dumped in its own process.  Set OPENBLAS_NUM_THREADS=1 for
both.  It records, on ten polytopes (the cube, the cross-polytope, a cube
under a map with det -1, three perturbed cubes and four random polytopes of
6, 9, 12 and 16 vertex pairs from default_rng(1001)), on two lp bodies (an lp ball in normalized
position, where the search takes its quick exit, and a linear image of an
lp ball drawn from default_rng(1001)), on three 32x64 radial tables (the l4
ball and the unit ball, tabulated as the benchmark's `cli_screen` tabulates
them, and a linear image of an lp ball drawn from default_rng(1001)), on an
ellipsoid and on twelve symmetric polygons (drawn from default_rng(1001) as
`cli_screen` draws them):

- cli: the exit code, stdout and report of `vp`, `polar`, `verify` and
  `winding` at the default 128x256 grid, `sweep --n 3` at 32x64, and
  `normalize` at 32x64 on two of the polytopes; `vp`, `polar`, `verify`,
  `winding`, `sweep --n 3` and `normalize` at 32x64 on the lp bodies; `vp`,
  `polar` and `verify` at 128x256 on the tables and the ellipsoid; `verify2`
  on each polygon;
- fn: for each body and five (phi, psi), (F, G, H) at the box points
  (0, phi, psi) and (0.5, phi, psi); and of the body turned by
  X(0) Y(phi) Z(psi), the condition residuals r22, r23, the volume, the
  octant volumes, the polar piece volumes, the balance angles, the quarter
  areas, the curve vectors, and the volumes, pieces, section areas, shadow
  areas and planar products of `verify_chain` (or the name of the error
  each raises); for each polytope so turned, also the rotated vertices;
- bench: the outcome and the report (parsed JSON where it parses, else
  text) of every op of the benchmark's three workloads, imported from
  TREE/mahlerbench and run once each through `workloads.execute` at
  `workloads.SEED` and `workloads.HELDOUT_SEED`, without the times.

`compare` prints one line per command and field: how many items differ, the
largest absolute difference, and the largest difference relative to the
largest |value| of the field in its item; then every item whose exit code
or text differs.  Floats are written with repr, so equal means bit-identical.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

# (phi, psi) of the rotations X(0) Y(phi) Z(psi) of the function items
ROTATIONS = ((0.0, 0.0), (math.pi / 2, 0.0), (0.0, math.pi / 2), (math.pi, 0.0), (1.0, 2.0))
NORMALIZED = ("pcube0", "random0")  # normalize takes seconds per body


def corpus(body):
    rng = np.random.default_rng(1001)
    flip = body.LinearMap3([[1.0, 0.4, 0.2], [0.0, 1.0, 0.3], [0.0, 0.0, -1.0]])
    out = {
        "cube": body.cube(),
        "cross": body.cross_polytope(),
        "cube_det_neg": body.cube().transformed(flip),
    }
    for k in range(3):
        A = np.eye(3) + 0.15 * rng.standard_normal((3, 3))
        out[f"pcube{k}"] = body.cube().transformed(body.LinearMap3(A))
    for k, pairs in enumerate((6, 9, 12, 16)):
        pts = rng.standard_normal((pairs, 3))
        out[f"random{k}"] = body.SymmetricPolytope(np.vstack([pts, -pts]))
    return out


def smooth_descriptors():
    """The smooth bodies as body-file descriptors; the tables are computed
    here with numpy alone, so both trees read the same files."""
    rng = np.random.default_rng(1001)
    p, axes = rng.uniform(2.5, 4.5), rng.uniform(0.7, 1.4, size=3)
    A = np.eye(3) + 0.25 * rng.standard_normal((3, 3))
    # the table directions of a 32x64 radial table
    a, b = np.linspace(0.0, math.pi, 33)[:, None], np.arange(64)[None, :] * (2.0 * math.pi / 64)
    units = np.stack([np.cos(a) * np.ones_like(b), np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)], axis=-1)
    q, axes_t = rng.uniform(2.5, 4.5), rng.uniform(0.7, 1.4, size=3)
    B = np.eye(3) + 0.25 * rng.standard_normal((3, 3))
    image = np.sum(np.abs((units @ np.linalg.inv(B).T) / axes_t) ** q, axis=-1) ** (-1.0 / q)
    C = np.eye(3) + 0.25 * rng.standard_normal((3, 3))
    return {
        "lp_normal": {"type": "lp", "p": 3.0, "axes": [1.0, 0.7, 1.3]},
        "lp_turned": {"type": "transformed", "base": {"type": "lp", "p": p, "axes": axes.tolist()}, "matrix": A.tolist()},
        "radial_l4": {"type": "radial", "values": (1.0 / np.sum(units**4, axis=-1) ** 0.25).tolist()},
        "radial_ball": {"type": "radial", "values": np.ones((33, 64)).tolist()},
        "radial_image": {"type": "radial", "values": image.tolist()},
        "ellipsoid": {"type": "ellipsoid", "matrix": (C @ C.T).tolist()},
    }


def polygons():
    """Twelve symmetric convex polygons: 2m points of a seeded ellipse each,
    counterclockwise."""
    rng = np.random.default_rng(1001)
    out = {}
    for k in range(12):
        m = int(rng.integers(2, 7))
        while True:
            t = np.sort(rng.uniform(0.0, math.pi, size=m))
            if np.min(np.diff(np.append(t, t[0] + math.pi))) > 0.1:
                break
        A = np.diag(rng.uniform(0.6, 1.6, size=2))
        A[0, 1] = rng.uniform(-0.4, 0.4)
        half = np.stack([np.cos(t), np.sin(t)], axis=-1) @ A.T
        out[f"polygon{k}"] = np.vstack([half, -half])
    return out


def _runs(name):
    if name.startswith("polygon"):
        return [("verify2", [])]
    coarse = ["--grid", "32x64"]
    if name.startswith("lp_"):
        return [(cmd, coarse) for cmd in ("vp", "polar", "verify", "winding")] + [
            ("sweep", coarse + ["--n", "3"]),
            ("normalize", coarse),
        ]
    if name.startswith(("radial_", "ellipsoid")):
        return [("vp", []), ("polar", []), ("verify", [])]
    runs = [("vp", []), ("polar", []), ("verify", []), ("winding", []), ("sweep", ["--grid", "32x64", "--n", "3"])]
    if name in NORMALIZED:
        runs.append(("normalize", ["--grid", "32x64"]))
    return runs


def _value(text):
    """A stdout value: a number or a list of numbers where it parses, else text."""
    try:
        v = ast.literal_eval(re.sub(r"np\.float64\(([^()]*)\)", r"\1", text.strip()))
    except (ValueError, SyntaxError):
        return text.strip()
    return list(v) if isinstance(v, tuple) else v


def _report(path):
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.startswith("{"):
        return json.loads(text)
    header, *rows = [line.split(",") for line in text.splitlines()]
    return {h: [float(r[j]) for r in rows] for j, h in enumerate(header)}


def _stdout(text):
    """stdout lines as {label: value}, without the timing line."""
    out = {}
    for line in text.splitlines():
        if line.startswith("done in"):
            continue
        label, _, rest = line.partition("  ")
        out[label.strip()] = _value(rest)
    return out


def _bench_report(data):
    """An op report: parsed JSON where it parses, else its text."""
    try:
        return json.loads(data)
    except ValueError:
        return data.decode()


def dump(tree, out_path):
    sys.path[:0] = [os.path.join(os.path.abspath(tree), "src"), os.path.abspath(tree)]
    from mahlerbench import workloads
    from mahlerlab import body, bound3d, cli, errors, normalize, quadrature

    grid = quadrature.make_grid(32, 64)
    items = {}
    bodies = corpus(body)
    descriptors = {name: {"type": "polytope", "vertices": K.vertices.tolist()} for name, K in bodies.items()}
    descriptors.update(smooth_descriptors())
    descriptors.update({name: {"dim": 2, "vertices": v.tolist()} for name, v in polygons().items()})
    with tempfile.TemporaryDirectory() as tmp:
        for name, desc in descriptors.items():
            spec = os.path.join(tmp, name + ".json")
            with open(spec, "w", encoding="utf-8") as fh:
                json.dump(desc, fh)
            for cmd, extra in _runs(name):
                report = os.path.join(tmp, f"{cmd}-{name}.out")
                so, se = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                    code = cli.run([cmd, "--body", spec, "--out", report, *extra])
                items[f"cli/{cmd}/{name}"] = {
                    "exit": code,
                    "stderr": se.getvalue(),
                    "stdout": _stdout(so.getvalue()),
                    "report": _report(report),
                }
    bodies.update({name: body.make_body(desc) for name, desc in smooth_descriptors().items()})
    for name, K in bodies.items():
        for phi, psi in ROTATIONS:
            L = normalize.rotate(K, 0.0, phi, psi)
            key = f"{name}@{phi:.3g},{psi:.3g}"
            for s in (0.0, 0.5):
                v = normalize.fgh(K, normalize.BoxPoint(s, phi, psi), grid)
                items[f"fn/fgh/{key},s={s:g}"] = {"fgh": v.tolist()}
            r22, r23 = normalize.condition_residuals(L, grid)
            items[f"fn/condition_residuals/{key}"] = {"r22": r22.tolist(), "r23": r23.tolist()}
            if isinstance(K, body.SymmetricPolytope):
                items[f"fn/rotate/{key}"] = {"vertices": L.vertices.tolist()}
            measures = {
                "volume": quadrature.volume(L, grid),
                "octant_volumes": quadrature.octant_volumes(L, grid).tolist(),
            }
            try:
                measures["polar_pieces"] = quadrature.polar_piece_volumes(L, grid).tolist()
            except errors.MahlerLabError as e:
                measures["polar_pieces"] = {"error": type(e).__name__}
            items[f"fn/measures/{key}"] = measures
            ang = normalize.balance_angles(L, grid)
            items[f"fn/balance_angles/{key}"] = dataclasses.asdict(ang)
            items[f"fn/quarter_areas/{key}"] = {"qa": quadrature.quarter_areas(L).tolist()}
            cv = dataclasses.asdict(bound3d.curve_vectors(L))
            items[f"fn/curve_vectors/{key}"] = {k: v.tolist() for k, v in cv.items()}
            try:
                rep = bound3d.verify_chain(L, grid)
                fields = ("volume", "polar_volume", "piece_volumes", "polar_pieces")
                fields += ("section_areas", "projection_areas", "planar_products")
                chain = {k: np.asarray(getattr(rep, k)).tolist() for k in fields}
            except errors.MahlerLabError as e:
                chain = {"error": type(e).__name__}
            items[f"fn/verify_chain/{key}"] = chain
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (workloads.SEED, workloads.HELDOUT_SEED):
            for name, spec in workloads.WORKLOADS.items():
                for op in spec["prepare"](seed, os.path.join(tmp, f"{name}-{seed}")):
                    outcome, report = workloads.execute(op)[2:]
                    items[f"bench/{seed}/{name}/{op.name}"] = {"outcome": outcome, "report": _bench_report(report)}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(items, fh)
    print(f"{len(items)} items written to {out_path}")


def _leaves(x, path=""):
    """(path, value) for every number or string in a nested dict/list."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _leaves(v, f"{path}.{k}" if path else str(k))
    elif isinstance(x, list) and _numbers(x) is not None:
        yield path, x
    elif isinstance(x, list):
        for k, v in enumerate(x):
            yield from _leaves(v, f"{path}[{k}]")
    else:
        yield path, x


def _field(path):
    """The field a leaf belongs to: its path without list indices."""
    return path.split("[")[0]


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(v):
    """v as a list of floats if it is a number or a flat list of numbers, else None."""
    if _number(v):
        return [float(v)]
    if isinstance(v, list) and all(_number(x) for x in v):
        return [float(x) for x in v]
    return None


def _max_difference(xs, ys):
    """The largest |x - y|; inf where one side is NaN and the other is not."""
    d = 0.0
    for x, y in zip(xs, ys):
        if math.isnan(x) or math.isnan(y):
            d = d if math.isnan(x) and math.isnan(y) else math.inf
        else:
            d = max(d, abs(x - y))
    return d


def compare(before_path, after_path):
    with open(before_path, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(after_path, encoding="utf-8") as fh:
        b = json.load(fh)
    if list(a) != list(b):
        print("the dumps hold different items:", sorted(set(a) ^ set(b)))
        return 1
    # (group, field) -> [items, differing items, max abs difference, max
    # difference relative to the largest |value| of the field in its item]
    stats = {}
    texts = []
    for key in a:
        group = key.rsplit("/", 1)[0]
        la, lb = dict(_leaves(a[key])), dict(_leaves(b[key]))
        diffs = {}
        for path in sorted(set(la) | set(lb)):
            va, vb = la.get(path), lb.get(path)
            na, nb = _numbers(va), _numbers(vb)
            field = _field(path)
            if na is not None and nb is not None and len(na) == len(nb):
                d = _max_difference(na, nb)
                scale = max(abs(x) for x in na) if na else 0.0
                rel = d / scale if d and scale else d
                old = diffs.get(field, (0.0, 0.0))
                diffs[field] = (max(old[0], d), max(old[1], rel))
            elif va != vb:
                texts.append(f"{key} {path}: {va!r} -> {vb!r}")
            else:
                diffs.setdefault(field, (0.0, 0.0))
        for field, (d, rel) in diffs.items():
            s = stats.setdefault((group, field), [0, 0, 0.0, 0.0])
            s[0] += 1
            s[1] += d > 0.0
            s[2] = max(s[2], d)
            s[3] = max(s[3], rel)
    print(f"{'field':48s} {'differ':>9s}  max |difference|  relative")
    for (group, field), (n, nd, d, rel) in stats.items():
        print(f"{group + ' ' + field:48s} {nd:4d}/{n:<4d}  {d:<16.2g}  {rel:.2g}")
    print("exit codes, text and shapes:", "all equal" if not texts else "")
    for line in texts:
        print("  " + line)
    return 0


def main(argv):
    if len(argv) == 3 and argv[0] == "dump":
        dump(argv[1], argv[2])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
