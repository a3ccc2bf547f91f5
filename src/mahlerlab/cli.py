"""Command-line front-end: body files, subcommand dispatch, JSON/CSV reports."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .body import (
    ConvexBody3,
    Ellipsoid,
    LpBall,
    RadialField,
    SymmetricPolytope,
    TransformedBody,
    make_body,
    polar,
)
from .bound2d import Polygon2, normalize2
from .bound2d import polar2 as polar2d
from .bound2d import verify2 as verify2d
from .bound3d import LOWER_BOUND, verify_chain
from .errors import BadGridSize, InvalidBody, IoError, MahlerLabError, ParseError
from .normalize import _BoxField, find_normalization, winding
from .quadrature import make_grid, volume

COMMANDS = ("vp", "polar", "normalize", "verify", "winding", "sweep", "verify2")

EXIT_OK = 0
EXIT_UNKNOWN = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_BOUND = 4
EXIT_IO = 5


# ---------------------------------------------------------------------------
# body files


def _finite(text):
    """A JSON number (or NaN/Infinity constant) as a float; non-finite is a parse error."""
    x = float(text)
    if not math.isfinite(x):
        raise ParseError(f"body file number {text} is not finite")
    return x


def parse_body_file(path):
    """Load a body descriptor (JSON) into a 3D body or a 2D polygon."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh, parse_float=_finite, parse_int=_finite, parse_constant=_finite)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read body file {path}: {e}") from None
    if not isinstance(spec, dict):
        raise ParseError("body file must contain a JSON object")
    dim = spec.get("dim", 3)
    if dim not in (2, 3):
        raise ParseError(f"body file dim must be 2 or 3, got {dim!r}")
    try:
        if dim == 2:
            if "vertices" not in spec:
                raise ParseError("2D body needs a 'vertices' field")
            return Polygon2(spec["vertices"])
        return make_body(spec)
    except ParseError:
        raise
    except MahlerLabError as e:
        raise InvalidBody(str(e)) from None
    except (TypeError, ValueError) as e:
        raise ParseError(f"malformed body payload: {e}") from None


def describe_body(K):
    """Descriptor dict reproducing the body through parse_body_file."""
    if isinstance(K, Polygon2):
        return {"type": "polytope", "dim": 2, "vertices": K.vertices.tolist()}
    if isinstance(K, SymmetricPolytope):
        return {"type": "polytope", "dim": 3, "vertices": K.vertices.tolist()}
    if isinstance(K, LpBall):
        return {"type": "lp", "p": K.p, "axes": np.asarray(K.axes).tolist()}
    if isinstance(K, Ellipsoid):
        return {"type": "ellipsoid", "matrix": K.M.tolist()}
    if isinstance(K, RadialField):
        return {"type": "radial", "values": K.values.tolist()}
    if isinstance(K, TransformedBody):
        return {
            "type": "transformed",
            "base": describe_body(K.base),
            "matrix": K.map.matrix.tolist(),
        }
    raise InvalidBody(f"cannot serialize body of type {type(K).__name__}")


# ---------------------------------------------------------------------------
# reports


def emit_report(report, format: str, path: str) -> None:
    """Write a report deterministically (UTF-8, trailing newline).

    JSON reports are dicts serialized with sorted keys; CSV reports are
    {"header": [names], "rows": [[floats]]} with shortest round-trip floats.
    """
    if format == "json":
        # numpy arrays and scalars (np.bool_ too) as their Python values
        text = json.dumps(report, indent=2, sort_keys=True, default=lambda x: x.tolist()) + "\n"
    elif format == "csv":
        lines = [",".join(report["header"])]
        for row in report["rows"]:
            lines.append(",".join(repr(float(v)) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        raise IoError(f"unknown report format {format!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}") from None


# ---------------------------------------------------------------------------
# subcommands


def _fields(rep, *skip):
    """A result record as a report dict, without the fields named in skip."""
    return {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name not in skip}


def _need3(K) -> ConvexBody3:
    if not isinstance(K, ConvexBody3):
        raise InvalidBody("this command needs a 3D body")
    return K


def _cmd_vp(K, grid, args):
    if isinstance(K, Polygon2):
        a = K.area()
        ap = polar2d(K).area()
        prod, bound = a * ap, 8.0
    else:
        a = volume(K, grid)
        ap = volume(polar(K), grid)
        prod, bound = a * ap, LOWER_BOUND
    out = {"volume": a, "polar_volume": ap, "product": prod}
    print(f"volume        {a!r}")
    print(f"polar volume  {ap!r}")
    print(f"product       {prod!r}")
    code = EXIT_OK if prod >= bound - 1e-6 else EXIT_BOUND
    return out, "json", code


def _cmd_polar(K, grid, args):
    Kp = polar2d(K) if isinstance(K, Polygon2) else polar(K)
    out = describe_body(Kp)
    print(f"polar body of type {out['type']}")
    return out, "json", EXIT_OK


def _cmd_normalize(K, grid, args):
    K = _need3(K)
    res = find_normalization(K, grid)
    vol = volume(res.normalized_body, grid)
    resid = float(np.max(np.abs(res.residual23)))
    out = {
        "angles": list(res.angles),
        "shear": res.shear.matrix.tolist(),
        "residual23": np.asarray(res.residual23).tolist(),
        "fgh_norm": res.fgh_norm,
        "volume": vol,
    }
    print(f"angles        {res.angles}")
    print(f"max residual  {resid!r} (|K| = {vol!r})")
    code = EXIT_OK if resid <= 1e-6 * vol else EXIT_BOUND
    return out, "json", code


def _cmd_verify(K, grid, args):
    K = _need3(K)
    rep = verify_chain(K, grid)
    out = _fields(rep, "pairings_ok", "planar_ok")
    print(f"product       {rep.product!r}")
    print(f"slack         {rep.slack!r}")
    print(f"pairings      {rep.pairings}")
    print(f"applicable    {rep.applicable}  chain_ok {rep.chain_ok}")
    return out, "json", EXIT_OK if rep.chain_ok else EXIT_BOUND


def _cmd_winding(K, grid, args):
    K = _need3(K)
    trace = winding(K, 256, grid)
    out = {"header": ["t", "G", "H", "angle"], "rows": trace.samples}
    print(f"winding       {trace.winding}")
    print(f"samples       {len(trace.samples)}")
    return out, "csv", EXIT_OK


def _cmd_sweep(K, grid, args):
    K = _need3(K)
    n = args.n
    if n < 1:
        raise ParseError(f"--n must be at least 1, got {n}")
    svals = np.linspace(0.0, 1.0, n)
    avals = np.linspace(0.0, np.pi, n)
    points = [(s, phi, psi) for s in svals for phi in avals for psi in avals]
    rows = [[*x, *rec.fgh] for x, rec in zip(points, _BoxField(K, grid).many(points))]
    out = {"header": ["s", "phi", "psi", "F", "G", "H"], "rows": rows}
    print(f"sweep         {n}^3 = {len(rows)} samples")
    return out, "csv", EXIT_OK


def _cmd_verify2(K, grid, args):
    if not isinstance(K, Polygon2):
        raise InvalidBody("verify2 needs a 2D body file (dim: 2)")
    M, P = normalize2(K)
    rep = verify2d(P)
    out = {"map": M.tolist(), **_fields(rep, "s_points", "r_points")}
    print(f"product       {rep.product!r}")
    print(f"pairings      {rep.pairings}")
    return out, "json", EXIT_OK if rep.bound_ok else EXIT_BOUND


_DISPATCH = {
    "vp": _cmd_vp,
    "polar": _cmd_polar,
    "normalize": _cmd_normalize,
    "verify": _cmd_verify,
    "winding": _cmd_winding,
    "sweep": _cmd_sweep,
    "verify2": _cmd_verify2,
}


# ---------------------------------------------------------------------------
# argument handling


def _parse_grid(text: str):
    """The sphere grid named by NxM; a malformed or unsupported size is a parse error."""
    try:
        na, nb = (int(n) for n in text.lower().split("x"))
    except ValueError:
        raise ParseError(f"grid must look like 128x256, got {text!r}") from None
    try:
        return make_grid(na, nb)
    except BadGridSize as e:
        raise ParseError(f"grid {text!r}: {e}") from None


def _build_parser(command: str) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog=f"mahlerlab {command}", add_help=True)
    ap.add_argument("--body", required=True, help="body descriptor JSON file")
    ap.add_argument("--grid", default="128x256", help="sphere grid, NxM")
    ap.add_argument("--out", default=None, help="report output path")
    if command == "sweep":
        ap.add_argument("--n", type=int, default=9, help="sweep grid side")
    return ap


def run(argv) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    if not argv:
        print("usage: mahlerlab {%s} --body FILE [options]" % ",".join(COMMANDS))
        return EXIT_UNKNOWN
    command = argv[0]
    if command not in _DISPATCH:
        print(f"unknown command {command!r}; expected one of {COMMANDS}", file=sys.stderr)
        return EXIT_UNKNOWN
    try:
        args = _build_parser(command).parse_args(argv[1:])
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_PARSE
    t0 = time.perf_counter()
    try:
        grid = _parse_grid(args.grid)
        body = parse_body_file(args.body)
        out, fmt, code = _DISPATCH[command](body, grid, args)
        if args.out is not None:
            emit_report(out, fmt, args.out)
        print(f"done in {time.perf_counter() - t0:.3f}s (version {__version__})")
        return code
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidBody as e:
        print(f"invalid body: {e}", file=sys.stderr)
        return EXIT_INVALID
    except IoError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except MahlerLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
