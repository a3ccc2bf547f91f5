"""Span recorder for the traced benchmark run, one layer per mahlerlab module.

`Tracer.install` wraps the public functions of each layer module, every
binding of them that another mahlerlab module imported (for example
`mahlerlab.normalize.octant_volumes`), and the evaluators and constructors
of the body classes. Each call records a span: name, start, end, parent span
and op id. Spans stay in memory until `write`; `uninstall` restores the
originals. The run is single-threaded, so spans nest strictly and a span's
self time is its duration minus that of its children.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("body", "quadrature", "planar", "normalize", "bound3d", "bound2d", "cli")

# body evaluators and the point counter each one feeds; radial_many is the
# reciprocal gauge, so its points count as gauge points
_EVALUATORS = {
    "gauge_many": "body.gauge_points",
    "radial_many": "body.gauge_points",
    "lambda_many": "body.lambda_points",
    "support_many": "body.support_points",
}

_MEASURES = frozenset(
    f"quadrature.{name}"
    for name in ("volume", "octant_volumes", "polar_piece_volumes", "quarter_areas", "plane_measures")
)

# every traced run reports all of these, zero where a layer is idle
PER_LAYER = (
    ("normalize.field_evals", "count"),
    ("normalize.field_evals_per_op", "count/op"),
    ("normalize.balance_angles.self_s", "s"),
    ("normalize.find_normalization.self_s", "s"),
    ("normalize.winding.calls", "count"),
    ("normalize.winding.self_s", "s"),
    ("normalize.winding.samples", "count"),
    ("normalize.self_s", "s"),
    ("quadrature.wedge_volume.calls", "count"),
    ("quadrature.wedge_volume.self_s", "s"),
    ("quadrature.octant_volumes.calls", "count"),
    ("quadrature.octant_volumes.self_s", "s"),
    ("quadrature.polar_piece_volumes.calls", "count"),
    ("quadrature.polar_piece_volumes.self_s", "s"),
    ("quadrature.quarter_areas.calls", "count"),
    ("quadrature.plane_measures.calls", "count"),
    ("quadrature.volume.calls", "count"),
    ("quadrature.make_grid.calls", "count"),
    ("quadrature.make_grid.self_s", "s"),
    ("quadrature.self_s", "s"),
    ("planar.clip_halfplane.calls", "count"),
    ("planar.halfspaces_to_polygon.calls", "count"),
    ("planar.self_s", "s"),
    ("bound3d.verify_chain.calls", "count"),
    ("bound3d.verify_chain.self_s", "s"),
    ("bound3d.curve_vectors.self_s", "s"),
    ("bound3d.test_points.self_s", "s"),
    ("bound3d.measure_calls_per_chain", "count/chain"),
    ("bound3d.self_s", "s"),
    ("body.gauge_points", "count"),
    ("body.lambda_points", "count"),
    ("body.support_points", "count"),
    ("body.radial.lambda_points", "count"),
    ("body.construct.calls", "count"),
    ("body.construct.self_s", "s"),
    ("body.polar.calls", "count"),
    ("body.self_s", "s"),
    ("cli.run.calls", "count"),
    ("cli.parse_body_file.self_s", "s"),
    ("cli.emit_report.self_s", "s"),
    ("cli.emit_report.bytes", "bytes"),
    ("cli.self_s", "s"),
    ("bound2d.normalize2.self_s", "s"),
    ("bound2d.verify2.self_s", "s"),
    ("bound2d.self_s", "s"),
    *((f"{layer}.errors", "count") for layer in ("body", "quadrature", "normalize", "bound3d", "bound2d", "cli")),
    ("trace.overhead_s", "s"),
)

# span record layout
_ID, _KEY, _NAME, _LAYER, _PARENT, _OP, _START, _END, _CHILD = range(9)


class Tracer:
    """In-memory span recorder; install, run ops with `op` set, uninstall."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.counts = defaultdict(int)
        self._stack = []
        self._chain_depth = 0
        self._patched = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        from mahlerlab.errors import MahlerLabError

        self._error_type = MahlerLabError
        package = [m for n, m in sys.modules.items() if n == "mahlerlab" or n.startswith("mahlerlab.")]
        for layer in LAYERS:
            module = sys.modules[f"mahlerlab.{layer}"]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(fn, f"{layer}.{name}", layer)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, attr, wrapper)
        body = sys.modules["mahlerlab.body"]
        for cls in list(vars(body).values()):
            if not (inspect.isclass(cls) and issubclass(cls, body.ConvexBody3)):
                continue
            for meth in (*_EVALUATORS, "__init__"):
                if meth in vars(cls):
                    key = "body.construct" if meth == "__init__" else f"body.{meth}"
                    wrapper = self._wrap(
                        vars(cls)[meth], key, "body", f"body.{cls.__name__}.{meth}", _EVALUATORS.get(meth)
                    )
                    self._patch(cls, meth, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, key, layer, name=None, points=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        error_type = self._error_type
        name = name or key
        is_measure = key in _MEASURES
        is_chain = key == "bound3d.verify_chain"
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if points is not None and (parent is None or parent[_LAYER] != "body"):
                n = np.size(args[1]) // 3
                counts[points] += n
                if points == "body.lambda_points" and type(args[0]).__name__ == "RadialField":
                    counts["body.radial.lambda_points"] += n
            if is_measure and tracer._chain_depth:
                counts["bound3d.measure_calls_in_chains"] += 1
            if is_chain:
                tracer._chain_depth += 1
            rec = [len(spans), key, name, layer, parent, tracer.op, 0.0, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec)
            rec[_START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except error_type:
                if parent is None or parent[_LAYER] != layer:
                    counts[f"{layer}.errors"] += 1
                raise
            finally:
                rec[_END] = end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += end - rec[_START]
                if is_chain:
                    tracer._chain_depth -= 1
            if key == "normalize.winding":
                counts["normalize.winding.samples"] += len(out.samples)
            elif key == "cli.emit_report":
                path = kwargs["path"] if "path" in kwargs else args[2]
                counts["cli.emit_report.bytes"] += os.path.getsize(path)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ------------------------------------------------------
    def metrics(self, n_ops: int) -> dict:
        """Every PER_LAYER metric except trace.overhead_s, which the caller measures."""
        calls = defaultdict(int)
        own = defaultdict(float)
        for rec in self.spans:
            t = rec[_END] - rec[_START] - rec[_CHILD]
            calls[rec[_KEY]] += 1
            own[rec[_KEY]] += t
            own[rec[_LAYER]] += t
        chains = calls["bound3d.verify_chain"]
        special = {
            "normalize.field_evals": calls["normalize.balance_angles"],
            "normalize.field_evals_per_op": calls["normalize.balance_angles"] / max(n_ops, 1),
            "bound3d.measure_calls_per_chain": self.counts["bound3d.measure_calls_in_chains"] / chains if chains else 0.0,
        }
        out = {}
        for metric, unit in PER_LAYER:
            if metric == "trace.overhead_s":
                continue
            if metric in special:
                value = special[metric]
            elif metric.endswith(".calls"):
                value = calls[metric[: -len(".calls")]]
            elif metric.endswith(".self_s"):
                value = own[metric[: -len(".self_s")]]
            else:
                value = self.counts[metric]
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path, header: dict) -> None:
        """JSON lines: the header, then [id, name, parent, op, start, end] per span."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.spans:
                parent = rec[_PARENT][_ID] if rec[_PARENT] is not None else None
                fh.write(
                    json.dumps([rec[_ID], rec[_NAME], parent, rec[_OP], rec[_START] - t0, rec[_END] - t0]) + "\n"
                )
