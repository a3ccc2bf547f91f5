"""Benchmark of mahlerlab: seeded workloads, end-to-end metrics, traced per-layer run.

Run from the repository root:

    python3 mahlerbench/run.py --workload certify_smooth --seed 1 --seconds 35 --trace 0

Workloads are listed in workloads.WORKLOADS with their grids and op
definitions, and in BENCHMARK.json with the reason for each. The loop is
closed with one client: one op at a time in one process, BLAS pinned to
one thread before numpy is imported.

--trace 0 runs the workload's ops round-robin for --seconds and reports the
end-to-end metrics. An op whose first run ends in a listed refusal (see
workloads) is printed and leaves the loop, so the timed ops do not fail;
attempted and failed count the ops that stay. Times are process CPU times
(BLAS runs on one thread), which CPU steal on a shared host does not
inflate. throughput_ops_s is the
number of the workload's ops that passed their checks over the sum of their
median CPU times, and op_p50_s is the median of those medians. setup_s is
the CPU time from process start to the first timed op (imports,
environment block, corpus and descriptor files), the median over this
process and COLD_SETUPS - 1 fresh processes that stop at that point
(--setup-only), so first-call costs stay in every sample. The op tail, the
failed ratio and wall-clock figures are printed as well.

--trace 1 runs every op of the workload untraced, then the ops that were
not refused once more under the tracer, and reports the per-layer metrics,
the tracing overhead (traced minus untraced wall time of the calls), and
whether both passes wrote identical reports; the spans go to
.bench_out/trace-<workload>.jsonl.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The source under test
is <root>/src; without it the run exits with code 2.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = 1  # set before numpy is imported; at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
COLD_SETUPS = 3

WORKLOAD_NAMES = ("certify_smooth", "exact_polytope", "cli_screen")
# declared in BENCHMARK.json; op_p50_s, op_tail_s and failed_ratio are printed
# but not declared (see CHANGES.md)
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("peak_rss_mb", "MB"),
)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="print the setup CPU time as JSON and stop")
    return ap.parse_args(argv)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "mahlerlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "cpu_model": cpu or platform.processor() or None,
        "nproc": os.cpu_count(),
    }


def _tail(durations):
    """(percentile, value) of the slowest op that has ten slower ops beyond it."""
    n = len(durations)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(durations)[n - 11]


def _print_refused(ops, refused):
    for k, report in refused.items():
        print(f"refused {ops[k].name}: {report.decode()}")
    print(f"refused ops {len(refused)} of {len(ops)} (listed refusals; not timed, not counted)")


def _timed(ops, seconds, workloads):
    """One pass over the ops, then round-robin over those not refused until `seconds` have passed.

    Returns, per op kept, its (cpu, wall, outcome) runs, and per op refused
    on its first run, its report."""
    deadline = time.perf_counter() + seconds
    runs, refused = {}, {}
    for k, op in enumerate(ops):
        cpu, wall, outcome, report = workloads.execute(op)
        if outcome == workloads.REFUSED:
            refused[k] = report
        else:
            runs[k] = [(cpu, wall, outcome)]
    kept = list(runs)
    i = 0
    while time.perf_counter() < deadline:
        k = kept[i % len(kept)]
        cpu, wall, outcome, _ = workloads.execute(ops[k])
        runs[k].append((cpu, wall, outcome))
        i += 1
    return list(runs.values()), refused


def _cold_setup(args) -> float:
    """Setup CPU time of a fresh process that stops before the first op."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _print_tail(name, durations):
    tail = _tail(durations)
    if tail is None:
        print(f"{name:<22} n/a ({len(durations)} ops; a tail needs more than 10)")
    else:
        print(f"{name:<22} {tail[1]:.6g} s (p{tail[0]:.4g} of {len(durations)} ops)")


def _run_untraced(ops, seconds, setup_s, workloads):
    runs, refused = _timed(ops, seconds, workloads)
    _print_refused(ops, refused)
    cost = [statistics.median(cpu for cpu, _, _ in op_runs) for op_runs in runs]
    passed_ops = sum(all(o == workloads.PASS for _, _, o in op_runs) for op_runs in runs)
    flat = [r for op_runs in runs for r in op_runs]
    outcomes = [o for _, _, o in flat]
    failed = outcomes.count(workloads.FAIL)
    wall = sum(w for _, w, _ in flat)
    values = {
        "setup_s": setup_s,
        "throughput_ops_s": passed_ops / sum(cost),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, unit in END_TO_END:
        print(f"{name:<22} {values[name]:.6g} {unit}")
    print(f"{'op_p50_s':<22} {statistics.median(cost):.6g} s")
    _print_tail("op_tail_s", [cpu for cpu, _, _ in flat])
    print(f"{'failed_ratio':<22} {failed / len(outcomes):.6g} 1 ({failed} of {len(outcomes)})")
    print(f"{'wall_throughput_ops_s':<22} {outcomes.count(workloads.PASS) / wall:.6g} ops/s (over {wall:.4g} s)")
    print(f"{'wall_op_p50_s':<22} {statistics.median(w for _, w, _ in flat):.6g} s")
    _print_tail("wall_op_tail_s", [w for _, w, _ in flat])
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}


def _run_traced(ops, args, env, workloads):
    import tracer as tracing

    plain = [workloads.execute(op) for op in ops]
    refused = {k: r[3] for k, r in enumerate(plain) if r[2] == workloads.REFUSED}
    _print_refused(ops, refused)
    kept = [k for k in range(len(ops)) if k not in refused]
    untraced_wall = sum(plain[k][1] for k in kept)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for k in kept:
            tracer.op = k
            traced.append(workloads.execute(ops[k]))
    finally:
        tracer.uninstall()
    traced_wall = sum(r[1] for r in traced)
    metrics = tracer.metrics(len(kept))
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    identical = all(plain[k][3] == r[3] for k, r in zip(kept, traced))
    bad = sum(r[2] == workloads.FAIL for r in plain + traced)
    failed = sum(r[2] != workloads.PASS for r in traced)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}.jsonl"
    header = {"workload": args.workload, "seed": args.seed, "ops": len(kept), "refused": len(refused), "env": env}
    tracer.write(trace_path, header)
    for name, unit in tracing.PER_LAYER:
        print(f"{name:<38} {metrics[name]['value']:.6g} {unit}")
    print(f"untraced {untraced_wall:.4f} s, traced {traced_wall:.4f} s over {len(kept)} ops")
    print(f"reports identical traced vs untraced: {identical}; {len(tracer.spans)} spans in {trace_path.name}")
    return {"correct": bad == 0 and identical, "attempted": len(kept), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mahlerlab" / "__init__.py").is_file():
        print(f"error: no mahlerlab source under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mahlerlab

    if Path(mahlerlab.__file__).resolve().parent != (SRC / "mahlerlab").resolve():
        print(f"error: mahlerlab imported from {mahlerlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    env = _environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    provenance = {
        "seed": args.seed,
        "development_seed": workloads.SEED,
        "heldout_seed": workloads.HELDOUT_SEED,
        "grid": spec["grid"],
        "op": spec["op"],
        "concurrency": 1,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        ops = spec["prepare"](args.seed, str(workdir))
        setup_cpu, setup_wall = time.process_time(), time.perf_counter() - _T0
        if args.setup_only:
            result = {"setup_s": setup_cpu}
        elif args.trace:
            result = _run_traced(ops, args, env, workloads)
        else:
            cold = [setup_cpu] + [_cold_setup(args) for _ in range(COLD_SETUPS - 1)]
            print(f"setup CPU s per process {[round(c, 4) for c in cold]}; "
                  f"this one {setup_wall:.4f} s wall from the script's first line")
            result = _run_untraced(ops, args.seconds, statistics.median(cold), workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
