"""Self-test of the benchmark.

Run from the repository root:

    python3 mahlerbench/selftest.py [--seed N]

Checks that BENCHMARK.json lists exactly the workloads and metrics the code
reports, and that two traced runs of each workload on the same seed report
correct (which includes traced reports being byte-identical to untraced
ones) and identical count metrics. Exits with code 1 on any mismatch.
"""

import argparse
import json
import subprocess
import sys

import run
import tracer

COUNT_UNITS = ("count", "count/op", "count/chain", "bytes")


def check_declaration() -> list:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    pairs = (
        ("workloads", [w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES)),
        ("end_to_end", [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)),
        ("per_layer", [(m["name"], m["unit"]) for m in spec["per_layer"]], list(tracer.PER_LAYER)),
    )
    for key, declared, emitted in pairs:
        if declared != emitted:
            problems.append(f"BENCHMARK.json {key} differs from the code: {declared} != {emitted}")
    return problems


def traced_result(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.ROOT / "mahlerbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_traces(workload: str, seed: int) -> list:
    first, second = traced_result(workload, seed), traced_result(workload, seed)
    problems = [f"{workload}: traced run {n} not correct" for n, r in ((1, first), (2, second)) if not r["correct"]]
    for name, m in first["metrics"].items():
        if m["unit"] in COUNT_UNITS and m["value"] != second["metrics"][name]["value"]:
            problems.append(f"{workload}: {name} {m['value']} != {second['metrics'][name]['value']}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    problems = check_declaration()
    for workload in run.WORKLOAD_NAMES:
        problems += check_traces(workload, args.seed)
        print(f"{workload}: traced twice on seed {args.seed}", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
