"""The package surface: its exports resolve, and the scripts that import it run."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mahlerlab.body import cube

ROOT = Path(__file__).resolve().parents[1]


class TestExports:
    @pytest.mark.parametrize("module", ["mahlerlab", "mahlerlab.bound3d", "mahlerlab.bound2d"])
    def test_all_resolves(self, module):
        # a star import raises AttributeError on a name of __all__ that the module lacks
        namespace = {}
        exec(f"from {module} import *", namespace)
        assert set(importlib.import_module(module).__all__) <= set(namespace)


def _run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestScripts:
    def test_product_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run = _run_script("product_sweep.py", "--n", "2", "--out", str(out))
        assert run.returncode == 0, run.stderr
        assert "no violations" in run.stdout
        assert len(out.read_text().splitlines()) == 1 + 3 * 2

    def test_normalize_demo(self, tmp_path):
        spec = tmp_path / "cube.json"
        spec.write_text(json.dumps({"type": "polytope", "vertices": cube().vertices.tolist()}))
        run = _run_script("normalize_demo.py", "--body", str(spec), "--grid", "16x32")
        assert run.returncode == 0, run.stderr
        assert "chain_ok=True" in run.stdout

    def test_search_corpus(self):
        run = _run_script("search_corpus.py", "--corpus", "mixed", "--grid", "16x32", "--first", "3")
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert [line.split()[0] for line in lines[1:4]] == ["smooth0", "smooth1", "smooth2"]
        assert lines[-1].startswith("total: 3 bodies, ")

    def test_compare_trees(self, tmp_path):
        def differing(before, after):
            """{field line: differing items} of `compare`, and its last line."""
            run = _run_script("compare_trees.py", "compare", str(before), str(after))
            assert run.returncode == 0, run.stderr
            lines = run.stdout.splitlines()
            rows = {}
            for line in lines[1:-1]:
                m = re.fullmatch(r"(.*\S)\s+(\d+)/(\d+)\s+\S+\s+\S+", line)
                rows[m[1]] = int(m[2])
            return rows, lines[-1]

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run = _run_script("compare_trees.py", "dump", str(ROOT), str(a))
        assert run.returncode == 0, run.stderr
        rows, last = differing(a, a)
        assert rows and not any(rows.values())
        assert last == "exit codes, text and shapes: all equal"

        items = json.loads(a.read_text())
        bench = {k: v for k, v in items.items() if k.startswith("bench/")}
        assert {k.split("/")[2] for k in bench} == {"certify_smooth", "exact_polytope", "cli_screen"}
        assert {v["outcome"] for v in bench.values()} <= {"pass", "refused"}
        key = next(k for k in items if k.startswith("fn/fgh/"))
        items[key]["fgh"][1] += 1.0
        b.write_text(json.dumps(items))
        rows, last = differing(a, b)
        assert {field: n for field, n in rows.items() if n} == {"fn/fgh fgh": 1}
        assert last == "exit codes, text and shapes: all equal"
