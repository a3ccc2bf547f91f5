"""The package surface: its exports resolve, and the scripts that import it run."""

import importlib
import json
import os
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
