"""Run the zero search on a seeded corpus and count its field points.

Usage:
    python scripts/search_corpus.py --corpus acceptance|mixed [--grid NxM] [--first N]

`acceptance` is the 20 bodies of the acceptance test's normalization
certificate (random_smooth_body from default_rng(77)), at 96x192 by default.
`mixed` is 62 bodies at 32x64 by default, each group drawn in order with the
generators of the test suite: 20 random_smooth_body from default_rng(5), 20
perturbed_cube from default_rng(33), 10 sheared_cube from default_rng(86),
10 random_symmetric_polytope of 4 to 12 vertex pairs from default_rng(2024),
and the 2 descent bodies of the normalize tests.  `--first N` runs the
first N bodies only.

For each body it prints the field points of find_normalization (the rows
passed to normalize._field_rows), max |(F,G,H)| / |K| and max |r23| / |K| at
the result, how the search ended (`certified` below 1e-8 |K|, `fallback` for
a result at or above it, or `NoZeroFound`) and the CPU seconds; then the
totals.  mahlerlab is imported from PYTHONPATH, so two source trees are
compared by running the script once with each tree's src on PYTHONPATH.
Set OPENBLAS_NUM_THREADS=1 for both.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import perturbed_cube, random_smooth_body, random_symmetric_polytope, sheared_cube
from mahlerlab import normalize
from mahlerlab.body import SymmetricPolytope
from mahlerlab.errors import NoZeroFound
from mahlerlab.quadrature import make_grid, volume
from test_normalize import DESCENT_BODIES

DEFAULT_GRID = {"acceptance": "96x192", "mixed": "32x64"}


def _group(name, seed, n, make):
    rng = np.random.default_rng(seed)
    return [(f"{name}{i}", make(rng)) for i in range(n)]


def corpus(name):
    """(label, body) pairs of the named corpus, in drawing order."""
    if name == "acceptance":
        return _group("smooth", 77, 20, random_smooth_body)
    bodies = _group("smooth", 5, 20, random_smooth_body)
    bodies += _group("pcube", 33, 20, perturbed_cube)
    bodies += _group("sheared", 86, 10, sheared_cube)
    bodies += _group("poly", 2024, 10, lambda rng: random_symmetric_polytope(rng, pairs=int(rng.integers(4, 13))))
    for label, half in sorted(DESCENT_BODIES.items()):
        h = np.array(half)
        bodies.append((label, SymmetricPolytope(np.vstack([h, -h]))))
    return bodies


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--corpus", choices=sorted(DEFAULT_GRID), required=True)
    ap.add_argument("--grid", help="NxM (default: 96x192 for acceptance, 32x64 for mixed)")
    ap.add_argument("--first", type=int, help="run only the first N bodies")
    args = ap.parse_args(argv)
    n_beta, n_alpha = map(int, (args.grid or DEFAULT_GRID[args.corpus]).split("x"))
    grid = make_grid(n_beta, n_alpha)

    rows = []
    field_rows = normalize._field_rows

    def counted(K, mats, grid):
        rows.extend(mats)
        return field_rows(K, mats, grid)

    normalize._field_rows = counted
    ends = {"certified": 0, "fallback": 0, "NoZeroFound": 0}
    total_points, total_cpu = 0, 0.0
    print(f"{'body':<10} {'points':>7} {'|fgh|/|K|':>10} {'|r23|/|K|':>10} {'end':<12} {'cpu_s':>7}")
    for label, K in corpus(args.corpus)[: args.first]:
        vol = volume(K, grid)
        rows.clear()
        t0 = time.process_time()
        try:
            res = normalize.find_normalization(K, grid)
        except NoZeroFound:
            res = None
        cpu = time.process_time() - t0
        if res is None:
            end, fgh, r23 = "NoZeroFound", "-", "-"
        else:
            end = "certified" if res.fgh_norm < 1e-8 * vol else "fallback"
            fgh = f"{res.fgh_norm / vol:.2e}"
            r23 = f"{np.max(np.abs(res.residual23)) / vol:.2e}"
        ends[end] += 1
        total_points += len(rows)
        total_cpu += cpu
        print(f"{label:<10} {len(rows):>7} {fgh:>10} {r23:>10} {end:<12} {cpu:>7.2f}")
    counts = ", ".join(f"{k} {v}" for k, v in ends.items())
    print(f"total: {sum(ends.values())} bodies, {total_points} points, {counts}, {total_cpu:.1f} s CPU")


if __name__ == "__main__":
    main()
