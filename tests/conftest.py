import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mahlerlab.body import (
    LinearMap3,
    LpBall,
    SymmetricPolytope,
    TransformedBody,
    cube,
)
from mahlerlab.quadrature import make_grid


@pytest.fixture(scope="session")
def grid():
    return make_grid(96, 192)


@pytest.fixture(scope="session")
def fine_grid():
    return make_grid(128, 256)


def random_symmetric_polytope(rng, pairs=10):
    pts = rng.standard_normal((pairs, 3))
    return SymmetricPolytope(np.vstack([pts, -pts]))


def random_lp_ball(rng):
    p = rng.uniform(1.5, 8.0)
    axes = rng.uniform(0.6, 1.6, size=3)
    return LpBall(p, axes)


def sheared_cube(rng):
    A = np.eye(3)
    A[0, 1], A[0, 2], A[1, 2] = rng.uniform(-0.6, 0.6, size=3)
    return cube().transformed(LinearMap3(A))


def perturbed_cube(rng, spread=0.15):
    A = np.eye(3) + spread * rng.standard_normal((3, 3))
    while abs(np.linalg.det(A)) < 0.4:
        A = np.eye(3) + spread * rng.standard_normal((3, 3))
    return cube().transformed(LinearMap3(A))


def random_smooth_body(rng, spread=0.25):
    p = rng.uniform(2.5, 4.5)
    axes = rng.uniform(0.7, 1.4, size=3)
    A = np.eye(3) + spread * rng.standard_normal((3, 3))
    while abs(np.linalg.det(A)) < 0.3:
        A = np.eye(3) + spread * rng.standard_normal((3, 3))
    return TransformedBody(LpBall(p, axes), LinearMap3(A))


def body_corpus(seed=0, n_polytopes=4, n_lp=3, n_sheared=2, n_smooth=2):
    """Deterministic mixed bag of test bodies."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_polytopes):
        out.append(random_symmetric_polytope(rng, pairs=int(rng.integers(4, 16))))
    for _ in range(n_lp):
        out.append(random_lp_ball(rng))
    for _ in range(n_sheared):
        out.append(sheared_cube(rng))
    for _ in range(n_smooth):
        out.append(random_smooth_body(rng))
    return out
