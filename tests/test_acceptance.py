"""End-to-end acceptance checks for the volume-product toolkit.

Each test pins one advertised guarantee: exact values on the extremal
polytopes, the sharp planar bound, quadrature accuracy on the ball, the
universal lower bound over a large random corpus, and the normalization
plus verification pipeline on smooth bodies.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    perturbed_cube,
    random_lp_ball,
    random_smooth_body,
    random_symmetric_polytope,
    sheared_cube,
)
from mahlerlab.body import LpBall, cross_polytope, cube, polar
from mahlerlab.bound2d import normalize2, verify2
from mahlerlab.bound3d import LOWER_BOUND, verify_chain
from mahlerlab.normalize import BoxPoint, find_normalization, symmetry_residuals, winding
from mahlerlab.quadrature import make_grid, volume, volume_product
from oracles import cone_inequality_check, detect_equality, equality_family, test_points as chain_points


@pytest.fixture(scope="module")
def lower_bound_corpus(grid):
    """200 random symmetric bodies with their volume products."""
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(80):
        K = random_symmetric_polytope(rng, pairs=int(rng.integers(4, 21)))
        out.append((K, volume_product(K, grid)))
    for _ in range(60):
        K = random_lp_ball(rng)
        out.append((K, volume_product(K, grid)))
    for _ in range(60):
        K = sheared_cube(rng)
        out.append((K, volume_product(K, grid)))
    return out


class TestExactExtremizers:
    def test_cube(self, grid):
        assert volume_product(cube(), grid) == pytest.approx(32.0 / 3.0, abs=1e-10)

    def test_cross_polytope(self, grid):
        assert volume_product(cross_polytope(), grid) == pytest.approx(
            32.0 / 3.0, abs=1e-10
        )


class TestPlanarSharpBound:
    @pytest.mark.parametrize("a", [0.0, 0.3, 0.7, 1.0])
    def test_family_values(self, a):
        K, _ = equality_family(a)
        _, Q = normalize2(K)
        rep = verify2(Q)
        assert rep.area == pytest.approx(4.0 / (1.0 + a * a), abs=1e-10)
        assert rep.polar_area == pytest.approx(2.0 * (1.0 + a * a), abs=1e-10)
        assert rep.product == pytest.approx(8.0, abs=1e-10)


class TestBallProduct:
    def test_accuracy_and_runtime(self):
        t0 = time.perf_counter()
        g = make_grid(128, 256)
        p = volume(LpBall(2.0), g) * volume(polar(LpBall(2.0)), g)
        elapsed = time.perf_counter() - t0
        assert p == pytest.approx((4.0 * math.pi / 3.0) ** 2, rel=1e-3)
        assert elapsed < 5.0


class TestLowerBound:
    def test_corpus_never_below(self, lower_bound_corpus):
        violations = [p for _, p in lower_bound_corpus if p < LOWER_BOUND - 1e-6]
        assert violations == []


@pytest.mark.slow
class TestNormalizationCertificate:
    def test_smooth_bodies(self, grid):
        rng = np.random.default_rng(77)
        for _ in range(20):
            K = random_smooth_body(rng)
            t0 = time.perf_counter()
            res = find_normalization(K, grid)
            vol = volume(res.normalized_body, grid)
            assert np.max(np.abs(res.residual23)) < 1e-6 * vol
            rep = verify_chain(res.normalized_body, grid)
            assert np.all(rep.planar_products >= 8.0 - 1e-5)
            assert rep.product >= LOWER_BOUND - 1e-5
            assert time.perf_counter() - t0 < 120.0


class TestSymmetryIdentities:
    def test_residual_table(self, grid):
        rng = np.random.default_rng(55)
        bodies = [
            random_smooth_body(rng),
            random_smooth_body(rng),
            random_lp_ball(rng),
            sheared_cube(rng),
            perturbed_cube(rng),
        ]
        for K in bodies:
            vol = volume(K, grid)
            for _ in range(10):
                pt = BoxPoint(
                    float(rng.uniform(0.05, 0.95)),
                    float(rng.uniform(0.1, math.pi - 0.1)),
                    float(rng.uniform(0.1, math.pi - 0.1)),
                )
                res = symmetry_residuals(K, pt, grid)
                worst = max(res.values())
                assert worst < 1e-6 * vol, (K, pt, res)


class TestOddWinding:
    def test_perturbed_cubes(self, grid):
        rng = np.random.default_rng(33)
        for _ in range(10):
            K = perturbed_cube(rng)
            w1 = winding(K, 64, grid).winding
            w2 = winding(K, 128, grid).winding
            assert w1 == w2
            assert w1 % 2 == 1


class TestConeInequality:
    def test_zero_violations(self):
        rng = np.random.default_rng(44)
        bodies = [
            cube(),
            cross_polytope(),
            random_symmetric_polytope(rng, pairs=8),
            random_lp_ball(rng),
            random_smooth_body(rng),
        ]
        for i, K in enumerate(bodies):
            chk = cone_inequality_check(K, trials=1000, seed=i)
            assert chk.violations == 0
            assert chk.worst_margin > -1e-6


class TestPairingInequality:
    def test_membership_and_pairings(self, grid):
        # the cross-polytope is excluded: every Lambda image of its polar
        # sits exactly on a coordinate plane, so the piece classification
        # rejects it as unstable by design
        rng = np.random.default_rng(66)
        bodies = [
            cube(),
            LpBall(2.0),
            perturbed_cube(rng),
            random_symmetric_polytope(rng, pairs=10),
            random_lp_ball(rng),
            sheared_cube(rng),
            random_smooth_body(rng),
        ]
        for K in bodies:
            S, R = chain_points(K, grid)
            pair = np.einsum("ij,ij->i", R, S)
            assert np.all(pair <= 1.0 + 1e-8)
            Kp = polar(K)
            for s, r in zip(S, R):
                if np.any(s):
                    assert K.gauge(s) <= 1.0 + 1e-6
                if np.any(r):
                    assert Kp.gauge(r) <= 1.0 + 1e-6


class TestEqualityDetection:
    def test_extremal_families(self):
        assert detect_equality(cube()) == "parallelepiped"
        assert detect_equality(cross_polytope()) == "cross_polytope_dual"

    def test_strictly_above_is_neither(self, lower_bound_corpus):
        for K, p in lower_bound_corpus:
            if p > LOWER_BOUND + 1e-3:
                assert detect_equality(K) == "neither"
