import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mahlerlab import errors
from mahlerlab.bound2d import (
    Polygon2,
    normalize2,
    polar2,
    verify2,
)
from mahlerlab.bound2d import _quadrant_gap
from mahlerlab.planar import dual_vertices2, shoelace
from oracles import bisect, equality_family


def square2():
    return Polygon2([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def random_polygon(rng, pairs=4):
    while True:
        pts = rng.standard_normal((pairs, 2))
        v = oracles.hull2(np.vstack([pts, -pts]))
        if len(v) >= 4:
            return Polygon2(v)


def regular_gon(n):
    t = np.arange(n) * (2 * math.pi / n)
    return Polygon2(np.stack([np.cos(t), np.sin(t)], axis=1))


class TestPolygon2:
    def test_rejects_asymmetric(self):
        with pytest.raises(errors.NotSymmetric):
            Polygon2([[1, 0], [0, 1], [-1, 0], [0, -2]])

    @pytest.mark.parametrize("offset,symmetric", [(5e-6, False), (1e-10, True)])
    def test_symmetry_tolerance_is_absolute(self, offset, symmetric):
        # a vertex and its antipode may differ by 1e-9 of the largest
        # coordinate, with no relative slack on top
        v = [[1.0 + offset, 0.0], [0.3, 1.0], [-1.0, 0.0], [-0.3, -1.0]]
        if symmetric:
            assert len(Polygon2(v).vertices) == 4
        else:
            with pytest.raises(errors.NotSymmetric):
                Polygon2(v)

    def test_rejects_odd_count(self):
        with pytest.raises((errors.NotSymmetric, errors.DegenerateBody)):
            Polygon2([[1, 0], [0, 1], [-1, -1], [0, -1], [1, -1], [-1, 1]][:5])

    def test_rejects_flat(self):
        with pytest.raises(errors.DegenerateBody):
            Polygon2([[1, 0], [2, 0], [-1, 0], [-2, 0]])

    def test_scale_extremes(self):
        # the shape checks run on the rescaled vertices, so no product overflows
        with pytest.raises(errors.DegenerateBody):
            Polygon2(1e200 * np.array([[1, 0], [0, 1], [-1, 0], [0, -1]]))
        with pytest.raises(errors.DegenerateBody):
            Polygon2(1e-200 * np.array([[1, 0], [0, 1], [-1, 0], [0, -1]]))
        with pytest.raises(errors.DegenerateBody):
            Polygon2(np.zeros((4, 2)))
        P = Polygon2(1e100 * square2().vertices)
        assert P.area() == pytest.approx(4e200, rel=1e-15)
        assert P.area() * polar2(P).area() == pytest.approx(8.0, rel=1e-15)

    def test_ccw_and_canonical_start(self):
        P = Polygon2([[1, -1], [1, 1], [-1, 1], [-1, -1]])  # clockwise input
        assert shoelace(P.vertices) > 0
        assert tuple(P.vertices[0]) == (-1.0, -1.0)

    def test_gauge_support(self):
        P = square2()
        assert P.gauge((0.5, 0.0)) == pytest.approx(0.5, abs=1e-14)
        assert P.support((1.0, 1.0)) == pytest.approx(2.0, abs=1e-14)


class TestDualVertex2:
    def test_axes(self):
        assert np.allclose(dual_vertices2((1.0, 0.0), (0.0, 1.0))[0], (1.0, 1.0))

    def test_random_pairs(self):
        rng = np.random.default_rng(90)
        for _ in range(20):
            p, q = rng.standard_normal((2, 2))
            if abs(p[0] * q[1] - p[1] * q[0]) < 1e-6:
                continue
            v = dual_vertices2(p, q)[0]
            assert abs(v @ p - 1.0) < 1e-12
            assert abs(v @ q - 1.0) < 1e-12

    def test_collinear(self):
        with pytest.raises(errors.CollinearPoints):
            dual_vertices2((1.0, 2.0), (2.0, 4.0))

    def test_rows_match_one_pair_case(self):
        p, q = np.random.default_rng(91).standard_normal((2, 30, 2))
        v = dual_vertices2(p, q)
        for k in range(len(p)):
            assert v[k].tobytes() == dual_vertices2(p[k], q[k])[0].tobytes()
            det = p[k, 0] * q[k, 1] - p[k, 1] * q[k, 0]
            want = np.array([q[k, 1] - p[k, 1], p[k, 0] - q[k, 0]]) / det
            assert v[k].tobytes() == want.tobytes()
        q[7] = 2.0 * p[7]
        with pytest.raises(errors.CollinearPoints):
            dual_vertices2(p, q)


class TestPolar2:
    def test_square_to_diamond(self):
        D = polar2(square2())
        want = Polygon2([[1, 0], [0, 1], [-1, 0], [0, -1]])
        assert np.allclose(D.vertices, want.vertices, atol=1e-12)

    def test_equality_family_polar(self):
        for a in (0.0, 0.3, 0.7, 1.0):
            K, Kp = equality_family(a)
            assert np.allclose(polar2(K).vertices, Kp.vertices, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), pairs=st.integers(2, 8))
    def test_involution(self, seed, pairs):
        P = random_polygon(np.random.default_rng(seed), pairs)
        PP = polar2(polar2(P))
        assert np.allclose(PP.vertices, P.vertices, atol=1e-10 * np.abs(P.vertices).max())


class TestBisect:
    @pytest.mark.parametrize("steps", [1, 10, 52])
    def test_bracket_width(self, steps):
        # on a dyadic interval every midpoint is exact, so the final midpoint
        # sits half a bracket (hi - lo) / 2**steps from the end it moved to
        half = 4.0 / 2.0 ** (steps + 1)
        assert bisect(lambda t: True, -1.0, 3.0, steps) == 3.0 - half
        assert bisect(lambda t: False, -1.0, 3.0, steps) == -1.0 + half
        root = bisect(lambda t: t < 0.3, -1.0, 3.0, steps)
        assert abs(root - 0.3) <= half

    def test_matches_hand_written_loop(self):
        pred = lambda t: math.atan(t) < 0.7
        lo, hi = 0.0, math.pi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if pred(mid):
                lo = mid
            else:
                hi = mid
        assert bisect(pred, 0.0, math.pi, 60) == 0.5 * (lo + hi)


class TestNormalize2:
    def test_square_identity(self):
        M, Q = normalize2(square2())
        assert np.allclose(M, np.eye(2), atol=1e-12)
        assert np.allclose(Q.vertices, square2().vertices, atol=1e-12)

    def test_rotated_square(self):
        P = square2().transformed(
            np.array([[math.cos(math.pi / 6), -math.sin(math.pi / 6)],
                      [math.sin(math.pi / 6), math.cos(math.pi / 6)]])
        )
        M, Q = normalize2(P)
        a1 = shoelace(oracles.clip_quadrant(Q.vertices, 1, 1))
        a2 = shoelace(oracles.clip_quadrant(Q.vertices, -1, 1))
        assert abs(a1 - a2) < 1e-10 * Q.area()
        assert Q.gauge((1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
        assert Q.gauge((0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_two_polygons_per_call(self, monkeypatch):
        # Brent's steps turn the checked vertex array; only the turned and the
        # scaled polygon are built and checked
        polygons = [random_polygon(np.random.default_rng(seed), pairs) for seed, pairs in ((0, 2), (1, 3), (2, 6))]
        calls = []
        init = Polygon2.__init__

        def counted(self, vertices):
            calls.append(len(vertices))
            init(self, vertices)

        monkeypatch.setattr(Polygon2, "__init__", counted)
        for P in polygons:
            calls.clear()
            normalize2(P)
            assert 1 <= len(calls) <= 2

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_hexagon_balanced(self, seed):
        P = random_polygon(np.random.default_rng(seed), pairs=3)
        _, Q = normalize2(P)
        a1 = float(oracles.frac_shoelace(oracles.clip_quadrant(Q.vertices, 1, 1)))
        a2 = float(oracles.frac_shoelace(oracles.clip_quadrant(Q.vertices, -1, 1)))
        assert abs(a1 - a2) < 1e-9 * Q.area()


class TestVerify2:
    def test_square(self):
        rep = verify2(square2())
        assert rep.product == pytest.approx(8.0, abs=1e-12)
        assert rep.pairings[0] == pytest.approx(1.0, abs=1e-12)
        assert rep.pairings[1] == pytest.approx(1.0, abs=1e-12)
        assert rep.bound_ok

    def test_equality_family_values(self):
        K, _ = equality_family(0.3)
        _, Q = normalize2(K)
        rep = verify2(Q)
        assert rep.area == pytest.approx(4.0 / 1.09, abs=1e-10)
        assert rep.polar_area == pytest.approx(2.0 * 1.09, abs=1e-10)
        assert rep.product == pytest.approx(8.0, abs=1e-10)

    def test_regular_14gon(self):
        _, Q = normalize2(regular_gon(14))
        rep = verify2(Q)
        assert rep.bound_ok
        assert rep.product >= 8.0 - 1e-9
        assert rep.area == pytest.approx(
            abs(float(oracles.frac_shoelace(Q.vertices))), rel=1e-12
        )

    def test_unnormalized_rejected(self):
        P = square2().transformed(np.diag([2.0, 1.0]))
        with pytest.raises(errors.NotNormalized):
            verify2(P)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), pairs=st.integers(2, 12))
    def test_bound_and_memberships(self, seed, pairs):
        P = random_polygon(np.random.default_rng(seed), pairs)
        _, Q = normalize2(P)
        rep = verify2(Q)
        assert rep.bound_ok
        assert rep.product >= 8.0 - 1e-9
        Qp = polar2(Q)
        for s in rep.s_points:
            assert Q.gauge(s) <= 1.0 + 1e-10 or not np.any(s)
        for r in rep.r_points:
            assert Qp.gauge(r) <= 1.0 + 1e-10
        # near-equality forces a parallelogram
        if rep.product < 8.0 + 1e-6:
            assert len(Q.vertices) == 4

    def test_parallelogram_attains_eight(self):
        rng = np.random.default_rng(91)
        A = rng.standard_normal((2, 2))
        while abs(np.linalg.det(A)) < 0.3:
            A = rng.standard_normal((2, 2))
        _, Q = normalize2(square2().transformed(A))
        rep = verify2(Q)
        assert rep.product == pytest.approx(8.0, rel=1e-10)


class TestFanKernel:
    """The 2-D areas are fan sums over clipped edge segments; the reference
    is the Sutherland-Hodgman clip of the vertex list in the oracles."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), pairs=st.integers(2, 12))
    def test_shoelace_is_the_edge_fan_sum(self, seed, pairs):
        v = random_polygon(np.random.default_rng(seed), pairs).vertices
        x, y = v[:, 0], v[:, 1]
        x1, y1 = np.roll(x, -1), np.roll(y, -1)
        assert shoelace(v) == 0.5 * float(np.sum(x * y1 - x1 * y))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), pairs=st.integers(2, 12), turn=st.floats(0.0, 2.0 * math.pi))
    def test_quadrant_gap_matches_sutherland_hodgman(self, seed, pairs, turn):
        rot = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
        P = random_polygon(np.random.default_rng(seed), pairs).transformed(rot)
        v = P.vertices
        want = shoelace(oracles.clip_quadrant(v, 1, 1)) - shoelace(oracles.clip_quadrant(v, -1, 1))
        assert abs(_quadrant_gap(v) - want) <= 1e-12 * P.area()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), pairs=st.integers(2, 12))
    def test_verify2_pieces_match_sutherland_hodgman(self, seed, pairs):
        _, Q = normalize2(random_polygon(np.random.default_rng(seed), pairs))
        rep = verify2(Q)
        upper = oracles.clip_halfplane(polar2(Q).vertices, (rep.b, -1.0), 0.0)
        want = (
            shoelace(oracles.clip_halfplane(upper, (-1.0, rep.c), 0.0)),
            shoelace(oracles.clip_halfplane(upper, (1.0, -rep.c), 0.0)),
        )
        assert np.max(np.abs(np.subtract(rep.piece_areas, want))) <= 1e-12 * rep.polar_area


class TestEqualityFamily:
    @pytest.mark.parametrize("a,area,polar_area", [
        (0.0, 4.0, 2.0),
        (0.5, 3.2, 2.5),
        (1.0, 2.0, 4.0),
    ])
    def test_areas(self, a, area, polar_area):
        K, Kp = equality_family(a)
        assert K.area() == pytest.approx(area, abs=1e-12)
        assert Kp.area() == pytest.approx(polar_area, abs=1e-12)
        assert K.area() * Kp.area() == pytest.approx(8.0, abs=1e-12)

    def test_bad_parameter(self):
        with pytest.raises(errors.BadParameter):
            equality_family(-1.0)
        with pytest.raises(errors.BadParameter):
            equality_family(1.5)
