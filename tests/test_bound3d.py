import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import (
    body_corpus,
    random_smooth_body,
    random_symmetric_polytope,
    sheared_cube,
)
from mahlerlab import bound3d, normalize, quadrature
from mahlerlab.body import (
    ConvexBody3,
    LinearMap3,
    LpBall,
    RadialField,
    SymmetricPolytope,
    _table_units,
    cross_polytope,
    cube,
    polar,
)
from mahlerlab.bound3d import LOWER_BOUND, _dual_curve_vector, curve_vectors, verify_chain
from mahlerlab.normalize import find_normalization, rotate
from mahlerlab.quadrature import projection_areas
from oracles import (
    _is_parallelepiped,
    cone_inequality_check,
    cone_volume,
    curve_vector_between,
    detect_equality,
    section_polygon,
    test_points as chain_points,
)


class TestCurveVectors:
    def test_cube_body_side(self):
        cv = curve_vectors(cube())
        assert np.allclose(cv.d, (2.0, 0.0, 0.0), atol=1e-12)
        assert np.allclose(cv.e, (2.0, 0.0, 0.0), atol=1e-12)
        assert np.allclose(cv.f, (0.0, 2.0, 0.0), atol=1e-12)
        assert np.allclose(cv.h, (0.0, 0.0, 2.0), atol=1e-12)

    def test_cube_polar_side(self):
        cv = curve_vectors(cube())
        for v in (cv.d_p, cv.e_p):
            assert np.allclose(v, (1.0, 0.0, 0.0), atol=1e-10)
        for v in (cv.f_p, cv.g_p):
            assert np.allclose(v, (0.0, 1.0, 0.0), atol=1e-10)
        for v in (cv.h_p, cv.i_p):
            assert np.allclose(v, (0.0, 0.0, 1.0), atol=1e-10)

    def test_unconditional_pairs(self):
        cv = curve_vectors(LpBall(3.0, (1.0, 0.7, 1.3)))
        assert np.allclose(cv.d, cv.e, rtol=1e-10)
        assert np.allclose(cv.f, cv.g, rtol=1e-10)
        assert np.allclose(cv.h, cv.i, rtol=1e-10)

    def test_reversal_flips_sign(self):
        rng = np.random.default_rng(100)
        for K in (random_smooth_body(rng), random_symmetric_polytope(rng, pairs=8)):
            P = rng.standard_normal(3)
            Q = rng.standard_normal(3)
            P /= K.gauge(P)
            Q /= K.gauge(Q)
            fwd = _dual_curve_vector(K, P, Q)
            rev = _dual_curve_vector(K, Q, P)
            assert np.allclose(fwd, -rev, atol=1e-8 * max(np.abs(fwd).max(), 1.0))

    def test_projection_consistency(self):
        # first components of the dual d and e vectors add up to the shadow
        # of the polar on the x-plane
        for K in body_corpus(seed=5, n_polytopes=2, n_lp=1, n_sheared=1, n_smooth=1):
            cv = curve_vectors(K)
            P = projection_areas(polar(K))
            assert cv.d_p[0] + cv.e_p[0] == pytest.approx(P[0], rel=1e-6)
            assert cv.f_p[1] + cv.g_p[1] == pytest.approx(P[1], rel=1e-6)
            assert cv.h_p[2] + cv.i_p[2] == pytest.approx(P[2], rel=1e-6)


class TestPolytopeCurveVectors:
    """The polar curve of a polytope arc, read off the section polygon,
    against the sampled polyline of the oracle."""

    def _corpus(self):
        rng = np.random.default_rng(120)
        out = [cube(), cross_polytope()]
        out += [sheared_cube(rng) for _ in range(3)]
        out += [random_symmetric_polytope(rng, pairs=int(rng.integers(4, 16))) for _ in range(6)]
        out += [rotate(K, *rng.uniform(0.0, 2.0 * math.pi, 3)) for K in out[:6]]
        return out

    def test_axis_arcs_match_sampled_polyline(self):
        for j, K in enumerate(self._corpus()):
            scale = max(float(np.abs(K.vertices).max()), 1.0)
            A, B, C = bound3d._axis_points(K)
            for P, Q in ((B, C), (C, -B), (C, A), (A, -C), (A, B), (B, -A)):
                got = _dual_curve_vector(K, P, Q)
                want = oracles.sampled_dual_curve_vector(K, P, Q)
                assert np.max(np.abs(got - want)) <= 1e-12 * scale, f"body {j}"

    def test_random_arcs_match_sampled_polyline(self):
        rng = np.random.default_rng(121)
        corpus = self._corpus()
        for j in range(30):
            K = corpus[j % len(corpus)]
            scale = max(float(np.abs(K.vertices).max()), 1.0)
            P, Q = rng.standard_normal((2, 3))
            P /= K.gauge(P)
            Q /= K.gauge(Q)
            got = _dual_curve_vector(K, P, Q)
            want = oracles.sampled_dual_curve_vector(K, P, Q)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, f"arc {j}"
            assert np.max(np.abs(got + _dual_curve_vector(K, Q, P))) <= 1e-12 * scale

    def test_one_contact_map_call_per_curve(self, monkeypatch):
        calls = []
        lambda_many = SymmetricPolytope.lambda_many

        def counted(self, pts):
            calls.append(len(pts))
            return lambda_many(self, pts)

        monkeypatch.setattr(SymmetricPolytope, "lambda_many", counted)
        curve_vectors(random_symmetric_polytope(np.random.default_rng(122), pairs=9))
        assert len(calls) == 6

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), pairs=st.integers(4, 15), turn=st.booleans())
    def test_polar_shadow_identity(self, seed, pairs, turn):
        # d_p + e_p, f_p + g_p and h_p + i_p trace half the polar's boundary
        # seen along an axis, so their axis components are its exact shadows
        rng = np.random.default_rng(seed)
        K = random_symmetric_polytope(rng, pairs=pairs)
        if turn:
            K = rotate(K, *rng.uniform(0.0, 2.0 * math.pi, 3))
        self._check_shadows(K)

    @pytest.mark.xfail(
        strict=True,
        reason="lowest-facet contact map at axis points that are vertices (ROADMAP item 7)",
    )
    def test_polar_shadow_identity_cross_polytope(self):
        self._check_shadows(cross_polytope())

    @staticmethod
    def _check_shadows(K):
        cv = curve_vectors(K)
        P = projection_areas(polar(K))
        assert cv.d_p[0] + cv.e_p[0] == pytest.approx(P[0], rel=1e-10)
        assert cv.f_p[1] + cv.g_p[1] == pytest.approx(P[1], rel=1e-10)
        assert cv.h_p[2] + cv.i_p[2] == pytest.approx(P[2], rel=1e-10)


class TestTestPoints:
    def test_cube_points(self, grid):
        S, R = chain_points(cube(), grid)
        assert np.allclose(S[0], (1.0, 1.0, 1.0), atol=1e-9)
        assert np.allclose(R[0], (1.0 / 3, 1.0 / 3, 1.0 / 3), atol=1e-12)
        assert cube().gauge(S[0]) <= 1.0 + 1e-9
        assert cross_polytope().gauge(R[0]) == pytest.approx(1.0, abs=1e-10)

    def test_ball_symmetry(self, grid):
        S, R = chain_points(LpBall(2.0), grid)
        assert np.allclose(S[0], S[0][0] * np.ones(3), rtol=1e-6)
        assert LpBall(2.0).gauge(S[0]) < 1.0

    def test_pairing_bound_spot_check(self, grid):
        rng = np.random.default_rng(101)
        K = random_smooth_body(rng)
        cv = curve_vectors(K)
        from mahlerlab.quadrature import polar_piece_volumes

        bound = 6.0 * polar_piece_volumes(K, grid)[0]
        Kp = polar(K)
        us = rng.standard_normal((1000, 3))
        us /= np.linalg.norm(us, axis=1)[:, None]
        ys = us * (rng.random(1000) ** (1 / 3) / Kp.gauge_many(us))[:, None]
        vals = ys @ (cv.d_p + cv.f_p + cv.h_p)
        assert np.max(vals) <= bound * (1.0 + 1e-6)

    def test_membership_and_pairings_corpus(self, grid):
        for K in body_corpus(seed=6, n_polytopes=2, n_lp=1, n_sheared=1, n_smooth=1):
            S, R = chain_points(K, grid)
            pair = np.einsum("ij,ij->i", R, S)
            assert np.all(pair <= 1.0 + 1e-8)


class TestVerifyChain:
    def test_cube_tight(self, grid):
        rep = verify_chain(cube(), grid)
        assert rep.product == pytest.approx(32.0 / 3.0, abs=1e-12)
        assert abs(rep.slack) < 1e-12
        assert np.allclose(rep.planar_products, 8.0, atol=1e-9)
        assert np.allclose(rep.pairings, 1.0, atol=1e-9)
        assert rep.applicable and rep.chain_ok

    def test_ball(self, grid):
        rep = verify_chain(LpBall(2.0), grid)
        assert rep.product == pytest.approx((4 * math.pi / 3) ** 2, rel=1e-3)
        assert rep.applicable and rep.chain_ok
        assert rep.slack > 6.0

    def test_nine_quarter_inequality(self, grid):
        for K in body_corpus(seed=7, n_polytopes=2, n_lp=1, n_sheared=1, n_smooth=1):
            rep = verify_chain(K, grid)
            assert rep.pairings_ok
            assert rep.nine_quarter >= rep.sum_products - 1e-8 * rep.product

    def test_unnormalized_not_applicable(self, grid):
        K = rotate(sheared_cube(np.random.default_rng(102)), 0.5, 1.1, 2.0)
        K = K.transformed(LinearMap3(np.diag([1.3, 0.8, 1.0])))
        rep = verify_chain(K, grid)
        assert not rep.applicable
        assert rep.pairings_ok

    def test_normalized_polytope_chain(self, grid):
        K = sheared_cube(np.random.default_rng(103))
        res = find_normalization(K, grid)
        rep = verify_chain(res.normalized_body, grid)
        assert rep.applicable
        assert rep.chain_ok
        assert np.all(rep.planar_products >= 8.0 - 1e-5)
        assert rep.product >= LOWER_BOUND - 1e-5

    def test_section_projection_duality(self, grid):
        # the central section of K and the shadow of the polar are polar
        # polygons of each other
        from mahlerlab.bound2d import Polygon2, polar2

        K = random_symmetric_polytope(np.random.default_rng(104), pairs=9)
        Kp = polar(K)
        for plane in (1, 2, 3):
            sec = Polygon2(section_polygon(K, plane))
            shadow = Polygon2(oracles.projection_polygon(Kp, plane))
            dual = polar2(sec)
            d = max(
                np.min(np.linalg.norm(shadow.vertices - v, axis=1))
                for v in dual.vertices
            )
            assert d < 1e-9 * np.abs(shadow.vertices).max()

    def test_measures_computed_once(self, grid, monkeypatch):
        # every binding the chain could reach, in bound3d, normalize and quadrature
        calls = {}
        args = {}
        names = ("octant_volumes", "_polar_pieces", "quarter_areas", "polar", "section_areas", "projection_areas")
        for module in (bound3d, normalize, quadrature):
            for name in names:
                if hasattr(module, name):
                    fn = getattr(module, name)

                    def counted(*a, _fn=fn, _name=name, **kw):
                        calls[_name] = calls.get(_name, 0) + 1
                        args[_name] = a[0]
                        return _fn(*a, **kw)

                    monkeypatch.setattr(module, name, counted)
        K = sheared_cube(np.random.default_rng(111))
        rep = verify_chain(K, grid)
        assert rep.chain_ok
        assert calls == dict.fromkeys(names, 1)
        # the sections are of K and the shadows of its polar, the report's pair
        assert args["section_areas"] is K
        assert args["projection_areas"] is args["_polar_pieces"]
        assert np.array_equal(args["projection_areas"].vertices, polar(K).vertices)


    @pytest.mark.parametrize("which", ["lp", "transformed"])
    def test_one_radial_pass_per_smooth_body(self, grid, monkeypatch, which):
        # the volumes, the octants and the polar pieces read one radial table
        # on grid.units for K and one for its polar
        K = LpBall(3.0, (1.0, 0.7, 1.3))
        if which == "transformed":
            K = random_smooth_body(np.random.default_rng(112))
        passes = []
        radial = ConvexBody3.radial_many

        def counted(self, us):
            if us is grid.units:
                passes.append(self)
            return radial(self, us)

        monkeypatch.setattr(ConvexBody3, "radial_many", counted)
        rep = verify_chain(K, grid)
        monkeypatch.undo()
        assert len(passes) == 2
        assert passes[0] is K
        assert quadrature.volume(passes[1], grid) == rep.polar_volume == quadrature.volume(polar(K), grid)


    def test_radial_table_chain(self, fine_grid):
        # the l4 ball tabulated at 32x64, at the command line's default grid
        K = RadialField(1.0 / np.sum(_table_units(32, 64) ** 4, axis=-1) ** 0.25)
        rep = verify_chain(K, fine_grid)
        assert rep.applicable and rep.chain_ok
        assert rep.product >= LOWER_BOUND


class TestCone:
    def test_origin_point_trivial(self):
        K = LpBall(2.0)
        A = np.eye(3)
        assert cone_volume(K, *A) > 0.0

    def test_ball_cone_matches_solid_angle(self):
        rng = np.random.default_rng(105)
        for _ in range(5):
            u = rng.standard_normal((3, 3))
            u /= np.linalg.norm(u, axis=1)[:, None]
            if np.linalg.det(u) < 0.05:
                continue
            got = cone_volume(LpBall(2.0), *u)
            want = oracles.ball_cone_volume(*u)
            assert got == pytest.approx(want, rel=1e-6)

    def test_curve_vector_between_ball(self):
        # quarter great-circle arc: cross(e1,e2) * arc integral of 1
        v = curve_vector_between(LpBall(2.0), np.array([1.0, 0, 0]), np.array([0.0, 1, 0]))
        # for the ball the integrand is 1/((1-t)^2+t^2), integral = pi/2
        assert np.allclose(v, (0.0, 0.0, math.pi / 2), atol=1e-10)

    def test_no_violations_random_polytope(self):
        K = random_symmetric_polytope(np.random.default_rng(106), pairs=8)
        chk = cone_inequality_check(K, trials=300, seed=1)
        assert chk.violations == 0
        assert chk.worst_margin > -1e-6


class TestDetectEquality:
    def test_cube_family(self):
        assert detect_equality(cube()) == "parallelepiped"
        assert detect_equality(sheared_cube(np.random.default_rng(108))) == "parallelepiped"

    def test_cross_family(self):
        assert detect_equality(cross_polytope()) == "cross_polytope_dual"
        A = LinearMap3(np.eye(3) + 0.2 * np.random.default_rng(109).standard_normal((3, 3)))
        assert detect_equality(cross_polytope().transformed(A)) == "cross_polytope_dual"

    def test_neither(self, grid):
        assert detect_equality(LpBall(2.0)) == "neither"
        K = random_symmetric_polytope(np.random.default_rng(110), pairs=9)
        assert detect_equality(K) == "neither"

    def test_counting_matches_geometric_reference(self):
        # 8 vertices and 6 facets against the facet-pairing and corner check
        rng = np.random.default_rng(112)
        bodies = []
        for _ in range(40):
            A = LinearMap3(rng.standard_normal((3, 3)) + 2.0 * np.eye(3))
            bodies += [cube().transformed(A), cross_polytope().transformed(A)]
            bodies.append(random_symmetric_polytope(rng, pairs=int(rng.integers(4, 7))))
        for e in 10.0 ** np.arange(-13, -3):
            v = cube().vertices.copy()
            v[[0, 7]] *= 1.0 + e
            bodies.append(SymmetricPolytope(v))
        for seed in range(2):
            bodies += body_corpus(seed=seed)
        bodies += [polar(K) for K in bodies if isinstance(K, SymmetricPolytope)]
        kinds = {True: 0, False: 0}
        for j, K in enumerate(bodies):
            got = _is_parallelepiped(K)
            assert got == oracles.is_parallelepiped(K), f"body {j}: {type(K).__name__}"
            kinds[got] += 1
        assert kinds[True] >= 80 and kinds[False] >= 80
