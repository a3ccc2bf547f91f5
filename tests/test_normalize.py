import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from conftest import perturbed_cube, random_smooth_body, random_symmetric_polytope, sheared_cube
from mahlerlab import bound2d, errors, normalize, planar, quadrature
from mahlerlab.bound2d import normalize2
from mahlerlab.body import (
    Ellipsoid,
    LinearMap3,
    LpBall,
    SymmetricPolytope,
    _cone6,
    _rotation,
    cross_polytope,
    cube,
    sphere_point,
)
from mahlerlab.bound3d import verify_chain
from mahlerlab.normalize import (
    BalanceAngles,
    BoxPoint,
    balance_angles,
    condition_residuals,
    fgh,
    find_normalization,
    gamma_map,
    rotate,
    shear_matrix,
    symmetry_residuals,
    t_map,
    winding,
)
from mahlerlab.quadrature import make_grid, octant_volumes, volume, volume_product
from oracles import balance_residuals, wedge_volume
from test_bound2d import random_polygon, regular_gon, square2

PI = math.pi


class TestBalanceAngles:
    def test_unconditional_right_angles(self, grid):
        ang = balance_angles(LpBall(3.0, (1.0, 0.7, 1.3)), grid)
        assert ang.theta_cap == pytest.approx(PI / 2, abs=1e-8)
        assert ang.phi_cap == pytest.approx(PI / 2, abs=1e-8)
        assert ang.psi_cap == pytest.approx(PI / 2, abs=1e-8)

    def test_residuals_analytic(self, grid):
        rng = np.random.default_rng(61)
        A = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        E = Ellipsoid(np.diag(1.0 / np.array([1.0, 0.7, 1.3]) ** 2)).transformed(LinearMap3(A))
        ang = balance_angles(E, grid)
        r = balance_residuals(E, ang)
        assert max(abs(x) for x in r) < 1e-10 * volume(E, grid)

    def test_residuals_lp(self, grid):
        K = random_smooth_body(np.random.default_rng(62))
        ang = balance_angles(K, grid)
        r = balance_residuals(K, ang)
        assert max(abs(x) for x in r) < 1e-7 * volume(K, grid)

    def test_polytope_exact_split(self, grid):
        K = perturbed_cube(np.random.default_rng(63))
        ang = balance_angles(K, grid)
        half = wedge_volume(K, 0.0, PI)
        assert wedge_volume(K, 0.0, ang.theta_cap) == pytest.approx(
            half / 2.0, rel=1e-10
        )

    def test_theta_complement_identity(self, grid):
        for K in (
            random_smooth_body(np.random.default_rng(64)),
            perturbed_cube(np.random.default_rng(65)),
        ):
            th = balance_angles(K, grid).theta_cap
            K2 = K.transformed(LinearMap3(_rotation(0, PI - th)))
            th2 = balance_angles(K2, grid).theta_cap
            assert th + th2 == pytest.approx(PI, abs=1e-8)

    def test_theta_vs_dense_oracle(self, grid):
        K = sheared_cube(np.random.default_rng(66))
        th = balance_angles(K, grid).theta_cap
        # the trapezoid oracle converges slowly across the facet kinks
        assert th == pytest.approx(oracles.brute_theta(K, n_alpha=1200), abs=2e-3)

    def test_phi_vs_dense_oracle(self, grid):
        K = random_smooth_body(np.random.default_rng(67))
        ang = balance_angles(K, grid)
        assert ang.phi_cap == pytest.approx(oracles.brute_circle_angle(K, 0.0), abs=1e-5)
        assert ang.psi_cap == pytest.approx(
            oracles.brute_circle_angle(K, ang.theta_cap), abs=1e-5
        )

    def test_cumulative_monotone(self):
        K = random_smooth_body(np.random.default_rng(68))
        _, C = oracles.cumulative_theta(K, n_beta=32)
        assert np.all(np.diff(C) > 0)


POLYTOPES = {
    "cube": cube,
    "cross": cross_polytope,  # vertices on the x-axis
    "sheared3": lambda: sheared_cube(np.random.default_rng(3)),
    "sheared4": lambda: sheared_cube(np.random.default_rng(4)),
    "random1": lambda: random_symmetric_polytope(np.random.default_rng(1), 12),
    "random2": lambda: random_symmetric_polytope(np.random.default_rng(2), 7),
}
# (phi, psi) of rotate(K, 0, phi, psi); random1 at (pi, 0) puts a y of
# -1.1e-16 on an x-axis crossing of its beta=0 section
ROTATIONS = ((0.0, 0.0), (PI / 2, 0.0), (0.0, PI / 2), (PI, 0.0), (1.0, 2.0))


class TestPolytopeSolvers:
    @pytest.mark.parametrize("name", sorted(POLYTOPES))
    def test_match_bisection_oracles(self, grid, name):
        for phi, psi in ROTATIONS:
            K = rotate(POLYTOPES[name](), 0.0, phi, psi)
            ang = balance_angles(K, grid)
            theta = oracles.bisect_theta_polytope(K)
            assert abs(ang.theta_cap - theta) <= 1e-12
            assert abs(ang.phi_cap - oracles.bisect_sector_polytope(K, 0.0)) <= 1e-12
            assert abs(ang.psi_cap - oracles.bisect_sector_polytope(K, theta)) <= 1e-12

    def test_solver_call_counts(self, grid, monkeypatch):
        # Theta cuts the triangles into pieces once, at z = 0, and takes one
        # piece-free cut per Newton round; Phi and Psi take their
        # half-sections from those cuts and one more piece-free cut, and no
        # 2-D polygon
        calls = {}
        for name in ("_theta_wedge", "_split", "_cut"):
            fn = getattr(normalize, name)

            def counted(*a, _fn=fn, _name=name, **kw):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*a, **kw)

            monkeypatch.setattr(normalize, name, counted)

        # the Sutherland-Hodgman clip and the 2-D hulls are test oracles only
        for name in ("clip_halfplane", "clip_quadrant", "halfspaces_to_polygon", "hull2"):
            assert not hasattr(planar, name)
        for name in sorted(POLYTOPES):
            K = rotate(POLYTOPES[name](), 0.0, 1.0, 2.0)
            calls.clear()
            normalize._theta_polytopes(K.vertices[K.triangles][None])
            assert calls["_theta_wedge"] <= 8
            # the cut at z = 0 and one per Newton round
            assert calls["_split"] == 1
            theta_cuts = calls["_split"] + calls["_cut"]
            assert theta_cuts == calls["_theta_wedge"] + 1
            calls.clear()
            balance_angles(K, grid)
            assert calls["_split"] == 1
            assert calls["_split"] + calls["_cut"] <= theta_cuts + 1
        # a stack takes one cut per round of its slowest row
        stack = [rotate(POLYTOPES["random1"](), 0.3 * k, 1.0, 2.0) for k in range(6)]
        calls.clear()
        normalize._theta_polytopes(np.stack([L.vertices[L.triangles] for L in stack]))
        assert calls["_theta_wedge"] <= 8
        assert calls["_split"] + calls["_cut"] == calls["_theta_wedge"] + 1

    def test_theta_without_sign_change_is_no_convergence(self, monkeypatch):
        monkeypatch.setattr(normalize, "_theta_wedge", lambda upper, cone, b: (1.0, 1.0))
        with pytest.raises(errors.NoConvergence):
            normalize._theta_polytopes(cube().vertices[cube().triangles][None])

    def test_wedge_rate_is_section_moment(self):
        # V'(b) from the cut segments against a central difference of the wedge volume
        K = rotate(POLYTOPES["random1"](), 0.0, 1.0, 2.0)
        upper = quadrature._split(K.vertices[K.triangles], np.array([0.0, 0.0, 1.0]))[0]
        cone = _cone6(upper)
        for b in (0.3, 1.1, 2.5):
            (V,), (dV,) = normalize._theta_wedge(upper[None], cone[None], np.array([b]))
            assert V == pytest.approx(wedge_volume(K, 0.0, b), rel=1e-13)
            h = 1e-6
            fd = (wedge_volume(K, 0.0, b + h) - wedge_volume(K, 0.0, b - h)) / (2 * h)
            assert dV == pytest.approx(fd, rel=1e-7)

    def test_no_qhull_in_the_polytope_field(self, grid, monkeypatch):
        def refuse(*a, **kw):
            raise AssertionError("qhull called")

        for module in (quadrature, normalize):
            for name in ("ConvexHull", "HalfspaceIntersection"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        # nor a 2-D hull for a section
        assert not hasattr(planar, "ConvexHull")
        K, angles = POLYTOPES["random1"](), (0.4, 1.0, 2.0)
        v, ang, *_ = normalize._field_rows(K, [normalize._rotation_matrix(*angles)], grid)[0]
        assert np.all(np.isfinite(v)) and 0.0 < ang.theta_cap < PI
        assert balance_angles(rotate(K, *angles), grid) == ang

    def test_fgh_body_cuts_one_section(self, grid, monkeypatch):
        # F and r23 read only the plane-1 quarter areas: the sheared body is
        # cut by the plane x = 0 once, and that cut also gives the octant
        # pieces; no other section is taken
        normals = []
        for module in (quadrature, normalize):
            for name in ("_split", "_cut"):

                def counted(tris, n, _fn=getattr(module, name)):
                    normals.append(np.asarray(n).tolist())
                    return _fn(tris, n)

                monkeypatch.setattr(module, name, counted)
        monkeypatch.setattr(quadrature, "_section_segments", None)
        R = normalize._rotation_matrix(0.4, 1.0, 2.0)
        normalize._field_rows(POLYTOPES["random1"](), [R], grid)
        assert normals.count([1.0, 0.0, 0.0]) == 1

    def test_no_qhull_in_the_chain(self, grid, monkeypatch):
        # sections, shadows, pieces and curve vectors of a polytope and of its
        # polar run on the carried triangles, and planar imports no qhull
        def refuse(*a, **kw):
            raise AssertionError("qhull called")

        for module in (quadrature, planar, normalize):
            for name in ("ConvexHull", "HalfspaceIntersection", "Delaunay"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert not any(
            getattr(v, "__module__", "").startswith("scipy.spatial") for v in vars(planar).values()
        )
        rep = verify_chain(rotate(POLYTOPES["random1"](), 0.4, 1.0, 2.0), grid)
        assert rep.chain_ok and np.all(rep.planar_products >= 8.0 - 1e-9)


SMOOTH = {
    "random1": lambda: random_smooth_body(np.random.default_rng(1)),
    "random2": lambda: random_smooth_body(np.random.default_rng(2)),
    "lp": lambda: LpBall(3.5, (1.0, 0.6, 1.4)),
    "ellipsoid": lambda: Ellipsoid(np.diag(1.0 / np.array([1.0, 0.7, 1.3]) ** 2)).transformed(
        LinearMap3(np.eye(3) + 0.3 * np.random.default_rng(61).standard_normal((3, 3)))
    ),
}


class TestSmoothSolvers:
    @pytest.mark.parametrize("name", sorted(SMOOTH))
    def test_match_bisection_oracles(self, grid, name, monkeypatch):
        K = SMOOTH[name]()
        for s in (0.0, 0.25, 0.6, 1.0):
            for psi in (0.8, 2.3):
                want = oracles.bisect_t_map(K, s, psi, grid)
                assert abs(t_map(K, s, psi, grid) - want) <= 1e-12
        bodies = [rotate(K, 0.0, phi, psi) for phi, psi in ROTATIONS]
        got = [balance_angles(L, grid) for L in bodies]
        # the oracle angles: the same samples, solved by spectral bisection
        monkeypatch.setattr(normalize, "_half_balance", oracles.bisect_half_balance)
        for L, ang in zip(bodies, got):
            want = balance_angles(L, grid)
            assert abs(ang.theta_cap - want.theta_cap) <= 1e-12
            assert abs(ang.phi_cap - want.phi_cap) <= 1e-12
            assert abs(ang.psi_cap - want.psi_cap) <= 1e-12

    def test_normalize2_matches_bisection_oracle(self):
        polygons = [square2(), regular_gon(6)]
        polygons += [random_polygon(np.random.default_rng(seed)) for seed in range(5)]
        for P in polygons:
            M, _ = normalize2(P)
            # M is a positive diagonal scaling after the rotation by t
            t = math.atan2(-M[0, 1], M[0, 0])
            assert abs(t - oracles.bisect_normalize2(P)) <= 1e-12

    def test_half_balance_phase_rows(self, grid, monkeypatch):
        samples = []
        solve = normalize._half_balance
        monkeypatch.setattr(
            normalize, "_half_balance", lambda vals: samples.append(vals) or solve(vals)
        )
        for name in sorted(SMOOTH):
            balance_angles(rotate(SMOOTH[name](), 0.0, 1.0, 2.0), grid)
        monkeypatch.undo()
        rows = []
        exp = np.exp

        def counted(*a, **kw):
            rows.append(1)
            return exp(*a, **kw)

        monkeypatch.setattr(np, "exp", counted)
        for vals in samples:
            rows.clear()
            solve(vals)
            assert len(rows) <= 8

    def test_half_balance_rows_match_single_rows(self, grid):
        # Phi and Psi are one two-row solve on one radial pass; each row is
        # bit for bit its own samples solved alone
        m = 4 * max(grid.n_beta, 2 * grid.n_alpha)
        alphas = np.arange(m) * (PI / m)
        rng = np.random.default_rng(5)
        for _ in range(10):
            K = random_smooth_body(rng)
            ang = balance_angles(K, grid)
            rows = [K.radial_many(sphere_point(alphas, np.full(m, b))) ** 2 for b in (0.0, ang.theta_cap)]
            alone = [normalize._half_balance(r[None])[0] for r in rows]
            assert list(normalize._half_balance(np.stack(rows))) == alone == [ang.phi_cap, ang.psi_cap]

    def test_half_balance_nan_is_no_convergence(self):
        with pytest.raises(errors.NoConvergence):
            normalize._half_balance(np.full((1, 64), np.nan))

    def test_t_map_without_sign_change_is_no_convergence(self, monkeypatch):
        # above every target pi - Theta_0 s, so no root in the box height
        monkeypatch.setattr(normalize, "gamma_map", lambda K, psi, theta, grid: 4.0)
        with pytest.raises(errors.NoConvergence):
            t_map(LpBall(3.0, (1.0, 0.7, 1.3)), 0.5, 0.8, make_grid(16, 32))

    def test_normalize2_without_sign_change_is_no_convergence(self, monkeypatch):
        monkeypatch.setattr(bound2d, "_quadrant_gap", lambda P: 1.0)
        with pytest.raises(errors.NoConvergence):
            normalize2(regular_gon(6))


class TestShear:
    def test_unconditional_identity(self, grid):
        A = shear_matrix(balance_angles(LpBall(3.0, (1.0, 0.7, 1.3)), grid))
        assert np.allclose(A.matrix, np.eye(3), atol=1e-8)

    def test_unit_determinant(self, grid):
        for K in (random_smooth_body(np.random.default_rng(70)),
                  perturbed_cube(np.random.default_rng(71))):
            A = shear_matrix(balance_angles(K, grid))
            assert A.det == pytest.approx(1.0, abs=1e-14)

    def test_matrix_matches_formula(self):
        ang = BalanceAngles(1.1, 2.0, 0.7)
        A = shear_matrix(ang)
        a = 1.0 / math.tan(ang.phi_cap)
        c = 1.0 / math.tan(ang.theta_cap)
        b = 1.0 / (math.sin(ang.theta_cap) * math.tan(ang.psi_cap))
        fwd = np.array([[1.0, a, b], [0.0, 1.0, c], [0.0, 0.0, 1.0]])
        assert np.allclose(A.matrix @ fwd, np.eye(3), atol=1e-12)

    def test_condition22_after_shear(self, grid):
        for K, tol in (
            (perturbed_cube(np.random.default_rng(72)), 1e-10),
            (random_smooth_body(np.random.default_rng(73)), 1e-6),
        ):
            M = K.transformed(shear_matrix(balance_angles(K, grid)))
            r22, _ = condition_residuals(M, grid)
            assert np.max(np.abs(r22)) < tol * volume(K, grid)


class TestRotate:
    def test_zero_is_identity(self, grid):
        K = random_smooth_body(np.random.default_rng(74))
        L = rotate(K, 0.0, 0.0, 0.0)
        us = grid.units[::97]
        assert np.allclose(L.radial_many(us), K.radial_many(us), rtol=1e-12)

    def test_half_turn_on_unconditional(self, grid):
        K = LpBall(3.0, (1.0, 0.7, 1.3))
        L = rotate(K, PI, 0.0, 0.0)
        us = grid.units[::97]
        assert np.allclose(L.radial_many(us), K.radial_many(us), rtol=1e-12)

    def test_cube_vertices_match_matrix_product(self):
        t, p, q = PI / 3, PI / 5, PI / 7
        L = rotate(cube(), t, p, q)
        R = (
            LinearMap3(_rotation(0, t))
            .compose(LinearMap3(_rotation(1, p)))
            .compose(LinearMap3(_rotation(2, q)))
        )
        want = cube().vertices @ R.matrix.T
        got = sorted(map(tuple, np.round(L.vertices, 12)))
        assert np.allclose(got, sorted(map(tuple, np.round(want, 12))), atol=1e-12)

    def test_one_map_equals_composed_rotations(self):
        # the one product of the three matrices is the chain of three
        # composed maps, bit for bit
        rng = np.random.default_rng(75)
        K = random_symmetric_polytope(rng, 8)
        for t, p, q in rng.uniform(0.0, PI, size=(100, 3)):
            R = (
                LinearMap3(_rotation(0, t))
                .compose(LinearMap3(_rotation(1, p)))
                .compose(LinearMap3(_rotation(2, q)))
            )
            assert np.array_equal(rotate(K, t, p, q).vertices, K.transformed(R).vertices)


class TestFGH:
    def test_unconditional_origin(self, grid):
        K = LpBall(3.0, (1.0, 0.7, 1.3))
        v = fgh(K, BoxPoint(0.0, 0.0, 0.0), grid)
        assert np.max(np.abs(v)) < 1e-8 * volume(K, grid)

    def test_boundary_flip(self, grid):
        K = random_smooth_body(np.random.default_rng(75))
        phi, psi = 1.1, 2.3
        f0 = fgh(K, BoxPoint(0.0, phi, psi), grid)
        f1 = fgh(K, BoxPoint(1.0, phi, psi), grid)
        assert f1[0] == pytest.approx(-f0[0], abs=1e-6 * volume(K, grid))

    def test_gh_vs_monte_carlo(self, grid):
        # recompute G and H from Monte Carlo octant volumes of the
        # rotated-and-sheared polytope
        K = perturbed_cube(np.random.default_rng(76))
        point = BoxPoint(0.37, 1.2, 2.5)
        from mahlerlab.normalize import _field_rows, _rotation_matrix, _thetas

        th0 = _thetas(K, [_rotation_matrix(0.0, point.phi, point.psi)], grid)[0]
        angles = ((PI - th0) * point.s, point.phi, point.psi)
        v, ang, _ = _field_rows(K, [_rotation_matrix(*angles)], grid)[0]
        M = rotate(K, *angles).transformed(shear_matrix(ang))
        mc = oracles.mc_octant_volumes(M, n=4_000_000, seed=77)
        G = mc[0] + mc[2] - mc[1] - mc[3]
        H = mc[0] + mc[3] - mc[1] - mc[2]
        sigma = 4.0 * volume(M, grid) / math.sqrt(4_000_000)
        assert v[1] == pytest.approx(G, abs=3 * sigma)
        assert v[2] == pytest.approx(H, abs=3 * sigma)

    def test_bad_box_point(self):
        with pytest.raises(errors.BadParameter):
            BoxPoint(1.5, 0.0, 0.0)
        with pytest.raises(errors.BadParameter):
            BoxPoint(0.5, -0.1, 0.0)


class TestConditionResiduals:
    def test_cube_zero(self, grid):
        r22, r23 = condition_residuals(cube(), grid)
        assert np.max(np.abs(r22)) < 1e-12
        assert np.max(np.abs(r23)) < 1e-12

    def test_unnormalized_nonzero(self, grid):
        rng = np.random.default_rng(78)
        K = rotate(perturbed_cube(rng), 0.4, 1.0, 2.0)
        _, r23 = condition_residuals(K, grid)
        assert np.max(np.abs(r23)) > 1e-4
        # sign of the octant imbalance agrees with Monte Carlo
        mc = oracles.mc_octant_volumes(K, n=2_000_000, seed=79)
        big = np.argmax(np.abs(r23[:3]))
        mc_diff = mc[0] - mc[big + 1]
        assert np.sign(mc_diff) == np.sign(r23[big])


class TestGammaAndT:
    def test_gamma_increasing(self, grid):
        K = random_smooth_body(np.random.default_rng(80))
        psi = 0.9
        from mahlerlab.normalize import _rotation_matrix, _thetas

        height = PI - _thetas(K, [_rotation_matrix(0.0, 0.0, psi)], grid)[0]
        thetas = np.linspace(0.0, height, 16)
        vals = [gamma_map(K, psi, t, grid) for t in thetas]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # Gamma maps [0, pi - Theta] onto [pi - Theta, pi]
        assert vals[0] == pytest.approx(height, abs=1e-8)
        assert vals[-1] == pytest.approx(PI, abs=1e-6)

    def test_t_endpoints(self, grid):
        K = random_smooth_body(np.random.default_rng(81))
        assert t_map(K, 0.0, 0.8, grid) == pytest.approx(1.0, abs=1e-8)
        assert t_map(K, 1.0, 0.8, grid) == pytest.approx(0.0, abs=1e-8)

    def test_t_map_solves_theta0_once(self, monkeypatch):
        # at s = 1 the height Gamma(0) and f(height); f(0) reuses Gamma(0)
        calls = []
        theta_only = normalize._theta_only

        def counted(K, grid):
            calls.append(K)
            return theta_only(K, grid)

        monkeypatch.setattr(normalize, "_theta_only", counted)
        assert t_map(LpBall(3.0, (1.0, 0.7, 1.3)), 1.0, 0.8, make_grid(16, 32)) == 0.0
        assert len(calls) == 2

    def test_t0_inverse_is_tpi(self, grid):
        K = random_smooth_body(np.random.default_rng(82))
        for s in (0.25, 0.6):
            assert t_map(K, t_map(K, s, PI, grid), 0.0, grid) == pytest.approx(
                s, abs=1e-6
            )


class TestSymmetryResiduals:
    def test_smooth_body(self, grid):
        K = random_smooth_body(np.random.default_rng(83))
        tol = 1e-6 * volume(K, grid)
        for point in (BoxPoint(0.3, 1.0, 2.2), BoxPoint(0.7, 2.8, 0.4)):
            res = symmetry_residuals(K, point, grid)
            bad = {k: v for k, v in res.items() if v >= tol}
            assert not bad, bad

    def test_unconditional(self, grid):
        K = LpBall(3.0, (1.0, 0.7, 1.3))
        res = symmetry_residuals(K, BoxPoint(0.0, 0.0, 0.0), grid)
        assert max(res.values()) < 1e-6 * volume(K, grid)

    def test_keys(self):
        res = symmetry_residuals(
            LpBall(3.0, (1.0, 0.7, 1.3)), BoxPoint(0.5, 1.0, 2.0), make_grid(16, 32)
        )
        maps = [
            f"{m}_{k}"
            for m in ("comp", "xpi", "ypi", "zpi")
            for k in ("theta", "phi", "psi", "F", "G", "H")
        ]
        maps[0] = "comp_theta_sum"
        faces = [f"face_{f}_{k}" for f in ("s", "phi", "psi") for k in "FGH"]
        assert list(res) == maps + faces + ["t_map_0", "t_map_1"]
        assert len(res) == 35

    def test_each_point_evaluated_once(self, monkeypatch):
        # the three T values share one Gamma memo, and at s = 0 the face_s
        # partner (0, phi, psi) is the point itself: 1 + 4 turned images + 5
        # face points
        gammas, fields = [], []
        gamma_map, field_rows = normalize.gamma_map, normalize._field_rows

        def counted_gamma(K, psi, theta, grid):
            gammas.append(theta)
            return gamma_map(K, psi, theta, grid)

        def counted_fgh(L, mats, grid):
            fields.extend(mats)
            return field_rows(L, mats, grid)

        monkeypatch.setattr(normalize, "gamma_map", counted_gamma)
        monkeypatch.setattr(normalize, "_field_rows", counted_fgh)
        K = LpBall(3.0, (1.0, 0.7, 1.3))
        symmetry_residuals(K, BoxPoint(0.0, 1.0, 2.0), make_grid(16, 32))
        assert gammas.count(0.0) == 1
        assert len(gammas) == len(set(gammas))
        assert len(fields) == 10


WINDING_BODIES = {
    "cube84": lambda: perturbed_cube(np.random.default_rng(84)),
    "cube85": lambda: perturbed_cube(np.random.default_rng(85)),
    "random1": lambda: random_symmetric_polytope(np.random.default_rng(1), 12),
    "random2": lambda: random_symmetric_polytope(np.random.default_rng(2), 7),
    "smooth": lambda: random_smooth_body(np.random.default_rng(1)),
}


class TestWinding:
    def test_perturbed_cube_odd_and_stable(self, grid):
        K = perturbed_cube(np.random.default_rng(84))
        tr = winding(K, 64, grid)
        assert tr.winding % 2 == 1
        assert abs(tr.samples[-1, 3] - 2 * PI * tr.winding) < 1e-6
        tr2 = winding(K, 128, grid)
        assert tr2.winding == tr.winding

    def test_steps_bounded(self, grid):
        K = perturbed_cube(np.random.default_rng(85))
        tr = winding(K, 64, grid)
        dang = np.diff(tr.samples[:, 3])
        assert np.max(np.abs(dang)) < 0.5 * PI

    @pytest.mark.parametrize("n_samples", [1, 0, -1])
    def test_too_few_samples_is_bad_parameter(self, n_samples):
        # with fewer than 4 base samples a leg of the contour holds none: one
        # sample puts both ends of the contour on the same point, and the
        # winding came out 0 where it is odd
        K = perturbed_cube(np.random.default_rng(84))
        with pytest.raises(errors.BadParameter, match="at least 4"):
            winding(K, n_samples, make_grid(32, 64))

    def test_unconditional_not_generic(self, grid):
        where = r"at t = 0\.0, \(phi, psi\) = \(0\.0, 0\.0\), a base sample"
        with pytest.raises(errors.NotGeneric, match=where):
            winding(cube(), 32, grid)

    @pytest.mark.parametrize("name", sorted(WINDING_BODIES))
    def test_matches_depth_first_oracle(self, name):
        # the rounds split the same pairs as the depth-first loop, so the
        # samples, their accumulated angle and the winding agree bit for bit
        K, grid = WINDING_BODIES[name](), make_grid(32, 64)
        tr = winding(K, 64, grid)
        samples, w = oracles.depth_first_winding(K, 64, grid)
        assert tr.winding == w
        assert tr.samples.tobytes() == samples.tobytes()

    def test_one_batch_per_refinement_round(self, monkeypatch):
        # the base samples are one batch, and each round of refinement one
        # more; a point inserted at depth k sits at an odd multiple of the
        # base step / 2^k
        batches = []
        many = normalize._BoxField.many

        def counted(field, points):
            batches.append(list(points))
            return many(field, batches[-1])

        monkeypatch.setattr(normalize._BoxField, "many", counted)
        tr = winding(perturbed_cube(np.random.default_rng(84)), 64, make_grid(32, 64))

        def depth(t):
            x, k = t / (4 * PI / 64), 0
            while abs(x * 2**k - round(x * 2**k)) > 1e-6:
                k += 1
            return k

        depths = [depth(t) for t in tr.samples[:, 0]]
        assert max(depths) >= 2
        assert len(batches) == 1 + max(depths)
        assert len(batches[0]) == 65
        assert [len(b) for b in batches[1:]] == [depths.count(k) for k in range(1, max(depths) + 1)]

    def test_contour_read_through_box_field(self, monkeypatch):
        # every contour point is the box point (0, phi, psi) of the one field
        points = []
        many = normalize._BoxField.many

        def traced(field, batch):
            batch = list(batch)
            points.extend(batch)
            return many(field, batch)

        monkeypatch.setattr(normalize._BoxField, "many", traced)
        tr = winding(perturbed_cube(np.random.default_rng(84)), 64, make_grid(32, 64))
        assert {s for s, _, _ in points} == {0.0}
        contour = {normalize._contour_angles(t) for t in tr.samples[:, 0]}
        assert {(phi, psi) for _, phi, psi in points} == contour

    def test_each_contour_point_evaluated_once(self, monkeypatch):
        # t = 0 and t = 4 pi are the same point of the contour
        calls = []
        field_rows = normalize._field_rows

        def counted(K, mats, grid):
            calls.extend(m.tobytes() for m in mats)
            return field_rows(K, mats, grid)

        monkeypatch.setattr(normalize, "_field_rows", counted)
        tr = winding(perturbed_cube(np.random.default_rng(84)), 64, make_grid(32, 64))
        assert len(calls) == len(tr.samples) - 1
        assert len(set(calls)) == len(calls)

    def test_base_samples_one_pass(self, monkeypatch):
        # a 12-triangle cube takes 1024 // 12 = 85 points per stacked pass,
        # so the 64 distinct base samples are one pass of _field_rows, and
        # each refinement round one more
        batches, passes = [], []
        field_rows, balance = normalize._field_rows, normalize.balance_angles

        def counted_rows(K, mats, grid):
            batches.append(len(mats))
            return field_rows(K, mats, grid)

        def counted_passes(K, grid):
            passes.append(len(K))
            return balance(K, grid)

        monkeypatch.setattr(normalize, "_field_rows", counted_rows)
        monkeypatch.setattr(normalize, "balance_angles", counted_passes)
        winding(perturbed_cube(np.random.default_rng(84)), 64, make_grid(32, 64))
        assert passes == batches and passes[0] == 64

    def test_no_shear_map_per_point(self, monkeypatch):
        # a record builds its LinearMap3 shear only when read, and the
        # stacked pass shears its triangles from the same formula's entries
        K = perturbed_cube(np.random.default_rng(84))
        built = []
        init = LinearMap3.__init__

        def counted(self, matrix):
            built.append(matrix)
            init(self, matrix)

        monkeypatch.setattr(LinearMap3, "__init__", counted)
        winding(K, 64, make_grid(32, 64))
        assert built == []


class TestBatchedField:
    @pytest.mark.parametrize("name", ["cube84", "smooth"])
    def test_record_shear_is_shear_matrix(self, name):
        K, grid = WINDING_BODIES[name](), make_grid(32, 64)
        for rec in normalize._BoxField(K, grid).many([(0.0, 1.0, 2.0), (0.4, 1.0, 2.0), (1.0, 2.5, 0.3)]):
            assert rec.shear is rec.shear
            assert rec.shear.matrix.tobytes() == shear_matrix(rec.balance).matrix.tobytes()

    @pytest.mark.parametrize("batch", [16, 64, 1])
    @pytest.mark.parametrize("name", ["cube84", "random1"])
    def test_record_independent_of_batch(self, name, batch, monkeypatch):
        # a polytope point's record is bit for bit the same evaluated alone
        # and inside a batch of 64, whether that runs as one stacked pass, in
        # passes of 16 points or one point at a time
        K, grid = WINDING_BODIES[name](), make_grid(32, 64)
        monkeypatch.setattr(normalize, "_TRIANGLES", batch * len(K.triangles))
        passes = []
        balance = normalize.balance_angles

        def counted(K, grid):
            passes.append(len(K))
            return balance(K, grid)

        monkeypatch.setattr(normalize, "balance_angles", counted)
        rng = np.random.default_rng(90)
        points = [(0.0, *map(float, rng.uniform(0.0, PI, 2))) for _ in range(32)]
        points += [tuple(map(float, rng.uniform(0.0, 1.0) * np.array([1.0, PI, PI]))) for _ in range(32)]
        records = normalize._BoxField(K, grid).many(points)
        assert max(passes) == batch and sum(passes) == 64
        for x, rec in zip(points, records):
            alone = normalize._BoxField(K, grid)(*x)
            assert alone.angles == rec.angles
            assert alone.balance == rec.balance
            assert alone.fgh.tobytes() == rec.fgh.tobytes()
            assert alone.shear.matrix.tobytes() == rec.shear.matrix.tobytes()
            assert alone.residual23.tobytes() == rec.residual23.tobytes()

    def test_scan_memory_bounded(self):
        # the stacked passes hold at most _TRIANGLES triangles, so the 9^3
        # scan keeps its peak traced memory within twice that of one point at
        # a time.  Measured with numpy 2.4 on x86-64: 2,246,124 bytes one
        # point at a time when records held their sheared bodies; 1,149,559
        # one point at a time and 1,576,750 in chunks of 16 points when they
        # held a LinearMap3 shear each; 2,232,885 in this 20-triangle body's
        # passes of 51 points.
        K = random_symmetric_polytope(np.random.default_rng(3), 16)
        assert self._scan_peak(K) <= 2 * 2_246_124

    def test_cube_scan_memory_bounded(self):
        # a 12-triangle cube's passes grew from 16 to 85 points under the
        # triangle budget.  Measured with numpy 2.4 on x86-64: 1,261,886
        # bytes one point at a time when records held a LinearMap3 shear
        # each, 1,422,681 in chunks of 16 points; 2,345,526 in passes of 85.
        assert self._scan_peak(cube()) <= 2 * 1_261_886

    @staticmethod
    def _scan_peak(K):
        field = normalize._BoxField(K, make_grid(32, 64))
        field(0.0, 0.0, 0.0)
        tracemalloc.start()
        try:
            normalize._scan_candidates(field)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class _FakeField:
    """A field f over the box in place of a _BoxField: `many` and `field(*p)`
    return records whose fgh is f(p), and `points` counts the points read."""

    def __init__(self, f):
        self.f, self.points = f, 0

    def many(self, points):
        points = list(points)
        self.points += len(points)
        return [SimpleNamespace(fgh=np.array(self.f(*p), dtype=float)) for p in points]

    def __call__(self, *p):
        return self.many([p])[0]


class TestRefine:
    # |K| = 1, so the search aims at max |v| < 1e-8
    @staticmethod
    def _refine(f, x0):
        field = _FakeField(f)
        x = normalize._refine(field, x0, np.array(f(*x0), dtype=float), 1.0)
        return float(np.max(np.abs(f(*x)))), field.points

    def test_regular_zero(self):
        def f(s, phi, psi):
            return (s - 0.4 + 0.1 * phi**2, math.sin(phi - 1.0) + 0.2 * s, psi - 2.0 + 0.3 * s * phi)

        end, _ = self._refine(f, (0.9, 2.0, 1.0))
        assert end < 1e-8

    def test_curve_of_zeros(self):
        # the zeros are the curve a = b = 0, on which the third row of J is
        # the first, so J is singular at every zero
        def f(s, phi, psi):
            a, b = s - 0.3 - 0.2 * math.sin(psi), phi - 1.0 - 0.5 * psi**2
            return (a, b, a + a * b)

        end, _ = self._refine(f, (0.9, 2.5, 0.4))
        assert end < 1e-8

    def test_no_zero_stops(self):
        # max |v| >= 1e-3 everywhere: the search stalls near the minimum and
        # stops, here after 58 points
        def f(s, phi, psi):
            return (1e-3 + (s - 0.5) ** 2, phi - 1.0, 1e-6 * psi)

        end, points = self._refine(f, (0.9, 2.0, 1.0))
        assert points <= 100
        assert end < 2e-3


class TestFindNormalization:
    def test_unconditional_quick_exit(self, grid):
        K = LpBall(3.0, (1.0, 0.7, 1.3))
        res = find_normalization(K, grid)
        assert res.angles == (0.0, 0.0, 0.0)
        assert np.allclose(res.shear.matrix, np.eye(3), atol=1e-8)
        assert np.max(np.abs(res.residual23)) < 1e-6 * volume(K, grid)

    def test_quick_exit_evaluates_once(self, grid, monkeypatch):
        calls = []

        def counted(K, grid):
            calls.append(K)
            return balance_angles(K, grid)

        monkeypatch.setattr(normalize, "balance_angles", counted)
        res = find_normalization(Ellipsoid(np.diag(1.0 / np.array([1.2, 0.8, 1.1]) ** 2)), grid)
        assert res.angles == (0.0, 0.0, 0.0)
        assert len(calls) == 1

    def test_origin_solves_no_theta0(self, grid, monkeypatch):
        # theta = (pi - Theta_0) s is s itself at s = 0: neither the quick exit
        # nor fgh on the s = 0 face solves Theta(0, phi, psi)
        def refuse(*a):
            raise AssertionError("Theta(0, phi, psi) solved at s = 0")

        monkeypatch.setattr(normalize, "_thetas", refuse)
        assert find_normalization(LpBall(3.0, (1.0, 0.7, 1.3)), grid).angles == (0.0, 0.0, 0.0)
        v = fgh(random_smooth_body(np.random.default_rng(75)), BoxPoint(0.0, 1.1, 2.3), grid)
        assert np.all(np.isfinite(v))

    def test_result_is_the_box_record(self, grid):
        # a search returns its winner's record of the one box field: the
        # rotated body's balance angles, its shear and (F, G, H)
        K = perturbed_cube(np.random.default_rng(76))
        res = find_normalization(K, grid)
        assert res.fgh_norm == float(np.max(np.abs(res.fgh)))
        L = rotate(K, *res.angles)
        assert res.balance == balance_angles(L, grid)
        assert np.array_equal(res.shear.matrix, shear_matrix(res.balance).matrix)
        point = normalize._BoxField(K, grid)
        rec = point(0.37, 1.2, 2.5)
        assert point(0.37, 1.2, 2.5) is rec
        assert rec.fgh_norm == float(np.max(np.abs(rec.fgh)))

    def test_no_point_evaluated_twice(self, monkeypatch):
        # the rotation X(theta) Y(phi) Z(psi) of each field evaluation stands
        # for its box point (s, phi, psi): theta = (pi - Theta_0) s
        evaluated = []
        field_rows = normalize._field_rows

        def counted(K, mats, grid):
            evaluated.extend(m.tobytes() for m in mats)
            return field_rows(K, mats, grid)

        monkeypatch.setattr(normalize, "_field_rows", counted)
        res = find_normalization(random_smooth_body(np.random.default_rng(1)), make_grid(16, 32))
        assert len(evaluated) > 729
        assert len(set(evaluated)) == len(evaluated)
        assert normalize._rotation_matrix(*res.angles).tobytes() in evaluated

    def test_scan_points_distinct(self):
        # the origin is one of the 9^3 scan points, once
        field = normalize._BoxField(perturbed_cube(np.random.default_rng(9)), make_grid(32, 64))
        points = [x for _, x, _ in normalize._scan_candidates(field)]
        assert len(points) == len(set(points)) == 729
        assert (0.0, 0.0, 0.0) in points

    def test_refines_distinct_starts_until_one_certifies(self, monkeypatch):
        # the best scan points are refined in order, the origin (this cube's
        # best scan point) first, and the search stops at the first end below
        # 1e-8 |K|: that end is the result
        starts, ends = [], []
        refine = normalize._refine

        def counted(field, x0, v0, volK):
            starts.append(tuple(map(float, x0)))
            x = refine(field, x0, v0, volK)
            ends.append(field(*x))
            return x

        monkeypatch.setattr(normalize, "_refine", counted)
        K, grid = perturbed_cube(np.random.default_rng(9)), make_grid(32, 64)
        res = find_normalization(K, grid)
        vol = volume(K, grid)
        assert len(starts) == len(set(starts))
        assert starts[0] == (0.0, 0.0, 0.0)
        assert all(end.fgh_norm >= 1e-8 * vol for end in ends[:-1])
        assert res is ends[-1]

    def test_fallback_and_no_zero(self, monkeypatch):
        # each start ends at a chosen scan point, none below 1e-8 |K|: the
        # smallest end below 1e-6 |K| wins, not the first one below it, and
        # with none below it the search raises NoZeroFound.  |K| is set to
        # put 1e-6 |K| between the ends.
        K, grid = perturbed_cube(np.random.default_rng(9)), make_grid(32, 64)
        cand = normalize._scan_candidates(normalize._BoxField(K, grid))
        # the k-th start ends at the scan point of rank ranks[k]
        ranks = [40, 20, 10, 30, 60, 50]
        ends = {cand[k][1]: cand[r][1] for k, r in enumerate(ranks)}
        monkeypatch.setattr(normalize, "_refine", lambda field, x0, v0, volK: ends[tuple(x0)])
        bound = 0.5 * (cand[20][0] + cand[30][0])
        monkeypatch.setattr(normalize, "volume", lambda K, grid: bound / 1e-6)
        res = find_normalization(K, grid)
        assert res.angles[1:] == cand[10][1][1:]
        assert res.fgh.tobytes() == cand[10][2].tobytes()
        below = 0.5 * cand[10][0]
        monkeypatch.setattr(normalize, "volume", lambda K, grid: below / 1e-6)
        with pytest.raises(errors.NoZeroFound):
            find_normalization(K, grid)

    def test_smooth_body_15_certifies(self):
        # the 16th body drawn from default_rng(5), at 32x64: its searches end
        # on a valley where J is nearly singular, and a least-norm step
        # still certifies one of them
        rng = np.random.default_rng(5)
        for _ in range(16):
            K = random_smooth_body(rng)
        grid = make_grid(32, 64)
        assert find_normalization(K, grid).fgh_norm < 1e-8 * volume(K, grid)

    def test_sheared_cube(self, grid):
        K = sheared_cube(np.random.default_rng(86))
        res = find_normalization(K, grid)
        v = volume(K, grid)
        assert res.fgh_norm < 1e-6 * v
        assert np.max(np.abs(res.residual23)) < 1e-6 * v
        _, r23 = condition_residuals(res.normalized_body, grid)
        assert np.max(np.abs(r23)) < 1e-6 * v
        # octant volumes of the normalized body really are |K|/8 each
        ov = octant_volumes(res.normalized_body, grid)[:4]
        assert np.allclose(ov, v / 8.0, rtol=1e-6)


# the half vertex lists of two minima of a Powell descent on the volume
# product at 32x64 (its first and sixth runs), near the equality case
# |K| |K°| = 32/3
DESCENT_BODIES = {
    # Theta's Newton steps bounce inside the bracket unless each step must
    # halve the last
    "run1": [
        [-6.15482976969476, -0.4005187010439555, -0.6391683515831761],
        [-1.3040000451301372, -1.0200299757072397, 0.703734850371023],
        [-1.2654214710460525, -0.6232744625373522, 0.04133001871383489],
    ],
    # facet rows within 1e-9 of each other: merging them loses polar vertices,
    # and P falls below 32/3
    "run6": [
        [1.437293667972059, -0.7987506246567673, 1.8220113632643826],
        [0.6205521582773584, -0.04349401301112499, -0.06495003710629565],
        [0.04905461448989903, 2.002392583645255, 0.18851919251246557],
        [-0.6331940901922267, -0.37756350523280824, -1.0911461176191954],
        [-1.2776801663761632, 0.6304114907682319, 0.5811658124128057],
        [0.6765248533969589, -0.15034845165404043, -0.5469605038881447],
    ],
}


class TestDescentBodies:
    @pytest.mark.parametrize("name", sorted(DESCENT_BODIES))
    def test_normalizes_at_or_above_bound(self, name, monkeypatch):
        # the search stops at its first certified end: 818 and 764 box points
        # on run1 and run6; refining all six starts takes over 1,000 on both
        points = []
        field_rows = normalize._field_rows

        def counted(K, mats, grid):
            points.extend(mats)
            return field_rows(K, mats, grid)

        monkeypatch.setattr(normalize, "_field_rows", counted)
        h = np.array(DESCENT_BODIES[name])
        K, grid = SymmetricPolytope(np.vstack([h, -h])), make_grid(32, 64)
        res = find_normalization(K, grid)
        assert len(points) <= 1000
        vol = volume(K, grid)
        assert res.fgh_norm < 1e-8 * vol
        assert np.max(np.abs(res.residual23)) < 1e-6 * vol
        assert volume_product(K, grid) >= 32.0 / 3.0 * (1.0 - 1e-12)
