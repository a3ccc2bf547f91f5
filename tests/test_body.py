import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import random_lp_ball, random_smooth_body, random_symmetric_polytope, sheared_cube
from mahlerlab import body as body_module, errors
from mahlerlab.body import (
    Ellipsoid,
    LinearMap3,
    LpBall,
    RadialField,
    SymmetricPolytope,
    TransformedBody,
    _rotation,
    _table_units,
    boundary_map,
    cross_polytope,
    cube,
    gauge_radial,
    make_body,
    polar,
    sphere_point,
    support,
)
from mahlerlab.quadrature import make_grid, volume_product


def unit_dirs(rng, n):
    u = rng.standard_normal((n, 3))
    return u / np.linalg.norm(u, axis=1)[:, None]


class TestConstruction:
    def test_direction_embeds_unit(self):
        d = sphere_point(0.7, 2.1)
        assert abs(np.linalg.norm(d) - 1.0) < 1e-14

    def test_cube_from_vertices(self):
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
        K = make_body({"type": "polytope", "vertices": signs.tolist()})
        assert len(K.vertices) == 8
        assert len(K.facets) == 6

    def test_lp2_is_ball(self):
        K = make_body({"type": "lp", "p": 2.0, "axes": [1.0, 1.0, 1.0]})
        u = np.array([0.3, -0.4, 0.5])
        assert abs(K.gauge(u) - np.linalg.norm(u)) < 1e-12

    def test_not_symmetric_rejected(self):
        with pytest.raises(errors.NotSymmetric):
            make_body({"type": "polytope", "vertices": [[1, 0, 0], [0, 1, 0]]})
        # the antipode tolerance is 1e-9 of the largest coordinate (here 10)
        verts = 10.0 * cube().vertices
        for factor, ok in ((0.5, True), (2.0, False)):
            moved = verts.copy()
            moved[3, 0] += factor * 1e-8
            if ok:
                assert len(SymmetricPolytope(moved).vertices) == 8
            else:
                with pytest.raises(errors.NotSymmetric):
                    SymmetricPolytope(moved)
        # the cube with one corner pulled out to 1.5x, at any scale
        pulled = cube().vertices.copy()
        pulled[0] *= 1.5
        for scale in (1.0, 1e-12):
            with pytest.raises(errors.NotSymmetric):
                SymmetricPolytope(scale * pulled)

    def test_symmetry_check_matches_pair_scan(self):
        rng = np.random.default_rng(64)
        for factor in (0.3, 0.9, 1.1, 3.0):
            for _ in range(5):
                K = random_symmetric_polytope(rng, pairs=int(rng.integers(4, 16)))
                verts = K.vertices.copy()
                tol = 1e-9 * np.max(np.abs(verts))
                step = rng.standard_normal(3)
                verts[int(rng.integers(len(verts)))] += factor * tol * step / np.linalg.norm(step)
                rejected = oracles.antipode_gap(verts) > tol
                assert rejected == (factor > 1.0)
                try:
                    body_module._check_symmetric_vertices(verts)
                    assert not rejected
                except errors.NotSymmetric:
                    assert rejected

    def test_degenerate_rejected(self):
        with pytest.raises(errors.DegenerateBody):
            SymmetricPolytope([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])
        with pytest.raises(errors.DegenerateBody):
            LpBall(3.0, (1.0, 0.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_rejected(self, bad):
        verts = cube().vertices.copy()
        verts[0, 1] = bad
        with pytest.raises(errors.DegenerateBody):
            SymmetricPolytope(verts)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: LpBall(3.0, (math.nan, 1.0, 1.0)), id="lp-nan"),
            pytest.param(lambda: LpBall(3.0, (math.inf, 1.0, 1.0)), id="lp-inf"),
            pytest.param(lambda: Ellipsoid(np.diag([math.nan, 1.0, 1.0])), id="ellipsoid-nan"),
            pytest.param(lambda: Ellipsoid(np.diag([math.inf, 1.0, 1.0])), id="ellipsoid-inf"),
            pytest.param(lambda: RadialField(np.full((9, 8), math.nan)), id="radial-nan"),
            pytest.param(lambda: RadialField(np.full((9, 8), math.inf)), id="radial-inf"),
        ],
    )
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(errors.DegenerateBody):
            make()

    def test_bad_exponent_rejected(self):
        with pytest.raises(errors.BadParameter):
            LpBall(1.0)

    def test_bodies_and_maps_are_immutable(self):
        A = LinearMap3(np.diag([1.0, 2.0, 0.5]))
        for obj, attr in (
            (cube(), "vertices"),
            (LpBall(2.0), "p"),
            (Ellipsoid(np.diag(1.0 / np.array([1.0, 2.0, 0.5]) ** 2)), "M"),
            (RadialField(np.ones((9, 8))), "values"),
            (TransformedBody(LpBall(2.0), A), "base"),
            (A, "matrix"),
        ):
            with pytest.raises(AttributeError):
                setattr(obj, attr, None)

    def test_facets_consistent(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            K = random_symmetric_polytope(rng, pairs=8)
            vals = K.vertices @ K.facets.T
            assert np.all(vals <= 1.0 + 1e-10)
            # every facet is supported by at least three vertices
            assert np.all(np.sum(np.abs(vals - 1.0) < 1e-9, axis=0) >= 3)

    @pytest.mark.parametrize("scale", [1e80, 1e150, 1e-12, 1e-110])
    def test_cubes_at_extreme_scales(self, scale, grid):
        # the hull runs on the vertices scaled by a power of two, and the
        # interior test is relative to the body's size
        K = SymmetricPolytope(scale * cube().vertices)
        assert len(K.vertices) == 8 and len(K.facets) == 6
        if scale != 1e150:  # there |K| overflows, and a body file is refused
            assert volume_product(K, grid) == pytest.approx(32.0 / 3.0, rel=1e-10)

    @pytest.mark.parametrize("scale", [1e9, 1e10, 1e20, 1e70])
    def test_large_polytopes_keep_their_facets(self, scale):
        # the facet rows scale as 1 / scale; their merge tolerance follows
        K = SymmetricPolytope(scale * cube().vertices)
        assert len(K.facets) == 6
        assert np.allclose(K.facets * scale, cube().facets, rtol=0.0, atol=1e-12)
        pts = np.random.default_rng(8).standard_normal((8, 3))
        unit = SymmetricPolytope(np.vstack([pts, -pts]))
        big = SymmetricPolytope(scale * np.vstack([pts, -pts]))
        assert len(big.facets) == len(unit.facets)
        assert np.allclose(big.facets * scale, unit.facets, rtol=1e-12, atol=0.0)


class TestGaugeRadial:
    def test_cube_gauge(self):
        mu, rho = gauge_radial(cube(), (2.0, 0.0, 0.0))
        assert mu == pytest.approx(2.0, abs=1e-14)
        assert rho == pytest.approx(0.5, abs=1e-14)

    def test_ball_gauge(self):
        mu, rho = gauge_radial(LpBall(2.0), (0.0, 1.0, 0.0))
        assert mu == pytest.approx(1.0, abs=1e-14)
        assert rho == pytest.approx(1.0, abs=1e-14)

    def test_zero_vector(self):
        with pytest.raises(errors.ZeroVector):
            gauge_radial(cube(), (0.0, 0.0, 0.0))

    def test_polytope_gauge_vs_membership_bisection(self):
        rng = np.random.default_rng(11)
        K = random_symmetric_polytope(rng, pairs=9)
        for v in unit_dirs(rng, 20):
            mu = K.gauge(v)
            lo, hi = 0.0, 10.0 / mu
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if np.all(K.facets @ (mid * v) <= 1.0):
                    lo = mid
                else:
                    hi = mid
            assert abs(1.0 / mu - lo) < 1e-10

    def test_gauge_vs_support_duality_oracle(self):
        rng = np.random.default_rng(12)
        for K in (random_lp_ball(rng), random_smooth_body(rng)):
            for v in unit_dirs(rng, 5):
                mu = K.gauge(v)
                lower = oracles.support_gauge(K, v, n=20_000)
                assert lower <= mu + 1e-9
                assert lower > mu * (1.0 - 1e-2)

    @settings(max_examples=25, deadline=None)
    @given(
        lam=st.floats(0.01, 100.0),
        seed=st.integers(0, 10_000),
    )
    def test_homogeneity(self, lam, seed):
        rng = np.random.default_rng(seed)
        K = random_lp_ball(rng)
        v = unit_dirs(rng, 1)[0]
        assert K.gauge(lam * v) == pytest.approx(lam * K.gauge(v), rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_central_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        bodies = [
            random_symmetric_polytope(rng, pairs=6),
            random_lp_ball(rng),
            random_smooth_body(rng),
        ]
        us = unit_dirs(rng, 50)
        for K in bodies:
            assert np.allclose(K.radial_many(us), K.radial_many(-us), rtol=1e-12)


class TestLpRowKernels:
    """The LpBall evaluators run on coordinate rows; each value is bit for
    bit that of the (..., 3) formula of the oracles, on the ball and on a
    linear image of it."""

    SHAPES = [(3,), (0, 3), (40, 3), (4, 5, 3), (2, 7, 3)]

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.7, 9.0, "random"])
    def test_match_last_axis_formulas(self, p):
        rng = np.random.default_rng(17 if p == "random" else int(10 * p))
        K = LpBall(rng.uniform(1.2, 9.0) if p == "random" else p, rng.uniform(0.5, 2.0, size=3))
        A = LinearMap3(np.eye(3) + 0.3 * rng.standard_normal((3, 3)))
        L, inv = K.transformed(A), A.inverse
        for shape in self.SHAPES:
            x = rng.standard_normal(shape)
            x.reshape(-1)[::5] = 0.0  # points on the coordinate planes
            cases = [
                (K.gauge_many(x), oracles.lp_gauge(K, x)),
                (K.support_many(x), oracles.lp_support(K, x)),
                (K.lambda_many(x), oracles.lp_lambda(K, x)),
                (L.gauge_many(x), oracles.lp_gauge(K, x @ inv.T)),
                (L.support_many(x), oracles.lp_support(K, x @ A.matrix)),
                (L.lambda_many(x), oracles.lp_lambda(K, x @ inv.T) @ inv),
            ]
            for got, want in cases:
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want)


class TestSupport:
    def test_cube_support(self):
        assert support(cube(), (1.0, 1.0, 1.0)) == pytest.approx(3.0, abs=1e-14)

    def test_ellipsoid_axis(self):
        E = Ellipsoid(np.diag([0.25, 1.0, 1.0]))
        assert E.support((1.0, 0.0, 0.0)) == pytest.approx(2.0, abs=1e-12)

    def test_lp_support_is_dual_norm(self):
        rng = np.random.default_rng(21)
        K = LpBall(3.0, (1.0, 0.7, 1.3))
        q = 1.5  # conjugate exponent of p = 3
        for u in unit_dirs(rng, 10):
            expected = np.sum(np.abs(u * K.axes) ** q) ** (1.0 / q)
            assert K.support(u) == pytest.approx(expected, rel=1e-12)

    def test_support_vs_boundary_sampling(self):
        rng = np.random.default_rng(22)
        K = random_smooth_body(rng)
        dirs = unit_dirs(rng, 6)
        us = unit_dirs(rng, 20_000)
        bdry = us * K.radial_many(us)[:, None]
        for u in dirs:
            h = K.support(u)
            best = float(np.max(bdry @ u))
            assert best <= h + 1e-9
            assert best > h * (1.0 - 1e-3)

    def test_support_is_polar_gauge(self):
        rng = np.random.default_rng(23)
        K = random_symmetric_polytope(rng, pairs=7)
        Kp = polar(K)
        for u in unit_dirs(rng, 20):
            assert K.support(u) == pytest.approx(Kp.gauge(u), rel=1e-10)


class TestPolar:
    def test_cube_polar_is_cross(self):
        Kp = polar(cube())
        got = np.array(sorted(map(tuple, np.round(Kp.vertices, 12))))
        want = np.array(sorted(map(tuple, cross_polytope().vertices)))
        assert np.allclose(got, want, atol=1e-12)

    def test_ellipsoid_polar_axes(self):
        E = Ellipsoid(np.diag(1.0 / np.array([2.0, 1.0, 0.5]) ** 2))
        Ep = polar(E)
        assert Ep.support((1.0, 0.0, 0.0)) == pytest.approx(0.5, rel=1e-12)
        assert Ep.support((0.0, 0.0, 1.0)) == pytest.approx(2.0, rel=1e-12)

    def test_definitional_identity(self):
        rng = np.random.default_rng(31)
        for K in (random_lp_ball(rng), random_symmetric_polytope(rng, pairs=8)):
            Kp = polar(K)
            for u in unit_dirs(rng, 10):
                rho_p = 1.0 / Kp.gauge(u)
                assert rho_p * K.support(u) == pytest.approx(1.0, rel=1e-10)

    def test_involution_analytic(self):
        rng = np.random.default_rng(32)
        grid = make_grid(64, 128)
        us = grid.units
        for K in (random_lp_ball(rng), random_symmetric_polytope(rng, pairs=9),
                  random_smooth_body(rng)):
            Kpp = polar(polar(K))
            r0, r1 = K.radial_many(us), Kpp.radial_many(us)
            assert np.max(np.abs(r1 / r0 - 1.0)) < 1e-10

    def test_involution_radial_field(self):
        K0 = LpBall(3.0, (1.0, 0.8, 1.2))
        K = RadialField(K0.radial_many(_table_units(64, 128)))
        us = make_grid(64, 128).units
        r0, r1 = K.radial_many(us), polar(polar(K)).radial_many(us)
        assert np.max(np.abs(r1 / r0 - 1.0)) < 1e-6

    def test_radial_lambda_memory_bounded(self):
        # boundary points of the 128x256 grid against a 33x64 table: the
        # dense query-by-table dot matrix alone would take 553 MB
        K = RadialField(1.0 / np.sum(_table_units(32, 64) ** 4, axis=-1) ** 0.25)
        grid = make_grid(128, 256)
        pts = grid.units * K.radial_many(grid.units)[:, None]
        tracemalloc.start()
        try:
            y = K.lambda_many(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        assert np.allclose(np.einsum("ij,ij->i", pts, y), 1.0, atol=0.01)

    def test_polytope_counts_swap(self):
        rng = np.random.default_rng(33)
        K = random_symmetric_polytope(rng, pairs=11)
        Kp = polar(K)
        assert len(Kp.vertices) == len(K.facets)
        assert len(Kp.facets) == len(K.vertices)


class TestBoundaryMap:
    def test_ball_self_dual(self):
        x = np.array([1.0, 2.0, -2.0]) / 3.0
        assert np.allclose(boundary_map(LpBall(2.0), x), x, atol=1e-12)

    def test_ellipsoid_gradient(self):
        E = Ellipsoid(np.diag(1.0 / np.array([1.5, 1.0, 0.75]) ** 2))
        rng = np.random.default_rng(41)
        for u in unit_dirs(rng, 5):
            x = u / E.gauge(u)
            assert np.allclose(boundary_map(E, x), E.M @ x, atol=1e-10)

    def test_lp_against_finite_difference_support(self):
        K = LpBall(3.5, (1.0, 0.9, 1.2))
        rng = np.random.default_rng(42)
        for u in unit_dirs(rng, 5):
            x = u / K.gauge(u)
            y = boundary_map(K, x)
            # y is on the boundary of the polar where the gradient of the polar
            # gauge (= support of K) points back to x / (x.y)
            eps = 1e-6
            g = np.array([
                (K.support(y + eps * e) - K.support(y - eps * e)) / (2 * eps)
                for e in np.eye(3)
            ])
            assert np.allclose(g, x, atol=1e-6)

    def test_pairing_and_polar_membership(self, grid):
        rng = np.random.default_rng(43)
        bodies = [random_lp_ball(rng), random_smooth_body(rng),
                  random_symmetric_polytope(rng, pairs=8)]
        for K in bodies:
            Kp = polar(K)
            us = unit_dirs(rng, 200)
            xs = us * K.radial_many(us)[:, None]
            ys = K.lambda_many(xs)
            assert np.max(np.abs(np.sum(xs * ys, axis=1) - 1.0)) < 1e-8
            assert np.max(np.abs(Kp.gauge_many(ys) - 1.0)) < 1e-8

    def test_not_on_boundary(self):
        with pytest.raises(errors.NotOnBoundary):
            boundary_map(LpBall(2.0), np.array([0.5, 0.0, 0.0]))

    def test_polytope_tie_break_lowest_facet(self):
        K = cube()
        # (1,1,0) lies on the edge shared by facets x<=1 and y<=1
        y = boundary_map(K, np.array([1.0, 1.0, 0.0]))
        i = int(np.argmin(np.max(np.abs(K.facets - y), axis=1)))
        js = np.nonzero(np.abs(K.facets @ np.array([1.0, 1.0, 0.0]) - 1.0) < 1e-12)[0]
        assert i == js.min()


def _l4_table():
    """The l4 unit ball tabulated at 32x64."""
    return RadialField(1.0 / np.sum(_table_units(32, 64) ** 4, axis=-1) ** 0.25)


def _tables():
    """32x64 tables: the l4 ball, the unit ball (whose boundary map meets
    many ties), three random linear images of lp balls and a 4:1:1 body."""
    rng = np.random.default_rng(49)
    tables = [_l4_table(), RadialField(np.ones((33, 64)))]
    tables += [RadialField(random_smooth_body(rng).radial_many(_table_units(32, 64))) for _ in range(3)]
    tables.append(RadialField(LpBall(3.0, (4.0, 1.0, 1.0)).radial_many(_table_units(32, 64))))
    return tables


class TestRadialContactMap:
    def test_matches_nine_pass_stencil(self, fine_grid):
        rng = np.random.default_rng(47)
        tables = [_l4_table()]
        for _ in range(2):
            K0 = random_smooth_body(rng)  # a random linear image of an lp ball
            tables.append(RadialField(K0.radial_many(_table_units(32, 64))))
        us = fine_grid.units
        for K in tables + [polar(K) for K in tables]:
            pts = us * K.radial_many(us)[:, None]
            ref = oracles.stencil_radial_lambda(K, pts)
            assert np.max(np.abs(K.lambda_many(pts) - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_three_max_dot_calls(self, monkeypatch):
        # the table's support, the argmax over the polar table and the
        # support at the refined directions; the stencil reads the table
        calls = []
        max_dot = body_module._max_dot

        def counted(x, pts, reduce=np.max):
            calls.append(len(np.reshape(x, (-1, 3))))
            return max_dot(x, pts, reduce)

        K = _l4_table()
        us = make_grid(16, 32).units
        pts = us * K.radial_many(us)[:, None]
        monkeypatch.setattr(body_module, "_max_dot", counted)
        K.lambda_many(pts)
        assert calls == [33 * 64, len(pts), len(pts)]

    def test_one_table_support_per_body(self, monkeypatch):
        # h_K at the table directions is computed once, where first read:
        # two boundary maps and the polar all read it
        sizes = []
        support = RadialField.support_many

        def counted(self, us):
            sizes.append(len(np.reshape(us, (-1, 3))))
            return support(self, us)

        K = _l4_table()
        us = make_grid(16, 32).units
        pts = us * K.radial_many(us)[:, None]
        monkeypatch.setattr(RadialField, "support_many", counted)
        K.lambda_many(pts)
        K.lambda_many(pts[:100])
        polar(K)
        assert sizes.count(33 * 64) == 1

    def test_polar_is_full_pass_table(self):
        # the polar table 1 / h_K is that of the full max-dot pass, bit for bit
        for K in _tables():
            units = body_module._table_units(K.n_alpha, K.n_beta)
            raw = 1.0 / oracles.brute_max_dot(units, (K.values[..., None] * units).reshape(-1, 3))
            assert polar(K).values.tobytes() == RadialField(raw).values.tobytes()

    @pytest.mark.parametrize("reduce", [np.max, np.argmax])
    def test_max_dot_matches_full_pass(self, fine_grid, reduce):
        # the binned, pruned kernel against every column in row blocks: the
        # boundary points and table directions of the tables and their polars
        # as columns, single and batched queries as rows
        rng = np.random.default_rng(50)
        us = fine_grid.units
        tables = _tables()
        for K in tables + [polar(K) for K in tables]:
            units = body_module._table_units(K.n_alpha, K.n_beta).reshape(-1, 3)
            queries = [rng.standard_normal(shape) for shape in ((3,), (0, 3), (1, 3), (2, 7, 3), (513, 3))]
            queries += [us, us * K.radial_many(us)[:, None]]
            for pts in (K._bpts, units / K._table_support()[:, None]):
                for x in queries:
                    got = body_module._max_dot(x, pts, reduce)
                    want = oracles.brute_max_dot(x, pts, reduce)
                    assert got.shape == want.shape == x.shape[:-1]
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [1, 7, None])
    def test_max_dot_chunk_width(self, monkeypatch, rows):
        # 999 rows split unevenly: 2 rows a block when one is asked for (the
        # last block takes 3), 7, and the default 124
        rng = np.random.default_rng(48)
        x = rng.standard_normal((999, 3))
        pts = rng.standard_normal((2112, 3))
        if rows is not None:
            monkeypatch.setattr(body_module, "_MAX_DOT_CHUNK", rows * len(pts))
        dots = x @ pts.T
        m = body_module._max_dot(x, pts)
        j = body_module._max_dot(x, pts, reduce=np.argmax)
        assert m.tobytes() == np.max(dots, axis=1).tobytes()
        assert np.array_equal(j, np.argmax(dots, axis=1))


class TestApplyLinear:
    def test_identity(self):
        rng = np.random.default_rng(51)
        K = random_lp_ball(rng)
        L = K.transformed(LinearMap3(np.eye(3)))
        us = unit_dirs(rng, 30)
        assert np.allclose(L.radial_many(us), K.radial_many(us), rtol=1e-14)

    @pytest.mark.parametrize("scale", [1e-5, 1e5])
    def test_scaled_identity(self, grid, scale):
        # the singularity test is relative to the row lengths, so a scaled
        # identity is as regular as the identity
        A = LinearMap3(scale * np.eye(3))
        assert A.det == pytest.approx(scale**3, rel=1e-12)
        from mahlerlab.quadrature import volume

        assert volume(cube().transformed(A), grid) == pytest.approx(8.0 * scale**3, rel=1e-12)

    def test_cube_stretch(self, grid):
        from mahlerlab.quadrature import volume

        L = cube().transformed(LinearMap3(np.diag([2.0, 1.0, 1.0])))
        assert volume(L, grid) == pytest.approx(16.0, abs=1e-12)
        assert L.support((1.0, 0.0, 0.0)) == pytest.approx(2.0, abs=1e-12)

    def test_gauge_pullback(self):
        rng = np.random.default_rng(52)
        A = LinearMap3(np.eye(3) + 0.3 * rng.standard_normal((3, 3)))
        K = random_lp_ball(rng)
        L = K.transformed(A)
        pts = rng.standard_normal((40, 3))
        assert np.allclose(L.gauge_many(pts), K.gauge_many(pts @ A.inverse.T),
                           rtol=1e-10)

    def test_singular_rejected(self):
        with pytest.raises(errors.SingularMap):
            LinearMap3(np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(errors.BadParameter):
            LinearMap3(m)

    def test_volume_product_invariance(self, grid):
        rng = np.random.default_rng(53)
        K = random_symmetric_polytope(rng, pairs=8)
        A = LinearMap3(np.eye(3) + 0.4 * rng.standard_normal((3, 3)))
        p0 = volume_product(K, grid)
        p1 = volume_product(K.transformed(A), grid)
        assert p1 == pytest.approx(p0, rel=1e-8)


def _lexsorted(rows):
    return rows[np.lexsort(rows.T[::-1])]


def _polytope_images():
    """(polytope, map) pairs: the cube, the cross-polytope, random polytopes
    and sheared cubes, each under a random unit shear, a rotation and a
    random map."""
    rng = np.random.default_rng(61)
    bodies = [cube(), cross_polytope()]
    bodies += [random_symmetric_polytope(rng, pairs=int(rng.integers(4, 16))) for _ in range(4)]
    bodies += [sheared_cube(rng) for _ in range(2)]
    Rx, Ry, Rz = (LinearMap3(_rotation(i, t)) for i, t in enumerate((0.7, 1.9, 2.6)))
    rotation = Rx.compose(Ry).compose(Rz)
    out = []
    for K in bodies:
        shear = np.eye(3)
        shear[0, 1], shear[0, 2], shear[1, 2] = rng.uniform(-0.6, 0.6, size=3)
        out += [(K, LinearMap3(shear)), (K, rotation)]
        out.append((K, LinearMap3(np.eye(3) + 0.4 * rng.standard_normal((3, 3)))))
    return out


_POLYTOPE_IMAGES = _polytope_images()


def _assert_constructor_agrees(L):
    """The public constructor on L's vertices finds the same vertex array and
    the same facets within 1e-12 (as sets of rows)."""
    R = SymmetricPolytope(L.vertices)
    assert np.array_equal(R.vertices, L.vertices)
    assert R.facets.shape == L.facets.shape
    gap = np.linalg.norm(R.facets[:, None, :] - L.facets[None, :, :], axis=-1)
    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-12


class TestPolytopeParts:
    """Images and polars of a checked polytope are built from its parts."""

    def test_no_hull_and_no_symmetry_scan(self, monkeypatch):
        K = random_symmetric_polytope(np.random.default_rng(62), pairs=9)
        A = LinearMap3(np.eye(3) + 0.3 * np.random.default_rng(63).standard_normal((3, 3)))
        calls = {"hull": 0, "symmetry": 0}
        hull, check = body_module.ConvexHull, body_module._check_symmetric_vertices

        def counted_hull(*a, **k):
            calls["hull"] += 1
            return hull(*a, **k)

        def counted_check(*a, **k):
            calls["symmetry"] += 1
            return check(*a, **k)

        monkeypatch.setattr(body_module, "ConvexHull", counted_hull)
        monkeypatch.setattr(body_module, "_check_symmetric_vertices", counted_check)
        K.transformed(A)
        K.polar_body()
        assert calls == {"hull": 0, "symmetry": 0}
        SymmetricPolytope(K.vertices)  # outside input is still checked
        assert calls == {"hull": 1, "symmetry": 1}

    @pytest.mark.parametrize("case", range(0, len(_POLYTOPE_IMAGES), 2))
    def test_triangles_are_outward(self, case):
        """Constructed, mapped (det of either sign) and polar triangulations
        are outward and tile the boundary: their cones sum to the hull volume."""
        K, A = _POLYTOPE_IMAGES[case]
        flip = LinearMap3(np.diag([1.0, -1.0, 1.0]))
        for L in (K, K.transformed(A), K.transformed(flip.compose(A)), K.polar_body(), polar(K).transformed(flip)):
            tri = L.vertices[L.triangles]
            cones = np.einsum("ij,ij->i", tri[:, 0], np.cross(tri[:, 1], tri[:, 2]))
            assert np.all(cones > 0)
            vol = oracles.qhull_volume(L)
            assert abs(np.sum(cones) / 6.0 - vol) <= 1e-12 * vol

    @pytest.mark.parametrize("case", range(len(_POLYTOPE_IMAGES)))
    def test_image_is_mapped_parts(self, case):
        K, A = _POLYTOPE_IMAGES[case]
        L = K.transformed(A)
        assert isinstance(L, SymmetricPolytope)
        assert np.array_equal(L.vertices, _lexsorted(K.vertices @ A.matrix.T))
        assert np.array_equal(L.facets, _lexsorted(K.facets @ A.inverse))
        _assert_constructor_agrees(L)

    @pytest.mark.parametrize("case", range(0, len(_POLYTOPE_IMAGES), 3))
    def test_polar_swaps_parts(self, case):
        K = _POLYTOPE_IMAGES[case][0]
        P = K.polar_body()
        assert np.array_equal(P.vertices, K.facets)
        assert np.array_equal(P.facets, K.vertices)
        _assert_constructor_agrees(P)


class TestMakeBodyDescriptors:
    def test_transformed_polytope_stays_exact(self):
        spec = {
            "type": "transformed",
            "base": {"type": "polytope", "vertices": cube().vertices.tolist()},
            "matrix": [[1.0, 0.3, 0.0], [0.0, 1.0, -0.2], [0.0, 0.0, 1.0]],
        }
        K = make_body(spec)
        assert isinstance(K, SymmetricPolytope)

    def test_transformed_ellipsoid_stays_exact(self):
        spec = {
            "type": "transformed",
            "base": {"type": "ellipsoid", "matrix": np.diag([1.0, 4.0, 0.25]).tolist()},
            "matrix": [[1.0, 0.3, 0.0], [0.0, 1.0, -0.2], [0.0, 0.0, 1.0]],
        }
        K = make_body(spec)
        assert isinstance(K, Ellipsoid)

    def test_label_is_ignored(self):
        spec = {"type": "lp", "p": 3.0, "axes": [1.0, 0.8, 1.2]}
        K = make_body({**spec, "label": "my lp ball"})
        assert isinstance(K, LpBall)
        assert np.array_equal(K.axes, make_body(spec).axes)
        assert not hasattr(K, "label") and not hasattr(K, "provenance")

    def test_bad_descriptor(self):
        with pytest.raises(errors.ParseError):
            make_body({"type": "nonsense"})
        with pytest.raises(errors.ParseError):
            make_body({"type": "lp"})

    def test_sphere_point_round_trip(self):
        a, b = 0.8, 4.0
        u = sphere_point(a, b)
        assert u[0] == pytest.approx(math.cos(a), abs=1e-15)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
