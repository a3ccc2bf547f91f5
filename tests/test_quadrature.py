import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import body_corpus, random_symmetric_polytope, sheared_cube
from mahlerlab import errors
from mahlerlab.body import (
    LinearMap3,
    LpBall,
    TransformedBody,
    cross_polytope,
    cube,
    polar,
    sphere_point,
)
from mahlerlab.quadrature import (
    OCTANT_SIGNS,
    make_grid,
    octant_volumes,
    polar_piece_volumes,
    projection_areas,
    quarter_areas,
    section_areas,
    volume,
    volume_product,
)
from mahlerlab import planar, quadrature
from mahlerlab.normalize import balance_angles, rotate
from oracles import section_polygon, wedge_volume
from test_normalize import POLYTOPES, ROTATIONS

FOUR_PI = 4.0 * math.pi


class TestMakeGrid:
    @pytest.mark.parametrize("na,nb", [(8, 16), (64, 128), (10, 20)])
    def test_weight_sum(self, na, nb):
        g = make_grid(na, nb)
        assert np.sum(g.weights) == pytest.approx(FOUR_PI, abs=1e-12)
        assert len(g.units) == na * nb

    def test_second_moment(self):
        g = make_grid(64, 128)
        m2 = np.sum(g.weights * g.units[:, 0] ** 2)
        assert m2 == pytest.approx(FOUR_PI / 3.0, abs=1e-12)

    def test_fourth_moment(self):
        g = make_grid(64, 128)
        m4 = np.sum(g.weights * g.units[:, 0] ** 4)
        assert m4 == pytest.approx(FOUR_PI / 5.0, abs=1e-10)

    @pytest.mark.parametrize("na,nb", [(7, 16), (8, 18), (4, 16), (8, 8192)])
    def test_bad_sizes(self, na, nb):
        with pytest.raises(errors.BadGridSize):
            make_grid(na, nb)

    @pytest.mark.parametrize("na,nb", [(8, 16), (96, 192), (128, 256)])
    def test_octant_labels(self, na, nb):
        g = make_grid(na, nb)
        for i, s in enumerate(OCTANT_SIGNS):
            m = g.octant == i
            assert np.all(g.units[m] * np.array(s) > 0)


    @pytest.mark.parametrize("na,nb", [(8, 16), (96, 192)])
    def test_per_grid_tables(self, na, nb):
        g = make_grid(na, nb)
        for i in range(8):
            assert np.array_equal(g.octant_nodes[i], np.flatnonzero(g.octant == i))
        betas = np.arange(nb) * (math.pi / nb)
        assert np.array_equal(g.theta_dirs, sphere_point(g.alpha[:, None], betas[None, :]))

    def test_classify_octants_matches_last_axis_reductions(self):
        rng = np.random.default_rng(23)
        for scale in (1e-150, 1.0, 1e150):
            x = rng.standard_normal((2000, 3)) * scale
            x[:20, 1] *= 1e-12
            x[20:40, 2] = 0.0
            idx, near = quadrature._classify_octants(x)
            want = np.min(np.abs(x), axis=-1) < 1e-9 * np.linalg.norm(x, axis=-1)
            assert near == float(np.mean(want)) > 0.0
            signs = np.array(OCTANT_SIGNS)[idx]
            assert np.all((signs > 0) == (x >= 0))


class TestVolume:
    def test_ball(self):
        v = volume(LpBall(2.0), make_grid(64, 128))
        assert v == pytest.approx(FOUR_PI / 3.0, rel=5e-4)

    def test_cube_exact(self, grid):
        assert volume(cube(), grid) == pytest.approx(8.0, abs=1e-12)

    def test_cross_exact_and_quadrature(self, fine_grid):
        K = cross_polytope()
        assert volume(K, fine_grid) == pytest.approx(4.0 / 3.0, abs=1e-12)
        # the identity map hides the polytope type, so the quadrature path runs
        vq = volume(TransformedBody(K, LinearMap3(np.eye(3))), fine_grid)
        assert vq == pytest.approx(4.0 / 3.0, rel=5e-3)

    def test_grid_convergence_monotone(self):
        errs = [
            abs(volume(LpBall(2.0), make_grid(n, 2 * n)) - FOUR_PI / 3)
            for n in (16, 32, 64, 128)
        ]
        # constant-rho integrand is exact at every size, so allow roundoff ties
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-13

    def test_grid_convergence_monotone_ellipsoid(self):
        from mahlerlab.body import Ellipsoid

        E = Ellipsoid(np.diag(1.0 / np.array([1.0, 0.6, 1.4]) ** 2))
        v = 4.0 * math.pi / 3.0 * 1.0 * 0.6 * 1.4
        errs = [
            abs(volume(E, make_grid(n, 2 * n)) - v)
            for n in (16, 32, 64, 128)
        ]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-13

    def test_monte_carlo_cross_check(self, grid):
        rng = np.random.default_rng(7)
        K = random_symmetric_polytope(rng, pairs=9)
        assert volume(K, grid) == pytest.approx(oracles.mc_volume(K, n=400_000), rel=2e-2)


class TestOctantVolumes:
    def test_cube(self, grid):
        assert np.allclose(octant_volumes(cube(), grid), 1.0, atol=1e-12)

    def test_unconditional_equal(self, grid):
        K = LpBall(3.0, (1.0, 0.7, 1.3))
        ov = octant_volumes(K, grid)
        assert np.allclose(ov, volume(K, grid) / 8.0, rtol=1e-10)

    def test_sheared_cube_vs_monte_carlo(self, grid):
        A = np.eye(3)
        A[1, 2] = 0.3
        K = cube().transformed(LinearMap3(A))
        ov = octant_volumes(K, grid)
        mc = oracles.mc_octant_volumes(K, n=10_000_000)
        assert np.allclose(ov, mc, atol=0.004 * np.max(ov))

    def test_exact_vs_quadrature(self, fine_grid):
        rng = np.random.default_rng(8)
        K = random_symmetric_polytope(rng, pairs=7)
        ex = octant_volumes(K, fine_grid)
        qu = octant_volumes(TransformedBody(K, LinearMap3(np.eye(3))), fine_grid)
        assert np.allclose(ex, qu, rtol=5e-3)

    def test_polytope_cuts_upper_octants_only(self, grid):
        K = random_symmetric_polytope(np.random.default_rng(9), 12)
        ov = octant_volumes(K, grid)
        assert ov[4:].tobytes() == ov[[2, 3, 0, 1]].tobytes()
        # the mirrored lower octants are the ones a direct cut measures
        lower = [oracles.qhull_octant_volume(K, s) for s in OCTANT_SIGNS[4:]]
        assert np.allclose(ov[4:], lower, rtol=1e-13, atol=0.0)

    def test_partition(self, grid):
        for K in body_corpus(seed=1, n_polytopes=2, n_lp=2, n_sheared=1, n_smooth=1):
            ov = octant_volumes(K, grid)
            assert np.all(ov > 0)
            assert np.sum(ov) == pytest.approx(volume(K, grid), rel=1e-8)


class TestWedgeVolume:
    def test_cube_quarter(self):
        assert wedge_volume(cube(), 0.0, 0.5 * math.pi) == pytest.approx(2.0, abs=1e-12)

    def test_additive(self):
        rng = np.random.default_rng(9)
        K = random_symmetric_polytope(rng, pairs=8)
        b = sorted(rng.uniform(0.0, math.pi, size=2))
        total = wedge_volume(K, 0.0, math.pi)
        parts = (
            wedge_volume(K, 0.0, b[0])
            + wedge_volume(K, b[0], b[1])
            + wedge_volume(K, b[1], math.pi)
        )
        assert parts == pytest.approx(total, rel=1e-10)

    def test_half_of_volume(self, grid):
        rng = np.random.default_rng(10)
        K = random_symmetric_polytope(rng, pairs=8)
        assert wedge_volume(K, 0.0, math.pi) == pytest.approx(
            volume(K, grid) / 2.0, rel=1e-10
        )


def _cone_sum_bodies():
    """The cube (four facets parallel to the wedge axis), the cross-polytope
    (vertices on the coordinate planes), a cube under a map with det < 0, and
    the rotated polytopes of the solver tests."""
    flip = LinearMap3([[1.0, 0.4, 0.2], [0.0, 1.0, 0.3], [0.0, 0.0, -1.0]])
    bodies = {"cube": cube(), "cross": cross_polytope(), "cube_det_neg": cube().transformed(flip)}
    for name in sorted(POLYTOPES):
        for phi, psi in ROTATIONS:
            bodies[f"{name}@{phi:.3g},{psi:.3g}"] = rotate(POLYTOPES[name](), 0.0, phi, psi)
    return bodies


_CONE_SUM_BODIES = _cone_sum_bodies()

# the quarters in the order of quarter_areas: (plane, sign of the first
# in-plane coordinate, sign of the second)
_QUARTERS = ((1, 1, 1), (1, -1, 1), (2, 1, 1), (2, -1, 1), (3, 1, 1), (3, -1, 1))


class TestConeSumsMatchQhull:
    """Volume, octants, wedges and polar pieces of a polytope from its
    boundary triangles agree with qhull to 1e-12 of the volume."""

    @pytest.mark.parametrize("name", sorted(_CONE_SUM_BODIES))
    def test_volume_octants_wedges(self, grid, name):
        K = _CONE_SUM_BODIES[name]
        vol = oracles.qhull_volume(K)
        assert abs(volume(K, grid) - vol) <= 1e-12 * vol
        want = [oracles.qhull_octant_volume(K, s) for s in OCTANT_SIGNS]
        assert np.max(np.abs(octant_volumes(K, grid) - want)) <= 1e-12 * vol
        for b0, b1 in ((0.0, 1e-5), (0.0, math.pi - 1e-5), (0.0, 0.5 * math.pi), (0.3, 2.9), (1.0, math.pi)):
            got = wedge_volume(K, b0, b1)
            assert abs(got - oracles.qhull_wedge_volume(K, b0, b1)) <= 1e-12 * vol

    @pytest.mark.parametrize("name", sorted(_CONE_SUM_BODIES))
    def test_polar_pieces(self, grid, name):
        K = _CONE_SUM_BODIES[name]
        try:
            want = oracles.qhull_polar_pieces(polar(K))
        except errors.ClassificationUnstable:
            with pytest.raises(errors.ClassificationUnstable):
                polar_piece_volumes(K, grid)
            return
        vol_p = oracles.qhull_volume(polar(K))
        assert np.max(np.abs(polar_piece_volumes(K, grid) - want)) <= 1e-12 * vol_p

    @pytest.mark.parametrize("name", sorted(_CONE_SUM_BODIES))
    def test_shadows_match_hull(self, name):
        # the triangles' vector areas against the 2-D hull of the projected
        # vertices, on the body and on its polar
        for K in (_CONE_SUM_BODIES[name], polar(_CONE_SUM_BODIES[name])):
            want = [abs(float(oracles.frac_shoelace(oracles.projection_polygon(K, p)))) for p in (1, 2, 3)]
            assert np.allclose(projection_areas(K), want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", sorted(_CONE_SUM_BODIES))
    def test_sections_match_facet_duality(self, grid, name):
        # the fan sums over the cut segments against the facet-duality
        # polygons, clipped and measured by the 2-D kernel
        K = _CONE_SUM_BODIES[name]
        sections = {p: oracles.hull_section_polygon(K, p) for p in (1, 2, 3)}
        Q = np.array([planar.shoelace(sections[p]) for p in (1, 2, 3)])
        assert np.allclose(section_areas(K), Q, rtol=1e-12, atol=0.0)
        for p in (1, 2, 3):
            assert planar.shoelace(section_polygon(K, p)) == pytest.approx(Q[p - 1], rel=1e-12)
        want = [
            planar.shoelace(oracles.clip_quadrant(sections[p], s0, s1))
            for p, s0, s1 in _QUARTERS
        ]
        assert np.allclose(quarter_areas(K), want, rtol=1e-12, atol=0.0)
        ang = balance_angles(K, grid)
        phi = oracles.hull_sector_polytope(K, 0.0)
        psi = oracles.hull_sector_polytope(K, ang.theta_cap)
        assert ang.phi_cap == pytest.approx(phi, rel=1e-12)
        assert ang.psi_cap == pytest.approx(psi, rel=1e-12)


class TestPolarPieces:
    def test_cube_pieces(self, grid):
        assert np.allclose(polar_piece_volumes(cube(), grid), 1.0 / 6.0, atol=1e-12)

    def test_unconditional_equal(self, grid):
        K = LpBall(3.0, (1.0, 0.7, 1.3))
        pv = polar_piece_volumes(K, grid)
        assert np.allclose(pv, volume(polar(K), grid) / 8.0, rtol=1e-6)

    def test_sheared_cube_vs_monte_carlo(self, grid):
        K = sheared_cube(np.random.default_rng(12))
        pv = polar_piece_volumes(K, grid)
        # Monte Carlo with the same Lambda classification, independent volumes
        Kp = polar(K)
        rng = np.random.default_rng(99)
        box = float(max(Kp.support((1, 0, 0)), Kp.support((0, 1, 0)), Kp.support((0, 0, 1))))
        pts = oracles.mc_points(rng, 4_000_000, box)
        inside = pts[Kp.gauge_many(pts) <= 1.0]
        x = Kp.lambda_many(inside)
        cell = (2.0 * box) ** 3 / len(pts)
        mc = np.zeros(8)
        for i, s in enumerate(OCTANT_SIGNS):
            mc[i] = cell * np.count_nonzero(np.all(x * np.array(s) >= 0, axis=1))
        assert np.allclose(pv, mc, atol=0.01 * np.max(pv))

    def test_partition_and_opposites(self, grid):
        for K in body_corpus(seed=2, n_polytopes=2, n_lp=1, n_sheared=1, n_smooth=1):
            pv = polar_piece_volumes(K, grid)
            assert np.all(pv >= 0)
            assert np.sum(pv) == pytest.approx(volume(polar(K), grid), rel=1e-6)
            # central symmetry pairs each octant with its antipode
            assert np.allclose(pv[[0, 1, 2, 3]], pv[[6, 7, 4, 5]],
                               atol=1e-6 * np.max(pv))


class TestPlaneMeasures:
    def test_cube_and_its_polar(self):
        assert np.array_equal(section_areas(cube()), [4.0, 4.0, 4.0])
        assert np.array_equal(projection_areas(cube()), [4.0, 4.0, 4.0])
        assert np.array_equal(projection_areas(cross_polytope()), [2.0, 2.0, 2.0])

    def test_ball(self):
        Q, P = section_areas(LpBall(2.0)), projection_areas(LpBall(2.0))
        assert np.allclose(Q, math.pi, rtol=1e-3)
        assert np.allclose(P, math.pi, rtol=1e-3)

    def test_zonotope_projection_vs_rasterization(self):
        rng = np.random.default_rng(13)
        gens = rng.standard_normal((4, 3))
        signs = np.array(
            [[s0, s1, s2, s3] for s0 in (-1, 1) for s1 in (-1, 1)
             for s2 in (-1, 1) for s3 in (-1, 1)]
        )
        from mahlerlab.body import SymmetricPolytope

        K = SymmetricPolytope(signs @ gens)
        P = projection_areas(K)
        for plane in (1, 2, 3):
            axis = plane - 1
            # rasterize the shadow: a 2D point is covered iff the line along
            # the dropped axis meets the polytope (1D interval feasibility)
            j, k = [(1, 2), (2, 0), (0, 1)][axis]
            lim = float(np.max(np.abs(K.vertices))) * 1.01
            n = 1024
            c = (np.arange(n) + 0.5) / n * 2 * lim - lim
            Y, Z = np.meshgrid(c, c, indexing="ij")
            q = np.zeros((n * n, 3))
            q[:, j], q[:, k] = Y.ravel(), Z.ravel()
            a = K.facets[:, axis]
            rhs = 1.0 - q @ K.facets.T
            lo = np.full(n * n, -np.inf)
            hi = np.full(n * n, np.inf)
            for m in range(len(a)):
                if a[m] > 1e-12:
                    hi = np.minimum(hi, rhs[:, m] / a[m])
                elif a[m] < -1e-12:
                    lo = np.maximum(lo, rhs[:, m] / a[m])
                else:
                    hi = np.where(rhs[:, m] < 0, -np.inf, hi)
            covered = np.count_nonzero(lo <= hi)
            assert P[axis] == pytest.approx(covered * (2 * lim / n) ** 2, rel=5e-3)

    def test_smooth_projection_consistency(self):
        # shadow of an axis-aligned lp ball in plane 1 is the 2D lp disc
        K = LpBall(3.0, (1.0, 0.8, 1.2))
        P = projection_areas(K)
        t = np.linspace(0.0, 2 * math.pi, 20_001)
        r = (np.abs(np.cos(t) / 0.8) ** 3 + np.abs(np.sin(t) / 1.2) ** 3) ** (-1 / 3)
        area = 0.5 * np.trapezoid(r**2, t)
        assert P[0] == pytest.approx(area, rel=1e-4)


class TestQuarterAreas:
    def test_cube(self):
        assert np.allclose(quarter_areas(cube()), 1.0, atol=1e-12)

    def test_unconditional_pairs(self):
        qa = quarter_areas(LpBall(3.0, (1.0, 0.7, 1.3)))
        assert qa[0] == pytest.approx(qa[1], rel=1e-10)
        assert qa[2] == pytest.approx(qa[3], rel=1e-10)
        assert qa[4] == pytest.approx(qa[5], rel=1e-10)

    def test_sheared_cube_vs_fraction_shoelace(self):
        K = sheared_cube(np.random.default_rng(14))
        qa = quarter_areas(K)
        # recompute each quarter with exact rational shoelace on the clipped
        # section polygon
        for n, (plane, s0, s1) in enumerate(
            [(1, 1, 1), (1, -1, 1), (2, 1, 1), (2, -1, 1), (3, 1, 1), (3, -1, 1)]
        ):
            poly = oracles.clip_quadrant(oracles.hull_section_polygon(K, plane), s0, s1)
            assert qa[n] == pytest.approx(abs(float(oracles.frac_shoelace(poly))),
                                          rel=1e-12)

    def test_half_section_identity(self):
        for K in body_corpus(seed=3, n_polytopes=2, n_lp=2, n_sheared=1, n_smooth=1):
            qa = quarter_areas(K)
            Q = section_areas(K)
            sums = np.array([qa[0] + qa[1], qa[2] + qa[3], qa[4] + qa[5]])
            assert np.allclose(sums, Q / 2.0, rtol=1e-8)

    def test_exact_vs_quadrature(self):
        K = sheared_cube(np.random.default_rng(15))
        ex = quarter_areas(K)
        qu = quarter_areas(TransformedBody(K, LinearMap3(np.eye(3))))
        assert np.allclose(ex, qu, rtol=1e-3)

    def test_one_section_per_plane(self, monkeypatch):
        # one piece-free cut per plane, and no pieces
        calls = []
        cut = quadrature._cut

        def counted(tris, n):
            calls.append(n)
            return cut(tris, n)

        monkeypatch.setattr(quadrature, "_cut", counted)
        monkeypatch.setattr(quadrature, "_split", None)
        quarter_areas(cube())
        assert len(calls) == 3


class TestVolumeProduct:
    def test_cube(self, grid):
        assert volume_product(cube(), grid) == pytest.approx(32.0 / 3.0, abs=1e-12)

    def test_ball(self, fine_grid):
        assert volume_product(LpBall(2.0), fine_grid) == pytest.approx(
            (FOUR_PI / 3.0) ** 2, rel=1e-3
        )

    def test_affine_invariance(self, grid):
        rng = np.random.default_rng(16)
        K = random_symmetric_polytope(rng, pairs=8)
        p0 = volume_product(K, grid)
        for _ in range(20):
            A = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
            if abs(np.linalg.det(A)) < 0.2:
                continue
            assert volume_product(K.transformed(LinearMap3(A)), grid) == pytest.approx(
                p0, rel=1e-6
            )

    def test_blaschke_santalo_upper_bound(self, grid):
        top = (FOUR_PI / 3.0) ** 2
        for K in body_corpus(seed=4):
            assert volume_product(K, grid) <= top * (1.0 + 1e-3)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_lower_bound_random(self, seed, grid):
        rng = np.random.default_rng(seed)
        K = random_symmetric_polytope(rng, pairs=int(rng.integers(4, 20)))
        assert volume_product(K, grid) >= 32.0 / 3.0 - 1e-6

