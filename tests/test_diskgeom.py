import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlab.diskgeom import (
    BOUNDARY_MARGIN,
    IDENTITY,
    DiskPoint,
    MobiusAutomorphism,
    Polyline,
    QuadratureConvergenceWarning,
    euclid_radius,
    geodesic,
    hyp_area,
    hyp_distance,
    hyp_length,
    hyp_radius,
    mobius_apply,
    mobius_compose,
    mobius_invert,
    mobius_rotation,
    mobius_to_zero,
)


def random_automorphism(rng) -> MobiusAutomorphism:
    w = 0.9 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    g = mobius_invert(mobius_to_zero(w))  # sends 0 to w
    return mobius_compose(g, mobius_rotation(rng.uniform(0, 2 * np.pi)))


def random_point(rng, rmax=0.9) -> DiskPoint:
    z = rmax * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return DiskPoint(z.real, z.imag)


disk_points = st.builds(
    lambda r, t: DiskPoint(r * math.cos(t), r * math.sin(t)),
    st.floats(0, 0.9),
    st.floats(0, 2 * math.pi),
)


class TestDiskPoint:
    def test_interior_ok(self):
        p = DiskPoint(0.3, -0.4)
        assert p.z == complex(0.3, -0.4)

    @pytest.mark.parametrize("bad", [1.0 + 0j, 0.999999999999j, 2.0, complex("inf")])
    def test_boundary_and_exterior_rejected(self, bad):
        with pytest.raises(ValueError):
            DiskPoint(bad.real, bad.imag)


class TestMobius:
    def test_renormalization(self):
        g = MobiusAutomorphism(2.0, 1.0)  # det 3, gets scaled
        assert abs(abs(g.a) ** 2 - abs(g.c) ** 2 - 1.0) < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            MobiusAutomorphism(1.0, 1.0)

    def test_identity_fixes_points(self):
        for z in [0j, 0.5 + 0.1j, -0.3j]:
            assert mobius_apply(IDENTITY, z) == z

    def test_to_zero_sends_center_to_origin(self):
        g = mobius_to_zero(0.5)
        assert abs(mobius_apply(g, 0.5)) < 1e-15

    def test_inverse_law(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = random_automorphism(rng)
            z = random_point(rng).z
            w = mobius_apply(mobius_invert(g), mobius_apply(g, z))
            assert abs(w - z) < 1e-12
            gg = mobius_compose(g, mobius_invert(g))
            assert gg.coefficient_distance(IDENTITY) < 1e-12

    def test_apply_stays_inside(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            g = random_automorphism(rng)
            w = mobius_apply(g, random_point(rng))
            assert abs(w.z) < 1.0


class TestDistance:
    def test_coincident(self):
        assert hyp_distance(0j, 0j) == 0.0

    def test_half_radius(self):
        # t = 0.5 -> log 3
        assert hyp_distance(0j, 0.5) == pytest.approx(math.log(3), abs=1e-12)

    def test_geodesic_length_oracle(self):
        # independent check: numeric arclength of the geodesic polyline
        z1, z2 = 0.3 + 0j, 0.3j
        oracle = hyp_length(geodesic(z1, z2, 10_000))
        assert hyp_distance(z1, z2) == pytest.approx(oracle, abs=1e-7)

    @given(disk_points, disk_points, disk_points)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, x, y, z):
        assert hyp_distance(x, z) <= hyp_distance(x, y) + hyp_distance(y, z) + 1e-12

    @given(disk_points, disk_points)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, x, y):
        assert hyp_distance(x, y) == pytest.approx(hyp_distance(y, x), abs=1e-14)

    def test_mobius_invariance(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            g = random_automorphism(rng)
            z1, z2 = random_point(rng), random_point(rng)
            d0 = hyp_distance(z1, z2)
            d1 = hyp_distance(mobius_apply(g, z1), mobius_apply(g, z2))
            worst = max(worst, abs(d1 - d0))
        assert worst < 1e-10


class TestLength:
    def test_single_vertex(self):
        assert hyp_length(Polyline((DiskPoint(0.2, 0.0),))) == 0.0

    def test_diameter_segment(self):
        # antiderivative oracle: int_0^x 2/(1-t^2) dt = log((1+x)/(1-x))
        x = 0.5
        oracle = math.log((1 + x) / (1 - x))
        got = hyp_length(Polyline((DiskPoint(0, 0), DiskPoint(x, 0))))
        assert got == pytest.approx(oracle, abs=1e-10)
        assert got == pytest.approx(math.log(3), abs=1e-10)

    def test_full_circle(self):
        # constant integrand: circumference = 4 pi R / (1 - R^2)
        R = 0.6
        oracle = 4 * math.pi * R / (1 - R * R)
        thetas = np.linspace(0, 2 * np.pi, 4001)[:-1]
        poly = Polyline(tuple(DiskPoint(R * math.cos(t), R * math.sin(t)) for t in thetas), closed=True)
        assert hyp_length(poly) == pytest.approx(oracle, rel=1e-6)

    def test_length_invariance_under_mobius(self):
        # invariance holds for the underlying curve; a polyline must sample it
        # densely enough that the chord-vs-arc discrepancy drops below 1e-9
        rng = np.random.default_rng(3)
        R = 0.5
        ts = np.linspace(0.0, 1.0, 10_000)
        pts = [DiskPoint(R * math.cos(t), R * math.sin(t)) for t in ts]
        poly = Polyline(tuple(pts))
        base = hyp_length(poly)
        for _ in range(3):
            g = random_automorphism(rng)
            moved = Polyline(tuple(mobius_apply(g, p) for p in pts))
            assert hyp_length(moved) == pytest.approx(base, rel=1e-9)

    def test_duplicate_vertices_canonicalized(self):
        p = DiskPoint(0.1, 0.1)
        poly = Polyline((p, p, DiskPoint(0.2, 0.1), DiskPoint(0.2, 0.1)))
        assert len(poly) == 2

    @pytest.mark.parametrize(
        "vertices",
        [(0.1, complex(math.nan, 0.0)), (0.1, 1j), (0.1, 1.0 - BOUNDARY_MARGIN / 2), ()],
        ids=["nan", "unit-circle", "inside-margin", "empty"],
    )
    def test_invalid_vertices_rejected(self, vertices):
        with pytest.raises(ValueError):
            Polyline(vertices)

    def test_vertices_one_read_only_array(self):
        mixed = Polyline((DiskPoint(0.1, 0.2), 0.3, 0.1 + 0.5j))
        assert np.array_equal(mixed.vertices, Polyline((0.1 + 0.2j, 0.3 + 0j, 0.1 + 0.5j)).vertices)
        with pytest.raises(ValueError):
            mixed.vertices[0] = 0.0


class TestArea:
    def test_empty_region(self):
        val = hyp_area(lambda p: False, ((-0.5, 0.5), (-0.5, 0.5)), 64)
        assert val == 0.0

    def test_unit_ball_area(self):
        # closed form: integrating circumference 2 pi sinh t over t in [0, r]
        r = 1.0
        oracle = 2 * math.pi * (math.cosh(r) - 1.0)
        R = euclid_radius(r)
        val = hyp_area(lambda p: abs(p.z) < R, ((-R - 0.01, R + 0.01), (-R - 0.01, R + 0.01)), 200)
        assert val == pytest.approx(oracle, rel=5e-3)

    def test_center_independence(self):
        r = 0.8
        oracle = 2 * math.pi * (math.cosh(r) - 1.0)
        center = 0.4 + 0.1j
        val = hyp_area(
            lambda p: hyp_distance(p, center) < r,
            ((-0.9, 0.9), (-0.9, 0.9)),
            220,
        )
        assert val == pytest.approx(oracle, rel=1e-2)

    def test_nonconvergence_warning(self):
        # a sliver seen only by the finer grid triggers the 1% refinement check
        with pytest.warns(QuadratureConvergenceWarning):
            hyp_area(lambda p: abs(p.im) < 0.016, ((-0.5, 0.5), (-0.5, 0.5)), 16)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            hyp_area(lambda p: True, ((-0.5, 0.5), (-0.5, 0.5)), 1)


class TestRadiusConversion:
    def test_zero(self):
        assert euclid_radius(0.0) == 0.0
        assert hyp_radius(0.0) == 0.0

    def test_log3(self):
        assert euclid_radius(math.log(3)) == pytest.approx(0.5, abs=1e-15)

    def test_inverse_at_09(self):
        assert hyp_radius(0.9) == pytest.approx(math.log(19), abs=1e-14)

    def test_round_trip_moderate(self):
        for r in np.linspace(0.0, 5.0, 101):
            assert abs(hyp_radius(euclid_radius(float(r))) - r) < 1e-14

    @given(st.floats(0.0, 10.0))
    @settings(max_examples=300)
    def test_round_trip_relative(self, r):
        err = abs(hyp_radius(euclid_radius(r)) - r)
        assert err <= 1e-13 * max(r, 1.0)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            euclid_radius(-0.1)
        with pytest.raises(ValueError):
            hyp_radius(1.0)


class TestGeodesic:
    def test_degenerate(self):
        poly = geodesic(0.2, 0.2, 10)
        assert len(poly) == 1
        assert hyp_length(poly) == 0.0

    def test_diameter_convergence(self):
        poly = geodesic(0j, 0.5, 10_000)
        assert hyp_length(poly) == pytest.approx(math.log(3), abs=1e-7)

    def test_reversal_symmetry(self):
        fwd = geodesic(0.1 + 0.2j, -0.3 + 0.1j, 50)
        bwd = geodesic(-0.3 + 0.1j, 0.1 + 0.2j, 50)
        assert np.allclose(fwd.vertices, bwd.vertices[::-1], atol=1e-12)
        assert hyp_length(fwd) == pytest.approx(hyp_length(bwd), rel=1e-12)

    def test_length_bounds_distance_from_above(self):
        z1, z2 = 0.3 + 0.2j, -0.5 + 0.1j
        d = hyp_distance(z1, z2)
        prev = math.inf
        for n in (4, 8, 16, 32, 64):
            ln = hyp_length(geodesic(z1, z2, n))
            assert ln >= d - 1e-9
            assert ln <= prev + 1e-12
            prev = ln
        # O(1/n^2) convergence: quadrupling n shrinks the excess ~16x
        e16 = hyp_length(geodesic(z1, z2, 16)) - d
        e64 = hyp_length(geodesic(z1, z2, 64)) - d
        assert e64 < e16 / 8
