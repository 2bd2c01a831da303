import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modlab.diskgeom import (
    BOUNDARY_MARGIN,
    IDENTITY,
    MobiusAutomorphism,
    Polyline,
    PrecisionLossError,
    euclid_radius,
    hyp_distance,
    hyp_radius,
    inside_disk,
    mobius_apply,
    mobius_compose,
    mobius_invert,
    mobius_to_zero,
)
from modlab.fuchsian import cyclic_group, enumerate_elements
from modlab.modulus import DiscretizedDomain, PolylineFamily, cartesian_grid, rasterize_family

from oracles import apply_reference, compose_reference, hyp_length, normalized_reference


def random_automorphism(rng) -> MobiusAutomorphism:
    w = 0.9 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    g = mobius_invert(mobius_to_zero(w))  # sends 0 to w
    return mobius_compose(g, MobiusAutomorphism(cmath.exp(0.5j * rng.uniform(0, 2 * np.pi)), 0.0))


def random_point(rng, rmax=0.9) -> complex:
    return complex(rmax * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi)))


disk_points = st.builds(
    lambda r, t: complex(r * math.cos(t), r * math.sin(t)),
    st.floats(0, 0.9),
    st.floats(0, 2 * math.pi),
)

# (a, c) = scale (sqrt(1 + rho^2) e^{i psi}, rho e^{i phi}): a scale off 1 hits
# the rescale branch, and rho past 1e4 makes compositions lose float resolution
coefficients = st.builds(
    lambda rho, phi, psi, scale: (scale * math.sqrt(1.0 + rho * rho) * complex(math.cos(psi), math.sin(psi)),
                                  scale * rho * complex(math.cos(phi), math.sin(phi))),
    st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(10.0, 1e5)),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
    st.one_of(st.just(1.0), st.floats(0.5, 4.0)),
)


class TestInsideDisk:
    def test_interior_ok(self):
        z = inside_disk(0.3 - 0.4j, "point")
        assert z.dtype == complex and z.shape == () and z == complex(0.3, -0.4)
        pts = [0.3, -0.4j, 1.0 - BOUNDARY_MARGIN]
        assert inside_disk(pts, "points").tolist() == [complex(p) for p in pts]

    @pytest.mark.parametrize("bad", [1.0 + 0j, 0.999999999999j, 2.0, complex("inf"), complex("nan")])
    def test_boundary_and_exterior_rejected(self, bad):
        with pytest.raises(ValueError):
            inside_disk(bad, "point")
        with pytest.raises(ValueError):
            inside_disk(np.array([0.1j, bad]), "points")

    @pytest.mark.parametrize("bad, message", [
        (complex("nan"), "must be finite"),
        (complex(0.5, float("nan")), "must be finite"),
        (complex("inf"), "must be finite"),
        (complex(0.0, float("-inf")), "must be finite"),
        (1.5j, "must lie strictly inside"),
        (1e308 + 1e308j, "must lie strictly inside"),  # finite, though |z| overflows to inf
    ], ids=["nan", "nan-imag", "inf", "inf-imag", "past-rim", "overflow"])
    def test_each_failure_keeps_its_message(self, bad, message):
        for z in (bad, np.array([bad]), np.array([0.1j, bad, 2.0]), np.array([[0.2, 0.3], [bad, 0.1]])):
            with pytest.raises(ValueError, match=f"^point {message}"):
                inside_disk(z, "point")

    def test_empty_passes(self):
        # Polyline and the other callers raise their own error for no points
        for z in ([], np.zeros((0, 3), dtype=complex)):
            out = inside_disk(z, "points")
            assert out.dtype == complex and out.size == 0 and out.shape == np.shape(z)

    @pytest.mark.parametrize("bad", [1.0 + 0j, complex("nan")])
    def test_every_user_checks(self, bad):
        dom = cartesian_grid(((-0.5, 0.5), (-0.5, 0.5)), 2, 2)
        centers = dom.centers.copy()
        centers[0] = bad
        with pytest.raises(ValueError):
            DiscretizedDomain(centers, dom.area_euclid, dom.geometry)
        with pytest.raises(ValueError):
            Polyline((0.1, bad))
        with pytest.raises(ValueError):
            mobius_to_zero(bad)


class TestMobius:
    def test_renormalization(self):
        g = MobiusAutomorphism(2.0, 1.0)  # det 3, gets scaled
        assert abs(abs(g.a) ** 2 - abs(g.c) ** 2 - 1.0) < 1e-12

    def test_degenerate_rejected(self):
        # outside input keeps the constructor's message; PrecisionLossError is for compositions
        for a, c in ((1.0, 1.0), (np.array([2.0, 1.0]), np.array([1.0, 1.0]))):
            with pytest.raises(ValueError, match=r"^\|a\|\^2 - \|c\|\^2 = 0.0 must be positive and finite$") as info:
                MobiusAutomorphism(a, c)
            assert not isinstance(info.value, PrecisionLossError)

    @pytest.mark.parametrize("a, c", [(np.ones((2, 2)), np.zeros((2, 2))), (np.ones(3), np.zeros(2)),
                                      (np.ones(2), 0.0)], ids=["2-d", "lengths", "array-and-scalar"])
    def test_set_needs_equal_1d_arrays(self, a, c):
        with pytest.raises(ValueError, match="one-dimensional and of equal length"):
            MobiusAutomorphism(a, c)

    @given(st.lists(st.tuples(coefficients, coefficients), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    @example([((2.0 + 0.5j, 1.0 - 0.25j), (1.0, 0.0)),  # rescaled, and the identity
              # rescaled by another last bit had |a|^2 been |a| * |a|, not pow(|a|, 2)
              ((2.571318206476673 + 0.9059759680177346j, 0.5), (1.0, 0.0)),
              ((math.cosh(9.0), math.sinh(9.0)), (math.cosh(10.0), math.sinh(10.0)))])  # det rounds to 0
    def test_sets_are_the_scalar_reference(self, pairs):
        # construction and composition on arrays equal the Python complex
        # formulas element by element, bit for bit up to the sign of zero
        a1, c1, a2, c2 = (np.array(v, dtype=complex) for v in zip(*((*p, *q) for p, q in pairs)))
        g1, g2 = MobiusAutomorphism(a1, c1), MobiusAutomorphism(a2, c2)
        for g, a, c in ((g1, a1, c1), (g2, a2, c2)):
            assert not g.a.flags.writeable and not g.c.flags.writeable
            assert list(zip(g.a, g.c)) == [normalized_reference(x, y) for x, y in zip(a, c)]
        expected = []
        for k in range(len(pairs)):
            try:
                expected.append(compose_reference(g1[k], g2[k]))
            except ValueError:
                with pytest.raises(PrecisionLossError):
                    mobius_compose(g1[k], g2[k])
                with pytest.raises(PrecisionLossError):
                    mobius_compose(g1, g2)
                return
            g = mobius_compose(g1[k], g2[k])
            assert (type(g.a), type(g.c)) == (complex, complex) and (g.a, g.c) == expected[-1]
        g = mobius_compose(g1, g2)
        assert list(zip(g.a, g.c)) == expected

    @pytest.mark.parametrize("a, c", [(math.nan, 0.0), (1.0, complex(0.0, math.nan)), (math.inf, 0.0)])
    def test_non_finite_rejected(self, a, c):
        with pytest.raises(ValueError):
            MobiusAutomorphism(a, c)

    def test_apply_is_the_formula_bit_for_bit(self):
        # the formula written out in Python scalar and in numpy array arithmetic
        g = random_automorphism(np.random.default_rng(5))
        for z in (0.3 - 0.2j, 0.45, np.float64(-0.1)):
            w = mobius_apply(g, z)
            assert type(w) is complex
            assert w == apply_reference(g, complex(z))
        zs = np.array([random_point(np.random.default_rng(k)) for k in range(64)])
        ws = mobius_apply(g, zs)
        assert ws.shape == zs.shape
        assert np.array_equal(ws, (g.a * zs + g.c) / (np.conjugate(g.c) * zs + np.conjugate(g.a)))

    def test_apply_to_elements_is_the_orbit(self):
        elements = enumerate_elements(cyclic_group(2.0, 6))
        z = 0.2 + 0.1j
        a, c = elements.a, elements.c
        orbit = mobius_apply(elements, z)
        assert np.array_equal(orbit, (a * z + c) / (np.conjugate(c) * z + np.conjugate(a)))
        # numpy's complex division rounds apart from Python's in the last bit
        np.testing.assert_allclose(orbit, [mobius_apply(g, z) for g in elements], rtol=1e-14, atol=0.0)

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
            z = random_point(rng)
            w = mobius_apply(mobius_invert(g), mobius_apply(g, z))
            assert abs(w - z) < 1e-12
            gg = mobius_compose(g, mobius_invert(g))
            assert gg.coefficient_distance(IDENTITY) < 1e-12

    def test_apply_stays_inside(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            g = random_automorphism(rng)
            w = mobius_apply(g, random_point(rng))
            assert abs(w) < 1.0


class TestDistance:
    def test_coincident(self):
        assert hyp_distance(0j, 0j) == 0.0

    def test_half_radius(self):
        # t = 0.5 -> log 3
        assert hyp_distance(0j, 0.5) == pytest.approx(math.log(3), abs=1e-12)

    def test_geodesic_length_oracle(self):
        # independent check: the automorphism sending z1 to 0 puts z2 on a
        # diameter, a geodesic, whose segment from 0 has the closed-form length
        z1, z2 = 0.3 + 0j, 0.3j
        w = mobius_apply(mobius_to_zero(z1), z2)
        oracle = hyp_length(Polyline((0j, w)))
        assert hyp_distance(z1, z2) == pytest.approx(oracle, rel=1e-12)

    @given(disk_points, disk_points)
    @settings(max_examples=100, deadline=None)
    def test_equals_length_of_moved_diameter(self, z1, z2):
        # the pair moved by the automorphism sending z1 to 0 spans a diameter segment
        w = mobius_apply(mobius_to_zero(z1), z2)
        assert hyp_distance(z1, z2) == pytest.approx(hyp_length(Polyline((0j, w))), rel=1e-9, abs=1e-12)

    @given(disk_points, disk_points, disk_points)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, x, y, z):
        assert hyp_distance(x, z) <= hyp_distance(x, y) + hyp_distance(y, z) + 1e-12

    @given(disk_points, disk_points)
    @example(-0.8428304762549983 + 0.2878362015465961j, 0.5617702797307872 + 0.6810081225414593j)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, x, y):
        # bit for bit; numpy's complex product rounds a conj(b) and b conj(a) of the example pair apart
        assert hyp_distance(x, y) == hyp_distance(y, x)

    def test_symmetry_of_arrays(self):
        rng = np.random.default_rng(3)
        z = 0.999999 * np.sqrt(rng.uniform(size=(2, 20000))) * np.exp(2j * math.pi * rng.uniform(size=(2, 20000)))
        assert np.array_equal(hyp_distance(z[0], z[1]), hyp_distance(z[1], z[0]))

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

    def test_array_equals_scalar_calls(self):
        rng = np.random.default_rng(8)
        z = random_point(rng)
        ws = np.array([complex(random_point(rng)) for _ in range(200)])
        d = hyp_distance(z, ws)
        assert d.shape == ws.shape
        assert d.tolist() == [hyp_distance(z, w) for w in ws]
        assert type(hyp_distance(z, ws[0])) is float

    def test_beyond_float_resolution_is_inf(self):
        x = 1.0 - 2e-9  # the two points lie about 40 apart; t rounds to 1
        assert hyp_distance(x, -x) == math.inf
        d = hyp_distance(x, np.array([0.0, -x]))
        assert d[0] == hyp_distance(x, 0.0) < 40.0 and d[1] == math.inf


class TestLength:
    def test_single_vertex(self):
        assert hyp_length(Polyline((0.2,))) == 0.0

    def test_diameter_segment(self):
        # antiderivative oracle: int_0^x 2/(1-t^2) dt = log((1+x)/(1-x))
        x = 0.5
        oracle = math.log((1 + x) / (1 - x))
        got = hyp_length(Polyline((0.0, x)))
        assert got == pytest.approx(oracle, abs=1e-14)
        assert got == pytest.approx(math.log(3), abs=1e-14)

    def test_diameter_near_rim(self):
        x = 1.0 - 2e-9
        got = hyp_length(Polyline((0.0, x)))
        assert isinstance(got, float)
        assert got == pytest.approx(2.0 * math.atanh(x), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("y, x0, x1", [(0.0, -0.9, 0.95), (0.6, -0.7, 0.75), (-0.3, 0.1, 0.9)])
    def test_horizontal_chord(self, y, x0, x1):
        # on Im z = y, 1 - |z|^2 = a^2 - x^2 with a = sqrt(1 - y^2)
        a = math.sqrt(1.0 - y * y)
        oracle = 2.0 / a * (math.atanh(x1 / a) - math.atanh(x0 / a))
        poly = Polyline(np.linspace(x0, x1, 5) + 1j * y)
        assert hyp_length(poly) == pytest.approx(oracle, rel=1e-13, abs=0.0)

    def test_subnormal_step(self):
        poly = Polyline((0.1, 0.1 + 5e-324j, 0.3 + 0.2j))
        dom = cartesian_grid(((-0.4, 0.4), (-0.3, 0.3)), 8, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            length = hyp_length(poly)
            fam = rasterize_family(PolylineFamily((poly,), kind="connecting"), dom)
        assert length == pytest.approx(hyp_length(Polyline((0.1, 0.3 + 0.2j))), rel=1e-15)
        assert float(np.sum(fam.curves[0][2])) == pytest.approx(length, rel=1e-12, abs=0.0)

    def test_full_circle(self):
        # constant integrand: circumference = 4 pi R / (1 - R^2)
        R = 0.6
        oracle = 4 * math.pi * R / (1 - R * R)
        z = R * np.exp(1j * np.linspace(0, 2 * np.pi, 4001)[:-1])
        poly = Polyline(np.append(z, z[0]))  # closed: the first vertex repeated
        assert hyp_length(poly) == pytest.approx(oracle, rel=1e-6)

    def test_length_invariance_under_mobius(self):
        # invariance holds for the underlying curve; a polyline must sample it
        # densely enough that the chord-vs-arc discrepancy drops below 1e-9
        rng = np.random.default_rng(3)
        R = 0.5
        ts = np.linspace(0.0, 1.0, 10_000)
        pts = [complex(R * math.cos(t), R * math.sin(t)) for t in ts]
        poly = Polyline(tuple(pts))
        base = hyp_length(poly)
        for _ in range(3):
            g = random_automorphism(rng)
            moved = Polyline(tuple(mobius_apply(g, p) for p in pts))
            assert hyp_length(moved) == pytest.approx(base, rel=1e-9)

    @given(disk_points, disk_points, disk_points)
    @settings(max_examples=100, deadline=None)
    def test_broken_path_bounds_distance_from_above(self, z1, w, z2):
        # a geodesic is the shortest path: detouring through w never helps
        assert hyp_length(Polyline((z1, w, z2))) >= hyp_distance(z1, z2) * (1 - 1e-12)

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(5)
        pts = [random_point(rng) for _ in range(20)]
        fwd, bwd = hyp_length(Polyline(pts)), hyp_length(Polyline(pts[::-1]))
        assert fwd == pytest.approx(bwd, rel=1e-12)

    def test_duplicate_vertices_canonicalized(self):
        p = 0.1 + 0.1j
        poly = Polyline((p, p, 0.2 + 0.1j, 0.2 + 0.1j))
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
        mixed = Polyline((np.complex128(0.1 + 0.2j), 0.3, 0.1 + 0.5j))
        assert np.array_equal(mixed.vertices, Polyline((0.1 + 0.2j, 0.3 + 0j, 0.1 + 0.5j)).vertices)
        with pytest.raises(ValueError):
            mixed.vertices[0] = 0.0


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
