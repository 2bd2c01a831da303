import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from modlab.criteria import recentered_field
from modlab.diskgeom import _BLOCK_POINTS, euclid_radius, mobius_invert, mobius_to_zero
from modlab.experiments import distortion_weight_field
from modlab.fields import FIELD_SPECS, parse_field
from modlab.mappings import compose_maps, mobius_map, parse_map
from modlab.quadrature import (
    RadialProfile,
    RingSpec,
    ScalarField,
    SingularitySkippedWarning,
    ZeroNormError,
    ball_integral,
    _gauss_nodes,
    circle_integral,
    circle_integrals,
    qnorm_profile,
    ring_reciprocal_integral,
)

from oracles import cartesian_disk_integral, fubini_residual

ONE = parse_field("const:1")


def radial_field(fn, label="radial", singular=None):
    return ScalarField(lambda z: fn(2.0 * np.arctanh(np.abs(z))), label=label, singular_point=singular)


class TestCircleIntegral:
    def test_zero_field(self):
        zero = ScalarField(lambda z: np.zeros_like(np.abs(z)), label="0")
        assert circle_integral(zero, 1.0, 256) == 0.0

    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0])
    def test_unit_field_circumference(self, r):
        # closed form: 4 pi R/(1-R^2) with R = tanh(r/2) equals 2 pi sinh r
        got = circle_integral(ONE, r, 2048)
        assert got == pytest.approx(2 * math.pi * math.sinh(r), rel=1e-8)

    def test_linearity_in_constant(self):
        base = circle_integral(ONE, 0.7, 256)
        scaled = circle_integral(parse_field("const:3.5"), 0.7, 256)
        assert scaled == pytest.approx(3.5 * base, rel=1e-13)

    def test_singularity_on_circle_warns(self):
        off_center = ScalarField(lambda z: np.abs(z - 0.2) ** 0, label="s",
                                 singular_point=complex(math.tanh(0.5), 0))
        with pytest.warns(SingularitySkippedWarning):
            circle_integral(off_center, 1.0, 256)

    def test_small_circle_about_a_singular_center_does_not_warn(self):
        # the test is relative to R: a circle of radius 1e-10 about 0 misses 0 by all of R
        centered = ScalarField(lambda z: np.ones(z.shape), label="s", singular_point=0j)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SingularitySkippedWarning)
            assert circle_integral(centered, 1e-10, 256) == pytest.approx(2 * math.pi * 1e-10, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            circle_integral(ONE, 0.0, 256)
        with pytest.raises(ValueError):
            circle_integral(ONE, 1.0, 8)


def circle_integral_oracle(Q, r, n=512):
    """One circle: trapezoid sum of Q on n angles, times the line element."""
    R = euclid_radius(r)
    theta = np.arange(n) * (2.0 * math.pi / n)
    z = R * np.exp(1j * theta)
    vals = Q.evaluate_array(z)
    weight = 2.0 * R / (1.0 - R * R)
    return float(np.sum(vals) * weight * (2.0 * math.pi / n))


def ball_integral_oracle(Q, r0, n_r=129, n_theta=512):
    radii, weights = _gauss_nodes(n_r, 0.0, r0)
    values = np.array([circle_integral_oracle(Q, float(r), n_theta) for r in radii])
    return float(np.sum(weights * values))


# its Wirtinger data multiply two complex temporaries, which rounds
# differently once numpy evaluates the product in place (2^14 points or more)
K_COMPOSITION = distortion_weight_field(
    compose_maps(mobius_map(mobius_invert(mobius_to_zero(0.2 + 0.1j))), parse_map("winding:2")), 1.0)


def _oracle_fields():
    specs = [spec.replace("<c>", "2.5") for spec in FIELD_SPECS]
    fields = [pytest.param(parse_field(spec), id=spec) for spec in specs]
    fields.append(pytest.param(recentered_field(parse_field("inv-r"), 0.3 + 0.2j), id="recentered"))
    for spec in ("identity", "radial_stretch:2", "winding:2"):
        fields.append(pytest.param(distortion_weight_field(parse_map(spec), 2.0), id=f"K[{spec}]"))
    fields.append(pytest.param(K_COMPOSITION, id="K[composition]"))
    return fields


ROWS = _BLOCK_POINTS // 512  # radii per evaluator call at n = 512


class TestCircleIntegralsOracle:
    @pytest.mark.parametrize("count", [1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5])
    @pytest.mark.parametrize("Q", _oracle_fields())
    def test_bit_identical_to_one_circle_at_a_time(self, Q, count):
        radii = np.geomspace(0.05, 2.5, count)
        got = circle_integrals(Q, radii, 512)
        want = np.array([circle_integral_oracle(Q, float(r), 512) for r in radii])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert circle_integral(Q, float(radii[-1]), 512) == want[-1]

    @pytest.mark.parametrize("Q", _oracle_fields())
    def test_profile_bit_identical(self, Q):
        prof = qnorm_profile(Q, RingSpec(0.3, 1.7), n_samples=3 * ROWS + 1, n_angular=512)
        want = np.array([circle_integral_oracle(Q, float(r), 512) for r in prof.radii])
        assert np.array_equal(prof.values.view(np.uint64), want.view(np.uint64))

    def test_full_block_rounds_as_single_circles(self):
        R = np.tanh(np.geomspace(0.05, 2.5, ROWS) / 2)
        z = R[:, None] * np.exp(1j * (np.arange(512) * (2.0 * math.pi / 512)))
        block = K_COMPOSITION.evaluate_array(z.ravel())
        circles = np.concatenate([K_COMPOSITION.evaluate_array(row) for row in z])
        assert np.array_equal(block.view(np.uint64), circles.view(np.uint64))

    @pytest.mark.parametrize("n", [16, 100, 2048, 2 * _BLOCK_POINTS])
    def test_blocks_bound_evaluator_calls(self, n):
        sizes = []

        def spy(z):
            sizes.append(z.size)
            return np.abs(z)

        Q = ScalarField(spy, label="spy")
        radii = np.linspace(0.1, 2.0, 70)
        got = circle_integrals(Q, radii, n)
        assert sum(sizes) == 70 * n
        assert max(sizes) <= max(_BLOCK_POINTS, n)
        want = np.array([circle_integral_oracle(Q, float(r), n) for r in radii])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("Q", [pytest.param(parse_field("radial:h"), id="radial:h"),
                                   pytest.param(parse_field("radial:inv-h"), id="radial:inv-h"),
                                   pytest.param(K_COMPOSITION, id="K[composition]")])
    def test_ball_and_fubini_bit_identical(self, Q):
        assert ball_integral(Q, 1.1, n_r=65, n_theta=256) == ball_integral_oracle(Q, 1.1, 65, 256)
        direct = cartesian_disk_integral(Q, euclid_radius(0.9), 64)
        iterated = ball_integral_oracle(Q, 0.9, 65, 256)
        assert fubini_residual(Q, 0.9, resolution=64, n_r=65, n_theta=256) == abs(direct - iterated)

    def test_singular_circle_warns_per_radius(self):
        r_sing = 1.0
        Q = ScalarField(lambda z: np.ones(z.shape), label="s",
                        singular_point=complex(math.tanh(r_sing / 2), 0))
        with pytest.warns(SingularitySkippedWarning) as record:
            circle_integrals(Q, [0.5, r_sing, 1.5, r_sing], 64)
        assert len(record) == 2
        assert all("r=1.0" in str(w.message) for w in record)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="positive"):
            circle_integrals(ONE, [0.5, 0.0, 1.0], 64)
        with pytest.raises(ValueError, match="n >= 16"):
            circle_integrals(ONE, [0.5], 8)
        with pytest.raises(ValueError, match="boundary"):
            circle_integrals(ONE, [0.5, 60.0], 64)
        assert circle_integrals(ONE, [], 64).shape == (0,)


class TestBallIntegral:
    def test_unit_field(self):
        # antiderivative of 2 pi sinh r
        oracle = 2 * math.pi * (math.cosh(1.0) - 1.0)
        assert ball_integral(ONE, 1.0) == pytest.approx(oracle, rel=1e-13)

    def test_zero_field(self):
        zero = ScalarField(lambda z: np.zeros_like(np.abs(z)), label="0")
        assert ball_integral(zero, 1.0) == 0.0

    def test_radial_distance_field(self):
        # Q(z) = h(0, z): reduce to the 1-d integral of r * 2 pi sinh r
        Q = radial_field(lambda s: s, label="h")
        oracle, _ = quad(lambda r: r * 2 * math.pi * math.sinh(r), 0.0, 1.2)
        assert ball_integral(Q, 1.2) == pytest.approx(oracle, rel=1e-13)

    def test_singular_center_field(self):
        # Q = 1/h(0,z): circle integrals tend to 2 pi; ball integral stays finite
        Q = parse_field("radial:inv-h")
        oracle, _ = quad(lambda r: 2 * math.pi * math.sinh(r) / r, 0.0, 1.0)
        assert ball_integral(Q, 1.0) == pytest.approx(oracle, rel=1e-13)

    def test_inverse_radius_at_the_smallest_ball(self):
        # 1/|z| with |z| = tanh(r/2) against the area element 2 pi sinh r integrates in
        # closed form to 2 pi (eps + sinh eps); no cutoff at the singular center
        eps = 1e-4
        exact = 2 * math.pi * (eps + math.sinh(eps))
        assert ball_integral(parse_field("inv-r"), eps, n_r=64, n_theta=256) == pytest.approx(exact, rel=1e-12)


class TestFubini:
    def test_unit_field_residual_small(self):
        oracle = 2 * math.pi * (math.cosh(1.0) - 1.0)
        res = fubini_residual(ONE, 1.0, resolution=400, n_r=257)
        assert res / oracle < 5e-3

    def test_zero_field_exact(self):
        zero = ScalarField(lambda z: np.zeros_like(np.abs(z)), label="0")
        assert fubini_residual(zero, 1.0, resolution=64, n_r=33) == 0.0

    def test_refinement_order(self):
        res_n = fubini_residual(ONE, 1.0, resolution=100, n_r=257)
        res_2n = fubini_residual(ONE, 1.0, resolution=200, n_r=257)
        assert res_n / max(res_2n, 1e-300) >= 2.0

    def test_half_plane_indicator(self):
        # symmetry oracle: half of the full ball integral
        half = ScalarField(lambda z: (np.real(z) > 0).astype(float), label="half")
        ball = 2 * math.pi * (math.cosh(1.0) - 1.0)
        direct_expected = ball / 2
        res = fubini_residual(half, 1.0, resolution=400, n_r=257, n_theta=2048)
        assert res / direct_expected < 1e-2


class TestProfile:
    def test_unit_field_values(self):
        ring = RingSpec(0.5, 1.5)
        prof = qnorm_profile(ONE, ring, n_samples=16, n_angular=256)
        assert len(prof) == 16
        assert 0.5 < prof.radii[0] and prof.radii[-1] < 1.5  # Gauss nodes are interior
        assert np.sum(prof.weights) == pytest.approx(1.0, rel=1e-13)
        for r, v in zip(prof.radii, prof.values):
            assert v == pytest.approx(2 * math.pi * math.sinh(r), rel=1e-10)

    def test_degenerate_ring_rejected(self):
        with pytest.raises(ValueError):
            RingSpec(1.0, 1.0)

    def test_inverse_distance_field(self):
        # Q = 1/h(0,z) is constant 1/r on each circle: ||Q||(r) = 2 pi sinh(r)/r
        Q = parse_field("radial:inv-h")
        ring = RingSpec(0.25, 1.0)
        prof = qnorm_profile(Q, ring, n_samples=12, n_angular=256)
        for r, v in zip(prof.radii, prof.values):
            assert v == pytest.approx(2 * math.pi * math.sinh(r) / r, rel=1e-10)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            qnorm_profile(ONE, RingSpec(0.5, 1.5), n_samples=3)

    @given(st.floats(0.3, 1.0), st.floats(1.2, 2.0))
    @settings(max_examples=10, deadline=None)
    def test_monotone_in_field(self, r1, r2):
        ring = RingSpec(r1, r2)
        small = qnorm_profile(parse_field("const:1"), ring, n_samples=8, n_angular=64)
        big = qnorm_profile(parse_field("const:2"), ring, n_samples=8, n_angular=64)
        assert np.all(small.values <= big.values + 1e-12)

    def test_csv_and_json_round_trip(self):
        prof = qnorm_profile(ONE, RingSpec(0.5, 1.5), n_samples=8, n_angular=64)
        lines = prof.to_csv().strip().splitlines()
        assert lines[0] == "r,qnorm"
        assert len(lines) == 9
        data = prof.to_json()
        assert data["qnorm"][0] == pytest.approx(prof.values[0])


class TestReciprocalIntegral:
    def test_unit_field_closed_form(self):
        # antiderivative: d/dr (1/(2 pi)) log tanh(r/2) = 1/(2 pi sinh r)
        ring = RingSpec(0.5, 1.5)
        prof = qnorm_profile(ONE, ring, n_samples=32, n_angular=64)
        oracle = (math.log(math.tanh(0.75)) - math.log(math.tanh(0.25))) / (2 * math.pi)
        assert ring_reciprocal_integral(prof) == pytest.approx(oracle, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [4, 8, 32])
    def test_exact_on_polynomials_in_log_r(self, n):
        # sum(weights * g(log r) / r) = integral of g(u) du for every g of degree <= 2n - 1
        ring = RingSpec(0.5, 1.5)
        prof = qnorm_profile(ONE, ring, n_samples=n, n_angular=16)
        a, b = math.log(0.5), math.log(1.5)
        t = (np.log(prof.radii) - a) / (b - a)  # u mapped to [0, 1]
        for k in range(2 * n):
            got = float(np.sum(prof.weights * t**k / prof.radii))
            assert got == pytest.approx((b - a) / (k + 1), rel=1e-12, abs=0.0), k

    def test_jump_in_r_shows_in_the_refinement_delta(self):
        # the rule converges slowly across a jump: |Q_n - Q_{n/2}| is far above 1e-6
        ring = RingSpec(0.5, 1.5)
        step = radial_field(lambda h: np.where(h < 1.0, 1.0, 2.0), label="step")
        fine, coarse = (ring_reciprocal_integral(qnorm_profile(step, ring, n_samples=n, n_angular=64))
                        for n in (32, 16))
        assert abs(fine - coarse) / fine > 1e-6

    def test_scaling_antitone(self):
        ring = RingSpec(0.5, 1.5)
        base = ring_reciprocal_integral(qnorm_profile(ONE, ring, n_samples=32, n_angular=64))
        scaled = ring_reciprocal_integral(
            qnorm_profile(parse_field("const:4"), ring, n_samples=32, n_angular=64)
        )
        assert scaled == pytest.approx(base / 4, rel=1e-12)

    @pytest.mark.parametrize("weights", [[0.5], [0.5, 0.0], [0.5, math.nan]],
                             ids=["short", "zero", "nan"])
    def test_weights_checked(self, weights):
        with pytest.raises(ValueError, match="weights"):
            RadialProfile(np.array([0.5, 1.0]), np.array([1.0, 2.0]), np.array(weights), quadrature_n=64)

    def test_zero_norm_rejected(self):
        prof = RadialProfile(np.array([0.5, 1.0]), np.array([1.0, 0.0]), np.array([0.25, 0.25]), quadrature_n=64)
        with pytest.raises(ZeroNormError):
            ring_reciprocal_integral(prof)


class TestFieldCatalog:
    def test_known_specs(self):
        for spec in ("const:2", "log-inv-r", "inv-r", "inv-r2", "radial:inv-h", "radial:h"):
            f = parse_field(spec)
            val = f.evaluate_array(np.array([0.3 + 0.1j]))
            assert np.isfinite(val).all()
            assert (val >= 0).all()

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            parse_field("exp-r")
        with pytest.raises(ValueError):
            parse_field("radial:zeta")

    def test_const_positive(self):
        with pytest.raises(ValueError):
            parse_field("const:0")

    @pytest.mark.parametrize("spec, label, value", [
        ("const:2.5", "const:2.5", 2.5), ("const:1", "const:1", 1.0), (" const:1e2 ", "const:100", 100.0),
    ])
    def test_const_reads_a_json_number(self, spec, label, value):
        field = parse_field(spec)
        assert field.label == label
        assert field.evaluate_array(np.array([0.3 + 0.1j]))[0] == value

    @pytest.mark.parametrize("spec", ["const:1_000", "const: 2", "const:2 .5", "const:\"2\"", "const:true",
                                      "const:NaN", "const:-1", "const:"])
    def test_const_refuses_what_json_number_refuses(self, spec):
        # the one number rule of map specs: 1_000 and " 2" are not JSON numbers
        with pytest.raises(ValueError, match="finite c > 0 written as a JSON number"):
            parse_field(spec)

    def test_values(self):
        z = np.array([0.5 + 0j])
        assert parse_field("inv-r").evaluate_array(z)[0] == pytest.approx(2.0)
        assert parse_field("inv-r2").evaluate_array(z)[0] == pytest.approx(4.0)
        assert parse_field("log-inv-r").evaluate_array(z)[0] == pytest.approx(math.log(2.0))
        assert parse_field("radial:inv-h").evaluate_array(z)[0] == pytest.approx(1.0 / (2 * math.atanh(0.5)))
