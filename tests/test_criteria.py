import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.integrate import quad

from modlab.criteria import (
    _tail_integrals,
    default_epsilon_sequence,
    divergence_check,
    eta_inequality_check,
    NotIntegrableError,
    fmo_check,
    recentered_field,
)
from modlab._io import json_text
from modlab.fields import parse_field
from modlab.quadrature import RingSpec, ScalarField, ZeroNormError, ball_integral

RING = RingSpec(0.5, 1.5)


def radial_mean_osc_oracle(phi, eps):
    """1-d radial integrals of the ball mean and mean oscillation of a field
    that is radial in the hyperbolic distance t = h(0, z)."""
    area = 2 * math.pi * (math.cosh(eps) - 1)
    mass, _ = quad(lambda t: phi(t) * 2 * math.pi * math.sinh(t), 0, eps, limit=200)
    mean = mass / area
    osc_mass, _ = quad(
        lambda t: abs(phi(t) - mean) * 2 * math.pi * math.sinh(t), 0, eps,
        limit=400,
    )
    return mean, osc_mass / area


class TestEpsilonSequence:
    def test_decreasing_and_floored(self):
        eps = default_epsilon_sequence(0.4, 20)
        assert np.all(np.diff(eps) < 0)
        assert eps[-1] == pytest.approx(1e-4)
        assert eps[0] == pytest.approx(0.2)


class TestFmoCheck:
    def test_constant_field_is_fmo(self):
        rep = fmo_check(parse_field("const:1"))
        assert rep.verdict == "fmo"
        # oscillation of a bounded field never exceeds twice its sup
        assert np.all(rep.oscillations <= 2.0 + 1e-9)

    def test_log_singularity_is_fmo(self):
        rep = fmo_check(parse_field("log-inv-r"))
        assert rep.verdict == "fmo"
        # oscillations stabilize instead of growing
        assert rep.oscillations[-1] == pytest.approx(rep.oscillations[0], rel=0.5)
        # radial oracle: phi(t) = log(1/tanh(t/2)) in the hyperbolic radius.
        # (the integrand has a log singularity at 0, so the quadrature is
        # good to ~1e-4 rather than machine precision)
        phi = lambda t: math.log(1.0 / math.tanh(0.5 * t))
        for idx in (0, len(rep.epsilons) // 2):
            eps = rep.epsilons[idx]
            mean_o, osc_o = radial_mean_osc_oracle(phi, eps)
            assert rep.means[idx] == pytest.approx(mean_o, rel=1e-4)
            assert rep.oscillations[idx] == pytest.approx(osc_o, rel=1e-2)

    def test_inverse_radius_is_not_fmo(self):
        rep = fmo_check(parse_field("inv-r"))
        assert rep.verdict == "not_fmo"
        assert rep.trend_slope > 0.8
        # oscillation grows like 1/eps: oracle away from the quadrature floor
        phi = lambda t: 1.0 / math.tanh(0.5 * t)
        for idx in (0, 2):
            _, osc_o = radial_mean_osc_oracle(phi, rep.epsilons[idx])
            assert rep.oscillations[idx] == pytest.approx(osc_o, rel=1e-3)
        assert rep.oscillations[-1] / rep.oscillations[0] > 10

    @pytest.mark.parametrize("spec,expected", [
        ("const:1", "fmo"), ("log-inv-r", "fmo"), ("inv-r", "not_fmo"),
    ])
    def test_scale_invariance(self, spec, expected):
        base = parse_field(spec)
        assert fmo_check(base).verdict == expected
        scaled = ScalarField(lambda z: 7.0 * base.evaluator(z), label=f"7*{spec}", singular_point=base.singular_point)
        assert fmo_check(scaled).verdict == expected

    def test_non_integrable_field_is_refused(self):
        # 1/|z|^2 against the area element has no ball integral: its ball means move
        # with the radial rule, by about 0.14 of themselves from 64 to 32 nodes
        with pytest.raises(NotIntegrableError, match="inv-r2 is not integrable"):
            fmo_check(parse_field("inv-r2"))

    def test_epsilon_floor_enforced(self):
        with pytest.raises(ValueError):
            fmo_check(parse_field("const:1"), epsilons=[1e-2, 1e-3, 1e-5])

    def test_reports_serialize(self):
        # the report's fields as they are, numpy arrays included, written by the one JSON writer
        rep = fmo_check(parse_field("const:1"))
        data = json.loads(json_text(asdict(rep)))
        assert sorted(data) == ["epsilons", "means", "oscillations", "trend_slope", "verdict"]
        assert data["verdict"] == "fmo" and data["means"] == rep.means.tolist()


class TestDivergenceCheck:
    def test_unit_field_diverges(self):
        ring = RingSpec(0.0, 1.5)
        rep = divergence_check(parse_field("const:1"), ring)
        assert rep.verdict == "diverges"
        assert rep.fitted_growth == "log"
        # closed form: (1/2pi) log(tanh(eps0/2)/tanh(eps/2))
        for eps, got in zip(rep.epsilons, rep.partial_integrals):
            oracle = (math.log(math.tanh(0.75)) - math.log(math.tanh(eps / 2))) / (2 * math.pi)
            assert got == pytest.approx(oracle, rel=1e-12)

    def test_tail_integrals_of_unit_field(self):
        # unequal intervals between the epsilons: each partial is the closed form
        # (log tanh(eps0/2) - log tanh(eps/2)) / 2 pi
        eps0, epsilons = 2.0, np.array([1.3, 0.7, 0.2, 0.05, 1e-3])
        got = _tail_integrals(parse_field("const:1"), epsilons, eps0)
        oracle = (math.log(math.tanh(eps0 / 2)) - np.log(np.tanh(epsilons / 2))) / (2 * math.pi)
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=0.0)

    def test_partials_monotone(self):
        ring = RingSpec(0.0, 1.5)
        for spec in ("const:1", "radial:inv-h", "inv-r"):
            rep = divergence_check(parse_field(spec), ring)
            assert np.all(np.diff(rep.partial_integrals) >= -1e-12)

    def test_inverse_distance_converges(self):
        # ||Q||(r) = 2 pi sinh(r)/r -> 2 pi: the reciprocal integrand stays bounded
        ring = RingSpec(0.0, 1.5)
        rep = divergence_check(parse_field("radial:inv-h"), ring)
        assert rep.verdict == "converges"
        for eps, got in zip(rep.epsilons, rep.partial_integrals):
            oracle, _ = quad(lambda r: r / (2 * math.pi * math.sinh(r)), eps, 1.5)
            assert got == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("c", [0.5, 3.0])
    def test_scaled_constants_diverge(self, c):
        ring = RingSpec(0.0, 1.5)
        rep = divergence_check(parse_field(f"const:{c}"), ring)
        assert rep.verdict == "diverges"

    def test_zero_norm_propagates(self):
        zero = ScalarField(lambda z: np.zeros_like(np.abs(z)), label="0")
        with pytest.raises(ZeroNormError):
            divergence_check(zero, RingSpec(0.0, 1.5))

    def test_serialization(self):
        rep = divergence_check(parse_field("const:1"), RingSpec(0.0, 1.5))
        data = json.loads(json_text(asdict(rep)))
        assert sorted(data) == ["epsilons", "fitted_growth", "partial_integrals", "residuals", "verdict"]
        assert data["verdict"] == "diverges" and data["partial_integrals"] == rep.partial_integrals.tolist()


class TestEtaInequality:
    def test_unit_field_identity(self):
        rep = eta_inequality_check(parse_field("const:1"), RING, n_random=500, seed=0)
        oracle_j = (math.log(math.tanh(0.75)) - math.log(math.tanh(0.25))) / (2 * math.pi)
        assert rep.eta.J == pytest.approx(oracle_j, rel=1e-12)
        assert rep.one_over_j == pytest.approx(1.0 / oracle_j, rel=1e-12)
        assert rep.equality_rel_error < 1e-12
        assert rep.all_above
        assert rep.min_relative_margin >= -1e-9

    def test_normalization_forced(self):
        for spec in ("const:1", "radial:inv-h", "log-inv-r"):
            rep = eta_inequality_check(parse_field(spec), RING, n_random=10, seed=1)
            assert np.sum(rep.eta.weights * rep.eta.eta0) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_eta_has_positive_gap(self):
        # closed forms: integral = 2 pi (cosh r2 - cosh r1)/(r2-r1)^2 vs 1/J
        rep = eta_inequality_check(parse_field("const:1"), RING, n_random=10, seed=2)
        width = RING.r_outer - RING.r_inner
        uniform_integral = 2 * math.pi * (math.cosh(1.5) - math.cosh(0.5)) / width**2
        assert uniform_integral > rep.one_over_j
        radii, norms = rep.eta.radii, 1.0 / (rep.eta.J * rep.eta.eta0)
        w = rep.eta.weights
        eta_u = np.full_like(radii, 1.0 / width)
        eta_u /= float(np.sum(w * eta_u))
        got = float(np.sum(w * eta_u**2 * norms))
        assert got == pytest.approx(uniform_integral, rel=1e-4)
        assert got >= rep.one_over_j

    def test_perturbed_eta_strictly_larger(self):
        rep = eta_inequality_check(parse_field("const:1"), RING, n_random=5, seed=3)
        radii, eta0 = rep.eta.radii, rep.eta.eta0
        norms = 1.0 / (rep.eta.J * eta0)
        w = rep.eta.weights
        rng = np.random.default_rng(4)
        for _ in range(10):
            eta = eta0 * (1.0 + 0.2 * rng.uniform(-1, 1, len(eta0)))
            eta /= float(np.sum(w * eta))
            got = float(np.sum(w * eta * eta * norms))
            assert got > rep.one_over_j * (1 - 1e-12)

    def test_min_margin_over_500_seeds(self):
        rep = eta_inequality_check(parse_field("radial:inv-h"), RING, n_random=500, seed=7)
        assert rep.all_above
        assert rep.min_relative_margin >= -1e-9
        assert rep.equality_rel_error < 1e-12


class TestRecentering:
    def test_center_zero_is_identity(self):
        Q = parse_field("const:1")
        assert recentered_field(Q, 0j) is Q

    def test_radial_about_center(self):
        # field radial in h(z, c): recentered about c it matches the 1-d oracle
        c = 0.3 + 0.2j
        from modlab.diskgeom import hyp_distance

        Q = ScalarField(
            lambda z: np.array([hyp_distance(w, c) ** 2 for w in np.atleast_1d(z)]),
            label="h^2",
        )
        shifted = recentered_field(Q, c)
        got = ball_integral(shifted, 0.8, n_r=129, n_theta=256)
        oracle, _ = quad(lambda t: t * t * 2 * math.pi * math.sinh(t), 0, 0.8)
        assert got == pytest.approx(oracle, rel=1e-12)
