"""Numeric verdicts for the analytic hypotheses on the weight Q.

Finite mean oscillation at a point, divergence of the reciprocal ring
integral, the extremal-weight identity/inequality for eta_0 = 1/(J ||Q||),
and the growth of the log-squared weighted ring integral. "limsup < inf" and
"integral = inf" are not decidable from finitely many samples; every verdict
here is a model comparison over an explicit epsilon sequence with the raw
data exposed in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv, write_json
from .diskgeom import as_complex, mobius_invert, mobius_to_zero
from .quadrature import (
    RingSpec,
    ScalarField,
    ZeroNormError,
    _simpson_nodes,
    ball_integral,
    circle_integral,
    qnorm_profile,
)

__all__ = [
    "FMOReport",
    "DivergenceReport",
    "EtaProfile",
    "EtaCheckReport",
    "SlopeReport",
    "default_epsilon_sequence",
    "recentered_field",
    "fmo_check",
    "divergence_check",
    "eta_inequality_check",
    "fmo_integral_estimate",
]

EPSILON_FLOOR = 1e-4  # quadrature floor in hyperbolic units


def default_epsilon_sequence(eps0: float = 0.4, count: int = 12) -> np.ndarray:
    """Decreasing sequence eps0 * 2^-k, k = 1..count, floored at 1e-4."""
    eps = eps0 * 0.5 ** np.arange(1, count + 1)
    eps = np.unique(np.maximum(eps, EPSILON_FLOOR))[::-1]
    return eps


def recentered_field(Q: ScalarField, center) -> ScalarField:
    """Conjugate Q by the automorphism sending `center` to 0, so ball and
    circle integrals about 0 equal the originals about the center."""
    c = as_complex(center)
    if c == 0:
        return Q
    g_inv = mobius_invert(mobius_to_zero(c))
    ev = Q.evaluator
    singular = None
    if Q.singular_point is not None:
        s = as_complex(Q.singular_point)
        singular = (s - c) / (1.0 - s * c.conjugate())

    def conjugated(z, _ev=ev, _g=g_inv):
        w = (_g.a * z + _g.c) / (np.conjugate(_g.c) * z + np.conjugate(_g.a))
        return _ev(w)

    return ScalarField(conjugated, label=f"{Q.label}@{c}", singular_point=singular)


def _linear_fit_residual(x: np.ndarray, y: np.ndarray):
    """Least-squares slope/intercept plus RMS residual of y ~ a + b x."""
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return coef[1], coef[0], float(np.sqrt(np.mean(resid**2)))


# ---------------------------------------------------------------------------
# finite mean oscillation


@dataclass(frozen=True)
class FMOReport:
    epsilons: np.ndarray
    means: np.ndarray
    oscillations: np.ndarray
    trend_slope: float
    verdict: str  # "fmo" | "not_fmo" | "inconclusive"

    def to_json(self, path=None):
        data = {
            "epsilons": list(map(float, self.epsilons)),
            "means": list(map(float, self.means)),
            "oscillations": list(map(float, self.oscillations)),
            "trend_slope": self.trend_slope,
            "verdict": self.verdict,
        }
        return write_json(data, path)

    def to_csv(self, path) -> None:
        write_csv(path, ("epsilon", "oscillation"), zip(self.epsilons, self.oscillations))


def fmo_check(Q: ScalarField, epsilons=None, center=0j,
              n_r: int = 65, n_theta: int = 256) -> FMOReport:
    """Mean oscillation of Q over shrinking balls about a point.

    For each epsilon the ball mean and the normalized mean oscillation are
    computed by the iterated ball quadrature. Verdict: "not_fmo" when the
    log-log regression of oscillation against 1/epsilon has slope > 0.2,
    "fmo" when the oscillations are bounded across the sequence
    (max/median <= 3), otherwise "inconclusive".
    """
    if epsilons is None:
        epsilons = default_epsilon_sequence()
    epsilons = np.asarray(sorted(map(float, epsilons), reverse=True))
    if len(epsilons) < 3:
        raise ValueError("need at least 3 epsilons")
    if epsilons[-1] < EPSILON_FLOOR * (1 - 1e-12):
        raise ValueError(f"smallest epsilon must be >= {EPSILON_FLOOR}")
    field = recentered_field(Q, center)

    means, oscillations = [], []
    for eps in epsilons:
        area = 2.0 * math.pi * (math.cosh(eps) - 1.0)
        mean = ball_integral(field, eps, n_r=n_r, n_theta=n_theta) / area
        deviation = ScalarField(
            lambda z, _ev=field.evaluator, _m=mean: np.abs(np.asarray(_ev(z), dtype=float) - _m),
            label=f"|{field.label} - mean|",
            singular_point=field.singular_point,
        )
        osc = ball_integral(deviation, eps, n_r=n_r, n_theta=n_theta) / area
        means.append(mean)
        oscillations.append(osc)
    means = np.array(means)
    oscillations = np.array(oscillations)

    # oscillations below the quadrature noise floor are bounded trivially
    scale = max(float(np.max(np.abs(means))), 1e-300)
    if np.all(oscillations <= 1e-7 * scale):
        return FMOReport(epsilons, means, oscillations, 0.0, "fmo")

    positive = oscillations > 1e-300
    slope, _, _ = _linear_fit_residual(
        np.log(1.0 / epsilons[positive]), np.log(oscillations[positive])
    )
    if slope > 0.2:
        verdict = "not_fmo"
    elif float(np.max(oscillations)) <= 3.0 * float(np.median(oscillations)):
        verdict = "fmo"
    else:
        verdict = "inconclusive"
    return FMOReport(epsilons, means, oscillations, float(slope), verdict)


# ---------------------------------------------------------------------------
# divergence of the reciprocal ring integral


@dataclass(frozen=True)
class DivergenceReport:
    epsilons: np.ndarray
    partial_integrals: np.ndarray
    fitted_growth: str  # "bounded" | "log" | "loglog" | "other"
    verdict: str  # "diverges" | "converges" | "inconclusive"
    residuals: dict

    def to_json(self, path=None):
        data = {
            "epsilons": list(map(float, self.epsilons)),
            "partial_integrals": list(map(float, self.partial_integrals)),
            "fitted_growth": self.fitted_growth,
            "verdict": self.verdict,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
        }
        return write_json(data, path)

    def to_csv(self, path) -> None:
        write_csv(path, ("epsilon", "partial_integral"), zip(self.epsilons, self.partial_integrals))


def _tail_integrals(Q: ScalarField, epsilons: np.ndarray, eps0: float,
                    n_dense: int, n_angular: int, integrand) -> np.ndarray:
    """int_eps^eps0 integrand(r, ||Q||(r)) dr for each eps (decreasing), from
    one dense geometric profile that contains the epsilons."""
    grid = np.unique(np.concatenate([np.geomspace(epsilons[-1], eps0, n_dense), epsilons]))
    norms = np.array([circle_integral(Q, float(r), n_angular) for r in grid])
    values = integrand(grid, norms)
    # cumulative trapezoid from the right: I[k] = int_{grid[k]}^{eps0}
    seg = 0.5 * (values[1:] + values[:-1]) * np.diff(grid)
    cum = np.concatenate([[0.0], np.cumsum(seg[::-1])])[::-1]
    return cum[np.searchsorted(grid, epsilons)]


def _reciprocal_norm(r: np.ndarray, norms: np.ndarray) -> np.ndarray:
    if np.any(norms <= 0.0):
        raise ZeroNormError("||Q|| vanishes on the ring; reciprocal integral undefined")
    return 1.0 / norms


def divergence_check(Q: ScalarField, ring: RingSpec, n_eps: int = 12,
                     n_dense: int = 512, n_angular: int = 256) -> DivergenceReport:
    """Partial integrals int_eps^eps0 dr/||Q||(r) for geometrically shrinking
    eps, with growth fitted on the small-eps tail against three 2-parameter
    models: a + b*eps (bounded), a + b*log(1/eps), a + b*loglog(1/eps).

    Verdict "diverges" when the best unbounded-model residual beats the
    bounded one by a factor >= 10, "converges" in the mirrored case, else
    "inconclusive".
    """
    eps0 = ring.r_outer
    floor = max(ring.r_inner, EPSILON_FLOOR)
    epsilons = eps0 * 0.5 ** np.arange(1, n_eps + 1)
    epsilons = np.unique(np.maximum(epsilons, floor))[::-1]
    if len(epsilons) < 6:
        raise ValueError("epsilon sequence too short; widen the ring or raise n_eps")
    partials = _tail_integrals(Q, epsilons, eps0, n_dense, n_angular, _reciprocal_norm)

    tail = epsilons <= eps0 / 4 + 1e-15
    if np.count_nonzero(tail) < 6:
        tail = np.ones_like(epsilons, dtype=bool)
    x_eps = epsilons[tail]
    y = partials[tail]
    L = np.log(1.0 / x_eps)
    fits = {
        "bounded": _linear_fit_residual(x_eps, y)[2],
        "log": _linear_fit_residual(L, y)[2],
        "loglog": _linear_fit_residual(np.log(L), y)[2],
    }
    spread = float(np.max(y) - np.min(y)) + 1e-300
    best = min(fits, key=fits.get)
    fitted_growth = best if fits[best] <= 0.05 * spread else "other"
    unbounded = min(fits["log"], fits["loglog"])
    bounded = fits["bounded"]
    if unbounded * 10.0 <= bounded:
        verdict = "diverges"
    elif bounded * 10.0 <= unbounded:
        verdict = "converges"
    else:
        verdict = "inconclusive"
    return DivergenceReport(epsilons, partials, fitted_growth, verdict, fits)


# ---------------------------------------------------------------------------
# extremal weight eta_0


@dataclass(frozen=True)
class EtaProfile:
    """Sampled extremal radial weight eta_0(r) = 1/(J ||Q||(r)) on a ring."""

    ring: RingSpec
    J: float
    radii: np.ndarray
    eta0: np.ndarray

    def normalization(self) -> float:
        return float(np.trapezoid(self.eta0, self.radii))


@dataclass(frozen=True)
class EtaCheckReport:
    eta: EtaProfile
    one_over_j: float
    equality_value: float
    equality_rel_error: float
    n_random: int
    min_relative_margin: float
    all_above: bool

    def to_json(self, path=None):
        data = {
            "J": self.eta.J,
            "one_over_j": self.one_over_j,
            "equality_value": self.equality_value,
            "equality_rel_error": self.equality_rel_error,
            "n_random": self.n_random,
            "min_relative_margin": self.min_relative_margin,
            "all_above": self.all_above,
        }
        return write_json(data, path)


def eta_inequality_check(Q: ScalarField, ring: RingSpec, n_random: int = 500,
                         seed: int = 0, n_samples: int = 1024,
                         n_angular: int = 512, n_bins: int = 32) -> EtaCheckReport:
    """Extremality of eta_0 among unit-integral radial weights.

    Checks (a) the identity: the ring integral of Q * eta_0^2(h) equals 1/J,
    recomputed with an independent Simpson quadrature; (b) for seeded random
    piecewise-constant eta with int eta dr = 1, the weighted integral never
    drops below 1/J (beyond 1e-9 relative).
    """
    profile = qnorm_profile(Q, ring, n_samples=n_samples, n_angular=n_angular)
    radii, norms = profile.radii, profile.values
    if np.any(norms <= 0):
        raise ZeroNormError("||Q|| vanishes on the ring")
    # trapezoid weights shared by J, the normalizations, and the integrals
    w = np.zeros_like(radii)
    dr = np.diff(radii)
    w[:-1] += 0.5 * dr
    w[1:] += 0.5 * dr
    J = float(np.sum(w / norms))
    eta0 = 1.0 / (J * norms)
    eta_profile = EtaProfile(ring, J, radii, eta0)

    # independent route: Simpson nodes, fresh circle integrals
    sim_r, sim_w = _simpson_nodes(ring.r_inner, ring.r_outer, 129)
    sim_norms = np.array([circle_integral(Q, float(r), n_angular) for r in sim_r])
    equality_value = float(np.sum(sim_w / (J * J * sim_norms)))
    one_over_j = 1.0 / J
    equality_rel_error = abs(equality_value - one_over_j) / one_over_j

    rng = np.random.default_rng(seed)
    bins = np.minimum(
        ((radii - ring.r_inner) / (ring.r_outer - ring.r_inner) * n_bins).astype(int),
        n_bins - 1,
    )
    min_margin = math.inf
    for _ in range(n_random):
        heights = rng.uniform(0.05, 1.0, n_bins)
        eta = heights[bins]
        eta = eta / float(np.sum(w * eta))
        integral = float(np.sum(w * eta * eta * norms))
        margin = integral * J - 1.0
        min_margin = min(min_margin, margin)
    return EtaCheckReport(
        eta=eta_profile,
        one_over_j=one_over_j,
        equality_value=equality_value,
        equality_rel_error=equality_rel_error,
        n_random=n_random,
        min_relative_margin=min_margin,
        all_above=min_margin >= -1e-9,
    )


# ---------------------------------------------------------------------------
# FMO integral growth


@dataclass(frozen=True)
class SlopeReport:
    epsilons: np.ndarray
    values: np.ndarray
    slope: float
    intercept: float
    residual: float
    tail_increment: float  # slope between the last two epsilon points

    def to_json(self, path=None):
        data = {
            "epsilons": list(map(float, self.epsilons)),
            "values": list(map(float, self.values)),
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "tail_increment": self.tail_increment,
        }
        return write_json(data, path)


def fmo_integral_estimate(Q: ScalarField, eps_list=None, eps0: float = 0.5,
                          center=0j, n_dense: int = 512,
                          n_angular: int = 256) -> SlopeReport:
    """Growth of int_{eps<h<eps0} Q / (h log(1/h))^2 dh against loglog(1/eps).

    Radial reduction: the integrand is ||Q||(r) / (r log(1/r))^2. The report
    carries the global regression slope and the incremental slope over the
    smallest epsilons; a finite slope (with decaying increments for bounded
    integrals) is the expected signature for weights of finite mean
    oscillation at the center.
    """
    if eps0 >= 1.0:
        raise ValueError("need eps0 < 1 so log(1/r) stays positive")
    if eps_list is None:
        eps_list = default_epsilon_sequence(eps0, count=16)
    epsilons = np.asarray(sorted(map(float, eps_list), reverse=True))
    field = recentered_field(Q, center)

    values = _tail_integrals(field, epsilons, eps0, n_dense, n_angular,
                             lambda r, norms: norms / (r * np.log(1.0 / r)) ** 2)

    xi = np.log(np.log(1.0 / epsilons))
    if np.all(values <= 1e-300):
        return SlopeReport(epsilons, values, 0.0, 0.0, 0.0, 0.0)
    slope, intercept, residual = _linear_fit_residual(xi, values)
    tail = (values[-1] - values[-2]) / (xi[-1] - xi[-2])
    return SlopeReport(epsilons, values, float(slope), float(intercept),
                       residual, float(tail))
