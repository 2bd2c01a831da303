"""Numeric verdicts for the analytic hypotheses on the weight Q.

Finite mean oscillation at a point, divergence of the reciprocal ring
integral, and the extremal-weight identity/inequality for eta_0 =
1/(J ||Q||). "limsup < inf" and "integral = inf" are not decidable from
finitely many samples; every verdict here is a model comparison over an
explicit epsilon sequence with the raw data exposed in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diskgeom import mobius_apply, mobius_invert, mobius_to_zero
from .quadrature import (
    RingSpec,
    ScalarField,
    ZeroNormError,
    _gauss_nodes,
    ball_integral,
    circle_integrals,
    qnorm_profile,
)

__all__ = [
    "FMOReport",
    "NotIntegrableError",
    "DivergenceReport",
    "EtaProfile",
    "EtaCheckReport",
    "default_epsilon_sequence",
    "recentered_field",
    "fmo_check",
    "divergence_check",
    "eta_inequality_check",
]

EPSILON_FLOOR = 1e-4  # quadrature floor in hyperbolic units
_BALL_N_R, _BALL_N_THETA = 64, 256  # ball quadrature of the FMO check
_BALL_DELTA_MAX = 1e-3  # largest |mean at n_r - mean at n_r // 2 nodes| / |mean| of the FMO check
_TAIL_N_NODES, _TAIL_N_ANGULAR = 16, 256  # per epsilon interval, in the tail integrals
_ETA_N_SAMPLES, _ETA_N_ANGULAR, _ETA_N_BINS = 1024, 512, 32  # eta_0 check


def default_epsilon_sequence(eps0: float = 0.4, count: int = 12) -> np.ndarray:
    """Decreasing sequence eps0 * 2^-k, k = 1..count, floored at 1e-4."""
    eps = eps0 * 0.5 ** np.arange(1, count + 1)
    eps = np.unique(np.maximum(eps, EPSILON_FLOOR))[::-1]
    return eps


def recentered_field(Q: ScalarField, center) -> ScalarField:
    """Conjugate Q by the automorphism sending `center` to 0, so ball and
    circle integrals about 0 equal the originals about the center."""
    c = complex(center)
    if c == 0:
        return Q
    g = mobius_to_zero(c)
    g_inv = mobius_invert(g)
    ev = Q.evaluator
    singular = None if Q.singular_point is None else mobius_apply(g, Q.singular_point)

    def conjugated(z, _ev=ev, _g=g_inv):
        return _ev(mobius_apply(_g, z))

    return ScalarField(conjugated, label=f"{Q.label}@{c}", singular_point=singular)


def _linear_fit_residual(x: np.ndarray, y: np.ndarray):
    """Least-squares slope/intercept plus RMS residual of y ~ a + b x."""
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    return coef[1], coef[0], float(np.sqrt(np.mean(resid**2)))


# ---------------------------------------------------------------------------
# finite mean oscillation


class NotIntegrableError(ValueError):
    """A ball mean of the FMO check moves by more than 1e-3 of itself from
    n_r to n_r // 2 radial nodes, as for a field not integrable about the
    center (1/|z|^2): the mean is then an artefact of the rule."""


@dataclass(frozen=True)
class FMOReport:
    epsilons: np.ndarray
    means: np.ndarray
    oscillations: np.ndarray
    trend_slope: float
    verdict: str  # "fmo" | "not_fmo" | "inconclusive"


def fmo_check(Q: ScalarField, epsilons=None, center=0j) -> FMOReport:
    """Mean oscillation of Q over shrinking balls about a point.

    For each epsilon the ball mean and the normalized mean oscillation are
    computed by the iterated ball quadrature; a mean that the same rule at
    half the radial nodes does not reproduce to 1e-3 is a
    NotIntegrableError naming the field. Verdict: "not_fmo" when the
    log-log regression of oscillation against 1/epsilon has slope > 0.2,
    "fmo" when the oscillations are bounded across the sequence: the slope
    is <= 0 (they fall as the balls shrink) or max/median <= 3; otherwise
    "inconclusive".
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
        mean = ball_integral(field, eps, n_r=_BALL_N_R, n_theta=_BALL_N_THETA) / area
        delta = abs(mean - ball_integral(field, eps, n_r=_BALL_N_R // 2, n_theta=_BALL_N_THETA) / area)
        if not delta <= _BALL_DELTA_MAX * abs(mean):  # NaN too
            raise NotIntegrableError(
                f"{field.label} is not integrable about the center: its ball mean at epsilon {eps:g} "
                f"moves by {delta:.3g} between {_BALL_N_R} and {_BALL_N_R // 2} radial nodes, "
                f"more than {_BALL_DELTA_MAX:g} of the mean {mean:.6g}")
        deviation = ScalarField(
            lambda z, _ev=field.evaluator, _m=mean: np.abs(np.asarray(_ev(z), dtype=float) - _m),
            label=f"|{field.label} - mean|",
            singular_point=field.singular_point,
        )
        osc = ball_integral(deviation, eps, n_r=_BALL_N_R, n_theta=_BALL_N_THETA) / area
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
    elif slope <= 0.0 or float(np.max(oscillations)) <= 3.0 * float(np.median(oscillations)):
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


def _tail_integrals(Q: ScalarField, epsilons: np.ndarray, eps0: float) -> np.ndarray:
    """int_eps^eps0 dr / ||Q||(r) for each eps (decreasing below eps0): running
    sums of 16-node Gauss-Legendre rules in u = log r (dr = r du) on the
    intervals [eps_k, eps_{k-1}], eps_0 = eps0."""
    u, w = _gauss_nodes(_TAIL_N_NODES, np.log(epsilons), np.log(np.append(eps0, epsilons[:-1])))
    radii = np.exp(u)
    norms = circle_integrals(Q, radii.ravel(), _TAIL_N_ANGULAR).reshape(radii.shape)
    if np.any(norms <= 0.0):
        raise ZeroNormError("||Q|| vanishes on the ring; reciprocal integral undefined")
    return np.cumsum(np.sum(w * radii / norms, axis=1))


def divergence_check(Q: ScalarField, ring: RingSpec) -> DivergenceReport:
    """Partial integrals int_eps^eps0 dr/||Q||(r) for eps = eps0 2^-k,
    k = 1..12, with eps0 = ring.r_outer and eps floored at the inner radius.
    Their growth on the small-eps tail is fitted against three 2-parameter
    models: a + b*eps (bounded), a + b*log(1/eps), a + b*loglog(1/eps).

    Verdict "diverges" when the best unbounded-model residual beats the
    bounded one by a factor >= 10, "converges" in the mirrored case, else
    "inconclusive".
    """
    eps0 = ring.r_outer
    floor = max(ring.r_inner, EPSILON_FLOOR)
    epsilons = eps0 * 0.5 ** np.arange(1, 13)
    epsilons = np.unique(np.maximum(epsilons, floor))[::-1]
    if len(epsilons) < 6:
        raise ValueError("epsilon sequence too short; widen the ring")
    partials = _tail_integrals(Q, epsilons, eps0)

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
    """Sampled extremal radial weight eta_0(r) = 1/(J ||Q||(r)) on a ring, with
    the quadrature weights of its radii: sum(weights * eta0) = 1."""

    ring: RingSpec
    J: float
    radii: np.ndarray
    eta0: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class EtaCheckReport:
    eta: EtaProfile
    one_over_j: float
    equality_value: float
    equality_rel_error: float
    n_random: int
    min_relative_margin: float
    all_above: bool


def eta_inequality_check(Q: ScalarField, ring: RingSpec, n_random: int = 500,
                         seed: int = 0) -> EtaCheckReport:
    """Extremality of eta_0 among unit-integral radial weights.

    Checks (a) the identity: the ring integral of Q * eta_0^2(h) equals 1/J,
    recomputed independently at 129 fresh circles by Gauss-Legendre in r, not
    log r; (b) for seeded random eta, piecewise constant on 32 equal radial
    bins, with int eta dr = 1, the weighted integral never drops below 1/J
    (beyond 1e-9 relative).
    """
    profile = qnorm_profile(Q, ring, n_samples=_ETA_N_SAMPLES, n_angular=_ETA_N_ANGULAR)
    radii, norms, w = profile.radii, profile.values, profile.weights
    if np.any(norms <= 0):
        raise ZeroNormError("||Q|| vanishes on the ring")
    # the profile's Gauss-Legendre weights serve J, the normalizations and the integrals
    J = float(np.sum(w / norms))
    eta0 = 1.0 / (J * norms)
    eta_profile = EtaProfile(ring, J, radii, eta0, w)

    # independent route: other nodes in another variable, fresh circle integrals
    ind_r, ind_w = _gauss_nodes(129, ring.r_inner, ring.r_outer)
    ind_norms = circle_integrals(Q, ind_r, _ETA_N_ANGULAR)
    equality_value = float(np.sum(ind_w / (J * J * ind_norms)))
    one_over_j = 1.0 / J
    equality_rel_error = abs(equality_value - one_over_j) / one_over_j

    rng = np.random.default_rng(seed)
    bins = np.minimum(
        ((radii - ring.r_inner) / (ring.r_outer - ring.r_inner) * _ETA_N_BINS).astype(int),
        _ETA_N_BINS - 1,
    )
    min_margin = math.inf
    for _ in range(n_random):
        heights = rng.uniform(0.05, 1.0, _ETA_N_BINS)
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
