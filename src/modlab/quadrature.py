"""Integration on the surface in a normal chart about the origin.

Circle and ball integrals against the hyperbolic line/area elements, radial
profiles of the circle norm ||Q||(r), and the reciprocal ring integral
that all ring estimates are built on.

Every circle integral goes through `circle_integrals`: the trapezoid rule in
the angle, which is spectrally accurate on smooth periodic integrands,
evaluated on blocks of rows of the radii x angles grid rather than one circle
at a time; each value is bit-identical to the one-circle trapezoid sum. Every
radial integral is a Gauss-Legendre rule: in r for a ball, and in u = log r
for a radial profile, whose weights make a ring integral one weighted sum.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._io import csv_text
from .diskgeom import _BLOCK_POINTS, BOUNDARY_MARGIN, euclid_radius

__all__ = [
    "ScalarField",
    "RingSpec",
    "RadialProfile",
    "ZeroNormError",
    "SingularitySkippedWarning",
    "circle_integral",
    "circle_integrals",
    "ball_integral",
    "qnorm_profile",
    "ring_reciprocal_integral",
]


class ZeroNormError(ValueError):
    """A circle norm vanished where its reciprocal is needed."""


class SingularitySkippedWarning(UserWarning):
    """The declared singular point lies on an integration circle."""


@dataclass(frozen=True)
class ScalarField:
    """Non-negative weight Q on the chart, evaluated at complex points.

    The evaluator must accept numpy arrays of complex numbers (all catalog
    fields do); an optional singular point marks where Q is undefined.
    """

    evaluator: object
    label: str = "Q"
    singular_point: complex = None

    def __call__(self, z):
        return self.evaluator(z)

    def evaluate_array(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(z), dtype=float)


@dataclass(frozen=True)
class RingSpec:
    """Annulus r_inner < h(0, z) < r_outer in hyperbolic radii about the chart center."""

    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not 0.0 <= self.r_inner < self.r_outer:
            raise ValueError("need 0 <= r_inner < r_outer")
        if euclid_radius(self.r_outer) >= 1.0 - 1e-6:
            raise ValueError("outer radius too close to the disk boundary")

    def band_edges(self, n: int) -> np.ndarray:
        """The n + 1 hyperbolic radii bounding n equal bands of the ring: the
        one band rule, which every polar grid and circle family of a ring uses."""
        return np.linspace(self.r_inner, self.r_outer, n + 1)

    def band_centers(self, n: int) -> np.ndarray:
        """The hyperbolic radii at the middles of the n bands of `band_edges`."""
        edges = self.band_edges(n)
        return 0.5 * (edges[:-1] + edges[1:])


@dataclass(frozen=True)
class RadialProfile:
    """Samples of r -> ||Q||(r) at strictly increasing radii, with the positive
    quadrature weights of the radii: sum(weights * g(radii)) integrates g dr."""

    radii: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    quadrature_n: int
    label: str = "Q"

    def __post_init__(self):
        radii, values, weights = (np.asarray(a, dtype=float)
                                  for a in (self.radii, self.values, self.weights))
        if radii.ndim != 1 or values.shape != radii.shape or weights.shape != radii.shape:
            raise ValueError("radii, values and weights must be 1-d arrays of equal length")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("profile values must be non-negative")
        if not np.all(weights > 0):
            raise ValueError("quadrature weights must be positive")
        for name, value in (("radii", radii), ("values", values), ("weights", weights)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.radii)

    def to_csv(self) -> str:
        return csv_text(("r", "qnorm"), zip(self.radii, self.values))

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "quadrature_n": self.quadrature_n,
            "radii": self.radii,
            "qnorm": self.values,
        }


def circle_integrals(Q: ScalarField, radii, n: int = 512) -> np.ndarray:
    """L1 norms of Q over the hyperbolic circles of the given radii about 0.

    Trapezoid sum over n equispaced angles on the Euclidean circle of radius
    R = tanh(r/2), weighted by the line element 2R/(1-R^2) per unit angle.
    Q is evaluated on blocks of rows of the radii x angles grid, at most
    2^13 points per call, so memory stays flat however many radii are asked
    and each value rounds as it does on one circle. A circle whose radius R
    lies within 1e-9 R of the distance of Q's singular point from 0 warns
    SingularitySkippedWarning.
    """
    if n < 16:
        raise ValueError("need n >= 16 angular samples")
    singular = None if Q.singular_point is None else abs(complex(Q.singular_point))
    R = np.empty(len(radii))
    for i, r in enumerate(radii):
        r = float(r)
        if r <= 0:
            raise ValueError("circle radius must be positive")
        R[i] = euclid_radius(r)
        if R[i] >= 1.0 - BOUNDARY_MARGIN:
            raise ValueError("circle reaches the disk boundary")
        if singular is not None and abs(singular - R[i]) < 1e-9 * R[i]:
            warnings.warn(
                f"singular point of {Q.label} lies on the integration circle r={r}",
                SingularitySkippedWarning,
                stacklevel=2,
            )
    unit = np.exp(1j * (np.arange(n) * (2.0 * math.pi / n)))
    rows = max(1, _BLOCK_POINTS // n)
    sums = np.empty(len(R))
    for i in range(0, len(R), rows):
        z = R[i:i + rows, None] * unit
        sums[i:i + rows] = Q.evaluate_array(z.ravel()).reshape(z.shape).sum(axis=1)
    return sums * (2.0 * R / (1.0 - R * R)) * (2.0 * math.pi / n)


def circle_integral(Q: ScalarField, r: float, n: int = 512) -> float:
    """L1 norm of Q over the hyperbolic circle of radius r about 0; the
    one-radius case of `circle_integrals`."""
    return float(circle_integrals(Q, (r,), n)[0])


def ball_integral(Q: ScalarField, r0: float, n_r: int = 129, n_theta: int = 512) -> float:
    """Integral of Q over the hyperbolic ball of radius r0 about 0.

    Iterated form: the n_r-point Gauss-Legendre rule in r on [0, r0]
    applied to the circle integrals (the radial reduction of the area
    integral). Its nodes never touch 0, so a field singular at the center
    needs no cutoff. The variable is r, not log r: the deviation |Q - mean|
    of the FMO check has a kink in r, which a log-r rule resolves worse.
    """
    if r0 <= 0:
        raise ValueError("ball radius must be positive")
    radii, weights = _gauss_nodes(n_r, 0.0, r0)
    return float(np.sum(weights * circle_integrals(Q, radii, n_theta)))


def _legendre(n: int, x: np.ndarray):
    """(P_n(x), P_n'(x)) by the three-term recurrence, for x inside (-1, 1)."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int):
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    exact for polynomials of degree up to 2n - 1; read-only arrays.

    Newton on P_n from Tricomi's guesses cos(pi (k - 1/4) / (n + 1/2)), which
    converges in three or four steps, then w = 2 / ((1 - x^2) P_n'(x)^2). O(n)
    memory, where an eigenvalue solve would build an n x n matrix.
    """
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(10):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_nodes(n: int, a, b):
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b]. Array
    bounds give one row of n nodes per interval [a_k, b_k]."""
    x, w = _gauss_legendre(n)
    a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def qnorm_profile(Q: ScalarField, ring: RingSpec, n_samples: int = 64,
                  n_angular: int = 512) -> RadialProfile:
    """||Q||(r) at the n_samples Gauss-Legendre nodes in u = log r on [lo, r_outer].

    lo is r_inner, floored at r_outer * 1e-6 for a ring about the center. The
    weights are w_i r_i (b - a)/2 with a = log lo and b = log r_outer, since
    dr = r du: a smooth g(r) integrates to sum(weights * g(radii)) with the
    rule's spectral accuracy, and g(log r)/r exactly for g of degree up to
    2 n_samples - 1. Each circle integral uses n_angular angles.
    """
    if n_samples < 4:
        raise ValueError("need n_samples >= 4")
    lo = ring.r_inner if ring.r_inner > 0 else ring.r_outer * 1e-6
    a, b = math.log(lo), math.log(ring.r_outer)
    x, w = _gauss_legendre(n_samples)
    radii = np.exp(0.5 * (a + b) + 0.5 * (b - a) * x)
    values = circle_integrals(Q, radii, n_angular)
    return RadialProfile(radii, values, w * radii * (0.5 * (b - a)),
                         quadrature_n=n_angular, label=Q.label)


def ring_reciprocal_integral(profile: RadialProfile) -> float:
    """Integral of dr / ||Q||(r) over the profile's ring: sum(weights / values)."""
    if np.any(profile.values <= 0.0):
        raise ZeroNormError("profile contains a zero norm; reciprocal undefined")
    return float(np.sum(profile.weights / profile.values))
