"""Closed-form sample mappings of the disk and their distortion data.

Each kind is defined by its constructor, which sets the map's evaluator, its
analytic Wirtinger derivatives and its degree at 0: mobius (conformal),
radial_stretch z|z|^{k-1}, winding r e^{i k theta}, the fold, the boundary
spiral, and compositions (by the chain rule). A config names a kind
by one row of `_MAP_KINDS`: the keys it reads and its builder. Dilatation,
Jacobian and the finite-distortion check are derived from the Wirtinger
derivatives, with moduli by numpy's complex abs and squares by products, a
few ulps from Python's abs and **; multiplicity bounds are winding numbers of
the image of the circle |z| = 0.999. Whether a map takes circles about 0 onto circles about 0
is not declared here: lower_q measures it on f when its config is loaded.

Maps, Wirtinger derivatives and the dilatation take and return complex
arrays; a point is a one-element array. K is inf where the Jacobian vanishes.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._io import MAX_COUNT, csv_text, json_number, json_object, spec_argument
from .diskgeom import MobiusAutomorphism, mobius_apply

__all__ = [
    "SampleMap",
    "MultiplicityReport",
    "NotSensePreservingError",
    "identity_map",
    "mobius_map",
    "radial_stretch",
    "winding",
    "compose_maps",
    "fold_map",
    "boundary_spiral_map",
    "parse_map",
    "map_from_config",
    "wirtinger",
    "dilatation",
    "DistortionSweep",
    "distortion_sweep",
    "multiplicity",
    "finite_distortion_check",
]


@dataclass(frozen=True)
class SampleMap:
    """A disk-to-disk map, as its constructor defines it.

    `evaluate` maps an array of complex points; `wirtinger_analytic` gives the
    (f_z, f_zbar) arrays, with branch points taking the limit along arg z = 0.
    `degree` is the local topological degree at the branch point 0 (= N on
    circles about 0).
    """

    evaluate: Callable
    label: str
    wirtinger_analytic: Callable
    degree: int = 1

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """f at an array of complex points; a point is a one-element array."""
        return self.evaluate(z)


def mobius_map(g: MobiusAutomorphism) -> SampleMap:
    def wirtinger_analytic(z):
        fz = 1.0 / (np.conjugate(g.c) * z + np.conjugate(g.a)) ** 2
        return fz, np.zeros_like(fz)

    return SampleMap(lambda z: mobius_apply(g, z), "mobius", wirtinger_analytic)


def identity_map() -> SampleMap:
    return replace(mobius_map(MobiusAutomorphism(1.0, 0.0)), label="identity")


def _direction(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """z/|z|, and 1 at 0."""
    return np.where(r > 0, z / np.where(r > 0, r, 1.0), 1.0)


def radial_stretch(k: float) -> SampleMap:
    if k < 1.0:
        raise ValueError("radial stretch exponent must be >= 1")
    label, k = f"radial_stretch:{k:g}", float(k)

    def wirtinger_analytic(z):
        r = np.abs(z)
        u = _direction(z, r)
        rk = r ** (k - 1.0)
        fz = (0.5 * (k + 1.0) * rk).astype(complex)
        fzb = 0.5 * (k - 1.0) * rk * u**2
        return fz, fzb

    return SampleMap(lambda z: z * np.abs(z) ** (k - 1.0), label, wirtinger_analytic)


def winding(k: int) -> SampleMap:
    """r e^{i theta} -> r e^{i k theta} for a whole k in [1, MAX_COUNT], the cap on
    counts read from outside: at k = 10^20 the powers of z/|z| overflow, and
    354 of the 33-lattice sweep's |f_z| are not finite."""
    if not (1 <= k <= MAX_COUNT and int(k) == k):  # NaN fails the first test
        raise ValueError(f"winding order must be a whole number in [1, {MAX_COUNT}], not {k!r}")
    k = int(k)

    def evaluate(z):
        r = np.abs(z)
        return np.where(r > 0, z**k / np.where(r > 0, r, 1.0) ** (k - 1.0), 0.0)

    def wirtinger_analytic(z):
        u = _direction(z, np.abs(z))
        fz = 0.5 * (k + 1.0) * u ** (k - 1.0)
        fzb = -0.5 * (k - 1.0) * u ** (k + 1.0)
        return fz, fzb

    return SampleMap(evaluate, f"winding:{k}", wirtinger_analytic, degree=k)


def compose_maps(*maps: SampleMap) -> SampleMap:
    """Composition applied inner-to-outer: compose_maps(f, g) is g after f."""

    def evaluate(z):
        for part in maps:
            z = part(z)
        return z

    def wirtinger_analytic(z):
        fz = np.ones_like(z)
        fzb = np.zeros_like(z)
        w = z
        for part in maps:
            gz, gzb = part.wirtinger_analytic(w)
            # named conjugates: numpy would multiply into an unnamed temporary in
            # place with the operands swapped, which rounds differently from 2^14 points
            conj_fz, conj_fzb = np.conjugate(fz), np.conjugate(fzb)
            fz, fzb = gz * fz + gzb * conj_fzb, gz * fzb + gzb * conj_fz
            w = part(w)
        return fz, fzb

    return SampleMap(
        evaluate,
        "(" + "∘".join(m.label for m in reversed(maps)) + ")",
        wirtinger_analytic,
        degree=math.prod(m.degree for m in maps),
    )


def fold_map() -> SampleMap:
    """x + iy -> |x| + iy; orientation-reversing on x < 0, singular on x = 0,
    where the derivatives are the mean of the two sides: J = 0 there."""

    def wirtinger_analytic(z):
        s = np.sign(z.real)
        return (0.5 * (1.0 + s)).astype(complex), (-0.5 * (1.0 - s)).astype(complex)

    return SampleMap(lambda z: np.abs(np.real(z)) + 1j * np.imag(z), "fold", wirtinger_analytic)


def boundary_spiral_map() -> SampleMap:
    """z -> z e^{i phi(|z|)}, phi(r) = log(1 + log(1/(1-r))): rotates ever
    faster toward the rim, so radial limits at the boundary do not exist.
    With a = r phi'(r)/2, f_z = e^{i phi}(1 + i a) and f_zbar = e^{i phi} i a
    (z/|z|)^2, so J = 1 and K = (sqrt(1 + a^2) + a)^2."""

    def rotation(r):
        log_inv = np.log(1.0 / np.maximum(1.0 - r, 1e-15))
        return np.exp(1j * np.log1p(log_inv)), log_inv

    def evaluate(z):
        rot, _ = rotation(np.abs(z))  # named, as the conjugates in compose_maps
        return z * rot

    def wirtinger_analytic(z):
        r = np.abs(z)
        rot, log_inv = rotation(r)
        ia = 1j * (0.5 * r / (np.maximum(1.0 - r, 1e-15) * (1.0 + log_inv)))  # i r phi'(r)/2
        one_plus_ia, u = 1.0 + ia, _direction(z, r)
        rot_ia, u2 = rot * ia, u * u  # every factor named, as in compose_maps
        return rot * one_plus_ia, rot_ia * u2

    return SampleMap(evaluate, "spiral", wirtinger_analytic)


def parse_map(spec: str) -> SampleMap:
    """CLI map spec: a JSON map config (see map_from_config) or the shorthand
    kind[:k], e.g. identity | winding:<k> | radial_stretch:<k> | spiral | fold."""
    spec = spec.strip()
    if spec.startswith("{"):
        return map_from_config(json.loads(spec))
    kind, _, arg = spec.partition(":")
    cfg = {"kind": "radial_stretch" if kind == "radial-stretch" else kind}
    if arg:
        cfg["k"] = spec_argument(arg)  # winding:3 gives 3, as {"k": 3} does
    return map_from_config(cfg)


def _winding_from_config(cfg: dict) -> SampleMap:
    k = json_number(cfg["k"], "map.k", whole=True)
    try:
        return winding(k)
    except ValueError:  # the builder's refusal, named by the config key
        raise ValueError(f"map.k must be a whole number in [1, {MAX_COUNT}], not {cfg['k']!r}") from None


def _mobius_from_config(cfg: dict) -> SampleMap:
    a_re, c_re = (json_number(cfg[key], f"map.{key}") for key in ("a_re", "c_re"))
    a_im, c_im = (json_number(cfg.get(key, 0.0), f"map.{key}") for key in ("a_im", "c_im"))
    return mobius_map(MobiusAutomorphism(complex(a_re, a_im), complex(c_re, c_im)))


# every map kind a config can name: kind -> (the keys it reads besides "kind", its builder)
_MAP_KINDS = {
    "identity": ((), lambda cfg: identity_map()),
    "winding": (("k",), _winding_from_config),
    "radial_stretch": (("k",), lambda cfg: radial_stretch(json_number(cfg["k"], "map.k"))),
    "mobius": (("a_re", "a_im", "c_re", "c_im"), _mobius_from_config),
    "composition": (("parts",), lambda cfg: compose_maps(*(map_from_config(part) for part in cfg["parts"]))),
    "spiral": ((), lambda cfg: boundary_spiral_map()),
    "fold": ((), lambda cfg: fold_map()),
}


def map_from_config(cfg: dict) -> SampleMap:
    """Map definition from config JSON, e.g. {"kind": "winding", "k": 3};
    every number is read by `_io.json_number`, and a key the kind does not
    read is refused by `_io.json_object`, in each part of a composition too."""
    try:
        kind = cfg["kind"]
        if kind not in _MAP_KINDS:
            raise ValueError(f"unknown map kind {kind!r}")
        keys, build = _MAP_KINDS[kind]
        return build(json_object(cfg, "map", ("kind", *keys)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed map spec {cfg!r}: {exc!r}") from exc


# ---------------------------------------------------------------------------
# derivatives and distortion


def wirtinger(f: SampleMap, z):
    """(f_z, f_zbar) at an array of points, from the map's analytic data."""
    return f.wirtinger_analytic(np.atleast_1d(np.asarray(z, dtype=complex)))


def _moduli(f_z: np.ndarray, f_zbar: np.ndarray):
    """|f_z|, |f_zbar| and the Jacobian |f_z|^2 - |f_zbar|^2 as arrays."""
    a, b = np.abs(f_z), np.abs(f_zbar)
    return a, b, a * a - b * b


def _derivative_data(f_z: np.ndarray, f_zbar: np.ndarray):
    """`_moduli` and K = (|f_z|+|f_zbar|)/||f_z|-|f_zbar|| as arrays; K >= 1 on
    either side of J's sign, 1 where the norm vanishes and inf where J
    vanishes relative to the norm squared. numpy's complex abs may round a
    modulus 2 ulps from Python's abs; the tests bound all four by that drift."""
    a, b, jac = _moduli(f_z, f_zbar)
    n = a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(np.abs(jac) < 1e-15 * n * n, np.inf, n / np.abs(a - b))
    return a, b, jac, np.where(n < 1e-15, 1.0, k)


def dilatation(f: SampleMap, z) -> np.ndarray:
    """K_f at an array of points: (|f_z|+|f_zbar|)/||f_z|-|f_zbar|| where
    J != 0, 1 where the norm vanishes and inf where J = 0."""
    return _derivative_data(*wirtinger(f, z))[3]


_DISTORTION_EXTENT = 0.9  # the sweeps sample the disk |z| <= 0.9


@dataclass(frozen=True, eq=False)
class DistortionSweep:
    """Derivative data of a map at the points z of a grid in the disk, as arrays."""

    z: np.ndarray
    abs_fz: np.ndarray
    abs_fzbar: np.ndarray
    dilatation: np.ndarray
    jacobian: np.ndarray

    def to_csv(self) -> str:
        """One row (re, im, |f_z|, |f_zbar|, K, J) per point."""
        return csv_text(("re", "im", "abs_fz", "abs_fzbar", "K", "J"),
                        zip(self.z.real, self.z.imag, self.abs_fz, self.abs_fzbar, self.dilatation, self.jacobian))


def _distortion_lattice(grid: int) -> np.ndarray:
    """The points of the grid x grid lattice on [-0.9, 0.9]^2 with |z| <= 0.9,
    ordered by x then y."""
    xs = np.linspace(-_DISTORTION_EXTENT, _DISTORTION_EXTENT, grid)
    z = (xs[:, None] + 1j * xs[None, :]).ravel()
    return z[np.abs(z) <= _DISTORTION_EXTENT]


def distortion_sweep(f: SampleMap, grid: int) -> DistortionSweep:
    """The derivative data of f on the `_distortion_lattice`; grid >= 16."""
    if grid < 16:
        raise ValueError("need grid >= 16")
    z = _distortion_lattice(grid)
    a, b, jac, k = _derivative_data(*wirtinger(f, z))
    return DistortionSweep(z, a, b, k, jac)


# ---------------------------------------------------------------------------
# multiplicity: the degree by the argument principle

_DEGREE_RADIUS = 0.999  # the swept circle |z| = R: the counts bound preimages in |z| < R only
_DEGREE_SAMPLES = 4096  # the first sampling of the circle
_DEGREE_SAMPLE_CAP = 2**16  # the finest sampling; a count it cannot certify leaves the report incomplete


class NotSensePreservingError(ValueError):
    """J < 0 at a sampled point: the winding number of f(|z| = R) then bounds
    no preimage count, so the map is refused."""


@dataclass(frozen=True)
class MultiplicityReport:
    """`counts[i]` is the winding number of the polygon f(R e^{2 pi i j/n}),
    j < n = `samples`, about `targets[i]`, or None where the sampling did not
    certify it; `max_step` is the largest angle that f - y turns through
    between neighbouring samples, and `min_distance[i]` is min |f - y| over
    the 2n samples at which each count was checked again."""

    targets: tuple
    counts: tuple
    supremum: int
    incomplete: bool
    samples: int
    max_step: float
    min_distance: tuple


@functools.lru_cache(maxsize=None)  # one entry per doubling: at most 5
def _circle_points(n: int) -> np.ndarray:
    """The points R e^{2 pi i j/n}, j < n, of the swept circle; read-only."""
    z = _DEGREE_RADIUS * np.exp(2j * math.pi * np.arange(n) / n)
    z.flags.writeable = False
    return z


def _refuse_sense_reversing(f: SampleMap, z: np.ndarray) -> None:
    """NotSensePreservingError unless J >= 0 at the points z and on the
    16 x 16 distortion lattice; J alone is computed, not K."""
    z = np.concatenate([z, _distortion_lattice(16)])
    bad = z[_moduli(*wirtinger(f, z))[2] < 0]
    if len(bad):
        raise NotSensePreservingError(
            f"{f.label} is not sense-preserving: J < 0 at {len(bad)} of {len(z)} "
            f"sampled points, first at z = {complex(bad[0])!r}")


def _winding_numbers(arg: np.ndarray):
    """Winding numbers of closed polygons about a point, one polygon per row
    of `arg`, the arguments of its vertices seen from the point, with each
    row's largest angle step; a step is taken in [-pi, pi]."""
    turn = 2.0 * math.pi
    steps = np.diff(arg, axis=1, append=arg[:, :1])
    steps -= turn * np.rint(steps / turn)
    return np.rint(steps.sum(axis=1) / turn), np.abs(steps).max(axis=1)


def multiplicity(f: SampleMap, targets) -> MultiplicityReport:
    """Upper bounds on the number of preimages of each target in |z| < R,
    R = 0.999, by the argument principle: deg(f, D_R, y) is the winding number
    of f(|z| = R) about y, and for a sense-preserving, discrete, open map it
    is at least N(f, y, D_R), with equality off the branch values.

    The circle is sampled at 4096 points, doubled until every angle step is
    below pi/2 and each winding number is unchanged under one more doubling,
    up to 2^16 samples; a target a sample lands on is never counted. A map
    with J < 0 at a sample is refused with NotSensePreservingError.
    Discreteness and openness are not checked, and the sampling condition is
    checked a posteriori: it is not a proof for an arbitrary f.
    """
    targets = tuple(complex(t) for t in targets)
    y = np.array(targets, dtype=complex)[:, None]
    n = _DEGREE_SAMPLES
    _refuse_sense_reversing(f, _circle_points(n))
    while True:
        d = f(_circle_points(2 * n)) - y
        arg = np.angle(d)
        turns, steps = _winding_numbers(arg[:, 0::2])
        distance = np.abs(d).min(axis=1)
        certified = (steps < 0.5 * math.pi) & (turns == _winding_numbers(arg)[0]) & (distance > 0)
        if certified.all() or 4 * n > _DEGREE_SAMPLE_CAP:
            break
        n *= 2
    counts = tuple(int(t) if ok else None for t, ok in zip(turns, certified))
    return MultiplicityReport(
        targets=targets,
        counts=counts,
        supremum=max((c for c in counts if c is not None), default=0),
        incomplete=not certified.all(),
        samples=n,
        max_step=float(steps.max(initial=0.0)),
        min_distance=tuple(float(v) for v in distance),
    )


# ---------------------------------------------------------------------------
# finite distortion


@dataclass(frozen=True)
class FiniteDistortionReport:
    n_points: int
    n_violations: int
    violations: tuple  # sample of violating points
    passed: bool


def finite_distortion_check(sweep: DistortionSweep) -> FiniteDistortionReport:
    """Check of the finite-distortion requirement on a sweep: |f_z| and |f_zbar|
    must be finite, and wherever the Jacobian vanishes (|J| <= 1e-10) the
    operator norm must vanish too (at most 1e-8)."""
    norm = sweep.abs_fz + sweep.abs_fzbar
    violations = sweep.z[~np.isfinite(norm) | ((np.abs(sweep.jacobian) <= 1e-10) & (norm > 1e-8))]
    return FiniteDistortionReport(
        n_points=len(sweep.z),
        n_violations=len(violations),
        violations=tuple(complex(v) for v in violations[:100]),
        passed=len(violations) == 0,
    )
