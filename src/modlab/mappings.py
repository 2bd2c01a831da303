"""Closed-form sample mappings of the disk and their distortion data.

Kinds: mobius (conformal), radial_stretch z|z|^{k-1}, winding r e^{i k theta},
compositions, and custom evaluators. Wirtinger derivatives come from analytic
formulas where the kind provides them and from central differences otherwise;
dilatation, Jacobian, multiplicity counts and the finite-distortion check are
derived from them. Pushforward carries curve families (with traversal
multiplicities for branched maps) into an image domain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._io import write_csv
from .diskgeom import BOUNDARY_MARGIN, MobiusAutomorphism, Polyline, as_complex
from .modulus import CurveFamily, DiscretizedDomain, PolylineFamily, rasterize_family

__all__ = [
    "SampleMap",
    "DistortionField",
    "MultiplicityReport",
    "ChartOverflowError",
    "K_INF",
    "identity_map",
    "mobius_map",
    "radial_stretch",
    "winding",
    "compose_maps",
    "custom_map",
    "fold_map",
    "boundary_spiral_map",
    "parse_map",
    "map_from_config",
    "wirtinger",
    "wirtinger_fd",
    "dilatation",
    "distortion_at",
    "distortion_to_csv",
    "multiplicity",
    "finite_distortion_check",
    "pushforward_polylines",
    "pushforward_family",
]


class ChartOverflowError(RuntimeError):
    """An image point left the chart (reached the disk boundary)."""


class _InfiniteDilatation:
    """Distinguished sentinel for K = infinity; not a floating-point inf so
    reports can count singular cells explicitly."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "K_INF"

    def __float__(self):
        return math.inf


K_INF = _InfiniteDilatation()


@dataclass(frozen=True)
class SampleMap:
    """A disk-to-disk mapping with optional analytic Wirtinger evaluators."""

    kind: str
    k: float = None
    g: MobiusAutomorphism = None
    parts: tuple = None  # inner-to-outer for compositions
    evaluator: object = None  # custom kinds
    label: str = ""

    def __call__(self, z):
        return self.apply(z)

    def apply(self, z):
        scalar = not isinstance(z, np.ndarray)
        w = self._apply(np.asarray([as_complex(z)] if scalar else z, dtype=complex))
        return complex(w[0]) if scalar else w

    def _apply(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "mobius":
            return (self.g.a * z + self.g.c) / (np.conjugate(self.g.c) * z + np.conjugate(self.g.a))
        if self.kind == "radial_stretch":
            return z * np.abs(z) ** (self.k - 1.0)
        if self.kind == "winding":
            r = np.abs(z)
            return np.where(r > 0, z**self.k / np.where(r > 0, r, 1.0) ** (self.k - 1.0), 0.0)
        if self.kind == "composition":
            for part in self.parts:
                z = part._apply(z)
            return z
        return np.asarray(self.evaluator(z), dtype=complex)

    @property
    def has_analytic_wirtinger(self) -> bool:
        if self.kind == "composition":
            return all(p.has_analytic_wirtinger for p in self.parts)
        return self.kind in ("mobius", "radial_stretch", "winding")

    def wirtinger_analytic(self, z: np.ndarray):
        """(f_z, f_zbar) arrays; branch points take the limit along arg z = 0."""
        if self.kind == "mobius":
            fz = 1.0 / (np.conjugate(self.g.c) * z + np.conjugate(self.g.a)) ** 2
            return fz, np.zeros_like(fz)
        if self.kind == "radial_stretch":
            k = self.k
            r = np.abs(z)
            u = np.where(r > 0, z / np.where(r > 0, r, 1.0), 1.0)  # unit direction
            rk = r ** (k - 1.0)
            fz = (0.5 * (k + 1.0) * rk).astype(complex)
            fzb = 0.5 * (k - 1.0) * rk * u**2
            return fz, fzb
        if self.kind == "winding":
            k = self.k
            r = np.abs(z)
            u = np.where(r > 0, z / np.where(r > 0, r, 1.0), 1.0)
            fz = 0.5 * (k + 1.0) * u ** (k - 1.0)
            fzb = -0.5 * (k - 1.0) * u ** (k + 1.0)
            return fz, fzb
        if self.kind == "composition":
            fz = np.ones_like(z)
            fzb = np.zeros_like(z)
            w = z
            for part in self.parts:
                gz, gzb = part.wirtinger_analytic(w)
                fz, fzb = gz * fz + gzb * np.conjugate(fzb), gz * fzb + gzb * np.conjugate(fz)
                w = part._apply(w)
            return fz, fzb
        raise ValueError(f"kind {self.kind!r} has no analytic Wirtinger data")

    @property
    def degree(self) -> int:
        """Local topological degree at the branch point 0 (= N on circles about 0)."""
        if self.kind == "winding":
            return int(self.k)
        if self.kind == "composition":
            d = 1
            for p in self.parts:
                d *= p.degree
            return d
        return 1

    @property
    def fixes_origin_radially(self) -> bool:
        """True when |f(z)| depends only on |z| and f(0) = 0."""
        if self.kind in ("winding", "radial_stretch"):
            return True
        if self.kind == "mobius":
            return abs(self.g.c) < 1e-15  # rotation about 0
        if self.kind == "composition":
            return all(p.fixes_origin_radially for p in self.parts)
        return False


def identity_map() -> SampleMap:
    return SampleMap(kind="mobius", g=MobiusAutomorphism(1.0, 0.0), label="identity")


def mobius_map(g: MobiusAutomorphism) -> SampleMap:
    return SampleMap(kind="mobius", g=g, label="mobius")


def radial_stretch(k: float) -> SampleMap:
    if k < 1.0:
        raise ValueError("radial stretch exponent must be >= 1")
    return SampleMap(kind="radial_stretch", k=float(k), label=f"radial_stretch:{k:g}")


def winding(k: int) -> SampleMap:
    if int(k) != k or k < 1:
        raise ValueError("winding order must be a positive integer")
    return SampleMap(kind="winding", k=int(k), label=f"winding:{int(k)}")


def compose_maps(*maps: SampleMap) -> SampleMap:
    """Composition applied inner-to-outer: compose_maps(f, g) is g after f."""
    return SampleMap(kind="composition", parts=tuple(maps),
                     label="(" + "∘".join(m.label for m in reversed(maps)) + ")")


def custom_map(evaluator, label="custom") -> SampleMap:
    return SampleMap(kind="custom", evaluator=evaluator, label=label)


def fold_map() -> SampleMap:
    """x + iy -> |x| + iy; orientation-reversing on x < 0, singular on x = 0."""
    return custom_map(lambda z: np.abs(np.real(z)) + 1j * np.imag(z), label="fold")


def boundary_spiral_map() -> SampleMap:
    """z -> z e^{i log(1 + log(1/(1-|z|)))}: rotates ever faster toward the rim,
    so radial limits at the boundary do not exist."""

    def ev(z):
        r = np.abs(z)
        phase = np.log1p(np.log(1.0 / np.maximum(1.0 - r, 1e-15)))
        return z * np.exp(1j * phase)

    return custom_map(ev, label="spiral")


def parse_map(spec: str) -> SampleMap:
    """CLI map spec: a JSON map config (see map_from_config) or the shorthand
    kind[:k], e.g. identity | winding:<k> | radial_stretch:<k> | spiral | fold."""
    spec = spec.strip()
    if spec.startswith("{"):
        return map_from_config(json.loads(spec))
    kind, _, arg = spec.partition(":")
    cfg = {"kind": "radial_stretch" if kind == "radial-stretch" else kind}
    if arg:
        cfg["k"] = arg
    return map_from_config(cfg)


def map_from_config(cfg: dict) -> SampleMap:
    """Map definition from config JSON, e.g. {"kind": "winding", "k": 3}."""
    try:
        kind = cfg["kind"]
        if kind == "identity":
            return identity_map()
        if kind == "winding":
            return winding(int(cfg["k"]))
        if kind == "radial_stretch":
            return radial_stretch(float(cfg["k"]))
        if kind == "mobius":
            g = MobiusAutomorphism(
                complex(cfg["a_re"], cfg.get("a_im", 0.0)),
                complex(cfg["c_re"], cfg.get("c_im", 0.0)),
            )
            return mobius_map(g)
        if kind == "composition":
            return compose_maps(*(map_from_config(part) for part in cfg["parts"]))
        if kind == "spiral":
            return boundary_spiral_map()
        if kind == "fold":
            return fold_map()
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed map spec {cfg!r}: {exc!r}") from exc
    raise ValueError(f"unknown map kind {kind!r}")


# ---------------------------------------------------------------------------
# derivatives and distortion


def _cabs(w: np.ndarray) -> np.ndarray:
    """|w| via libm hypot, as Python's abs computes it; numpy's vectorized
    complex abs can differ from it in the last bit."""
    return np.hypot(w.real, w.imag)


def _fd_stencil(f: SampleMap, z: np.ndarray, h):
    """Central differences at points z with steps h (an array or one step):
    f_z = (f_x - i f_y)/2, f_zbar = (f_x + i f_y)/2."""
    two_h = 2.0 * h
    dx = f._apply(z + h) - f._apply(z - h)
    dy = f._apply(z + 1j * h) - f._apply(z - 1j * h)
    # divide componentwise: numpy's complex-by-real division multiplies by a
    # reciprocal, which rounds differently from the true quotient
    fx = dx.real / two_h + 1j * (dx.imag / two_h)
    fy = dy.real / two_h + 1j * (dy.imag / two_h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def _pointwise(derivatives, z):
    """Apply an array function returning (f_z, f_zbar) to a point or an array."""
    if isinstance(z, np.ndarray):
        return derivatives(z.astype(complex))
    fz, fzb = derivatives(np.array([as_complex(z)]))
    return complex(fz[0]), complex(fzb[0])


def wirtinger_fd(f: SampleMap, z, step: float = None):
    """Central-difference Wirtinger derivatives at a point or an array of
    points; the default step shrinks with the distance to the rim."""

    def fd(zs):
        r = _cabs(zs)
        h = np.maximum(1e-5 * (1.0 - r), 1e-9) if step is None else step
        if np.any(r + h >= 1.0 - BOUNDARY_MARGIN):
            raise ValueError("stencil leaves the disk; shrink the step")
        return _fd_stencil(f, zs, h)

    return _pointwise(fd, z)


def wirtinger(f: SampleMap, z, step: float = None):
    """(f_z, f_zbar) at a point or an array of points: analytic when the kind
    provides it, else central differences with the given step. wirtinger_fd
    stays available for cross-checking the analytic path."""
    if f.has_analytic_wirtinger:
        return _pointwise(f.wirtinger_analytic, z)
    return wirtinger_fd(f, z, step)


def _derivative_data(f_z: np.ndarray, f_zbar: np.ndarray):
    """|f_z|, |f_zbar|, the Jacobian and K = (|f_z|+|f_zbar|)/(|f_z|-|f_zbar|)
    as arrays; K is 1 where the norm vanishes and inf where J vanishes relative
    to the norm squared. _cabs and float_power (libm pow) round as Python's
    abs and ** do, so these agree bit for bit with DistortionField.norm and
    .jacobian."""
    a, b = _cabs(f_z), _cabs(f_zbar)
    n = a + b
    jac = np.float_power(a, 2) - np.float_power(b, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(np.abs(jac) < 1e-15 * n * n, np.inf, n / (a - b))
    return a, b, jac, np.where(n < 1e-15, 1.0, k)


@dataclass(frozen=True)
class DistortionField:
    """Pointwise derivative data: operator norm, Jacobian and dilatation."""

    f_z: complex
    f_zbar: complex

    @property
    def norm(self) -> float:
        return abs(self.f_z) + abs(self.f_zbar)

    @property
    def jacobian(self) -> float:
        return abs(self.f_z) ** 2 - abs(self.f_zbar) ** 2

    @property
    def K(self):
        k = float(_derivative_data(np.array([self.f_z]), np.array([self.f_zbar]))[3][0])
        return K_INF if k == math.inf else k


def distortion_at(f: SampleMap, z, step: float = None) -> DistortionField:
    fz, fzb = wirtinger(f, z, step)
    return DistortionField(fz, fzb)


def dilatation(f: SampleMap, z, step: float = None):
    """K_f(z): (|f_z|+|f_zbar|)/(|f_z|-|f_zbar|) when J != 0, 1 when the norm
    vanishes, and the K_INF sentinel otherwise. For an array of points,
    returns an array with inf where J = 0."""
    if isinstance(z, np.ndarray):
        return _derivative_data(*wirtinger(f, z, step))[3]
    return distortion_at(f, z, step).K


def _distortion_grid(f: SampleMap, grid: int, extent: float):
    """Points of the grid x grid lattice on [-extent, extent]^2 with
    |z| <= extent, ordered by x then y, and (f_z, f_zbar) there."""
    xs = np.linspace(-extent, extent, grid)
    z = (xs[:, None] + 1j * xs[None, :]).ravel()
    z = z[_cabs(z) <= extent]
    return (z, *wirtinger(f, z))


def distortion_to_csv(f: SampleMap, grid: int, path, extent: float = 0.9) -> None:
    """CSV sweep of (z, |f_z|, |f_zbar|, K, J) over a grid in the disk."""
    z, fz, fzb = _distortion_grid(f, grid, extent)
    a, b, jac, k = _derivative_data(fz, fzb)
    write_csv(path, ("re", "im", "abs_fz", "abs_fzbar", "K", "J"), zip(z.real, z.imag, a, b, k, jac))


# ---------------------------------------------------------------------------
# multiplicity


@dataclass(frozen=True)
class MultiplicityReport:
    targets: tuple
    counts: tuple
    supremum: int
    incomplete: bool
    flagged_targets: tuple = ()


def _newton_preimages(f: SampleMap, target: complex, seeds: np.ndarray,
                      newton_tol: float, max_steps: int = 60) -> list:
    z = seeds.copy()
    alive = np.ones(len(z), dtype=bool)
    for _ in range(max_steps):
        if not alive.any():
            break
        za = z[alive]
        F = f._apply(za) - target
        if f.has_analytic_wirtinger:
            fz, fzb = f.wirtinger_analytic(za)
        else:
            fz, fzb = _fd_stencil(f, za, 1e-6)
        J = np.abs(fz) ** 2 - np.abs(fzb) ** 2
        ok = np.abs(J) > 1e-14
        delta = np.zeros_like(za)
        delta[ok] = (np.conjugate(F[ok]) * fzb[ok] - F[ok] * np.conjugate(fz[ok])) / J[ok]
        # damp oversized steps to keep iterates in the disk
        step_norm = np.abs(delta)
        delta[step_norm > 0.2] *= 0.2 / step_norm[step_norm > 0.2]
        za = za + delta
        dead = (~ok) | (np.abs(za) > 1.0 - 1e-6)
        z_alive = z[alive]
        z_alive[~dead] = za[~dead]
        z[alive] = z_alive
        sub = alive[alive].copy()
        sub[dead] = False
        alive[alive.copy()] = sub
    residual = np.abs(f._apply(z) - target)
    good = (residual < newton_tol) & (np.abs(z) < 1.0 - 1e-6)
    roots: list = []
    for w in z[good]:
        if not any(abs(w - r) < 1e-6 for r in roots):
            roots.append(complex(w))
    return roots


def _seed_grid(n: int) -> np.ndarray:
    radii = np.sqrt(np.linspace(0.02**2, 0.95**2, n))
    angles = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    return (radii[:, None] * np.exp(1j * angles[None, :])).ravel()


def multiplicity(f: SampleMap, targets, seed_grid: int = 40,
                 newton_tol: float = 1e-10) -> MultiplicityReport:
    """Count distinct preimages of each target by Newton refinement from a seed
    grid (deduplicated at 1e-6), reporting the supremum over targets.

    Runs a second, 1.5x denser seed grid; targets whose counts disagree are
    flagged and the report is marked incomplete.
    """
    targets = tuple(as_complex(t) for t in targets)
    seeds_a = _seed_grid(seed_grid)
    seeds_b = _seed_grid(int(seed_grid * 1.5))
    counts, flagged = [], []
    for t in targets:
        na = len(_newton_preimages(f, t, seeds_a, newton_tol))
        nb = len(_newton_preimages(f, t, seeds_b, newton_tol))
        counts.append(max(na, nb))
        if na != nb:
            flagged.append(t)
    return MultiplicityReport(
        targets=targets,
        counts=tuple(counts),
        supremum=max(counts) if counts else 0,
        incomplete=bool(flagged),
        flagged_targets=tuple(flagged),
    )


# ---------------------------------------------------------------------------
# finite distortion and pushforward


@dataclass(frozen=True)
class FiniteDistortionReport:
    n_points: int
    n_violations: int
    violations: tuple  # sample of violating points
    passed: bool


def finite_distortion_check(f: SampleMap, grid: int = 32,
                            jac_tol: float = 1e-10, norm_tol: float = 1e-8) -> FiniteDistortionReport:
    """Grid check of the finite-distortion requirement: wherever the Jacobian
    vanishes the operator norm must vanish too."""
    if grid < 16:
        raise ValueError("need grid >= 16")
    z, fz, fzb = _distortion_grid(f, grid, 0.9)
    a, b, jac, _ = _derivative_data(fz, fzb)
    violations = z[(np.abs(jac) <= jac_tol) & (a + b > norm_tol)]
    return FiniteDistortionReport(
        n_points=len(z),
        n_violations=len(violations),
        violations=tuple(complex(v) for v in violations[:100]),
        passed=len(violations) == 0,
    )


def pushforward_polylines(f: SampleMap, family: PolylineFamily) -> PolylineFamily:
    """Geometric image of a polyline family under f.

    Injective kinds map vertices pointwise. Branched kinds (degree k > 1) are
    supported on circle families about 0: the image circle is the same point
    set traversed k times, encoded as a single traversal with multiplicity k.
    """
    deg = f.degree
    if deg == 1:
        out = []
        for poly in family.polylines:
            pts = f._apply(poly.vertices)
            if np.any(np.abs(pts) >= 1.0 - BOUNDARY_MARGIN):
                raise ChartOverflowError(f"image of a curve under {f.label} leaves the chart")
            out.append(Polyline(pts, closed=poly.closed))
        radii = None
        if family.circle_radii is not None and f.fixes_origin_radially:
            radii = tuple(
                2.0 * math.atanh(abs(f.apply(complex(math.tanh(0.5 * r), 0.0))))
                for r in family.circle_radii
            )
        return PolylineFamily(tuple(out), kind=family.kind,
                              multiplicities=family.multiplicities, circle_radii=radii)

    if family.kind != "circle_family" or not f.fixes_origin_radially:
        raise ValueError(
            "pushforward under a branched map is only defined for circle families about 0"
        )
    out = []
    radii = []
    for poly, r in zip(family.polylines, family.circle_radii):
        R = math.tanh(0.5 * r)
        R_img = abs(f.apply(complex(R, 0.0)))
        if R_img >= 1.0 - BOUNDARY_MARGIN:
            raise ChartOverflowError(f"image circle under {f.label} leaves the chart")
        scale = R_img / R
        pts = poly.vertices * scale  # same angular samples, image radius
        out.append(Polyline(pts, closed=True))
        radii.append(2.0 * math.atanh(R_img))
    mult = tuple(m * deg for m in family.multiplicities)
    return PolylineFamily(tuple(out), kind="circle_family",
                          multiplicities=mult, circle_radii=tuple(radii))


def pushforward_family(f: SampleMap, family: PolylineFamily,
                       dom_image: DiscretizedDomain) -> CurveFamily:
    """Image family rasterized into the image domain (see pushforward_polylines)."""
    return rasterize_family(pushforward_polylines(f, family), dom_image)
