"""Finitely generated Fuchsian groups acting on the disk.

Word enumeration up to a length bound, quotient distance between orbits,
Dirichlet fundamental polygons, projection to a fundamental set, and the
injectivity radius that certifies normal neighborhoods (where the quotient
metric coincides with the disk metric).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._io import write_json
from .diskgeom import (
    IDENTITY,
    DiskPoint,
    MobiusAutomorphism,
    as_complex,
    euclid_radius,
    hyp_distance,
    mobius_apply,
    mobius_compose,
    mobius_invert,
    mobius_to_zero,
)

__all__ = [
    "EllipticElementError",
    "GrowthOverflowError",
    "NotReducedError",
    "FuchsianGroup",
    "DirichletDomain",
    "SurfacePoint",
    "NormalNeighborhood",
    "enumerate_elements",
    "quotient_distance",
    "build_dirichlet_domain",
    "dirichlet_membership",
    "project_to_fundamental",
    "injectivity_radius",
    "load_group",
    "save_group",
    "cyclic_group",
    "genus2_group",
]

_DEDUP_TOL = 1e-9
# non-elliptic trace condition: |Re a| >= 1 + margin for non-identity elements
_TRACE_MARGIN = 1e-12


class EllipticElementError(ValueError):
    """An enumerated element has a fixed point inside the disk."""


class GrowthOverflowError(RuntimeError):
    """Word enumeration exceeded the configured element cap."""


class NotReducedError(RuntimeError):
    """No enumerated element brings the point into the fundamental domain."""


@dataclass(frozen=True)
class FuchsianGroup:
    """Generators plus the word-length bound used for all truncated queries."""

    generators: tuple
    max_word_length: int = 4
    element_cap: int = 1_000_000

    def __post_init__(self):
        gens = tuple(self.generators)
        if any(not isinstance(g, MobiusAutomorphism) for g in gens):
            raise TypeError("generators must be MobiusAutomorphism instances")
        if self.max_word_length < 1:
            raise ValueError("max_word_length must be >= 1")
        object.__setattr__(self, "generators", gens)


def _is_identity(g: MobiusAutomorphism) -> bool:
    return g.coefficient_distance(IDENTITY) < _DEDUP_TOL


def _canonical_key(g: MobiusAutomorphism):
    """Sign-canonical rounded coefficients for hash-bucket deduplication."""
    a, c = g.a, g.c
    if a.real < 0 or (a.real == 0 and (a.imag < 0 or (a.imag == 0 and c.real < 0))):
        a, c = -a, -c
    q = 1e6  # bucket width 1e-6 >> dedup tolerance, << element separation
    return (round(a.real * q), round(a.imag * q), round(c.real * q), round(c.imag * q))


class _ElementSet:
    """Numerically deduplicated set of automorphisms (sign-insensitive)."""

    def __init__(self):
        self._buckets: dict = {}
        self.items: list = []

    def add(self, g: MobiusAutomorphism) -> bool:
        key = _canonical_key(g)
        for dk in self._neighbor_keys(key):
            for h in self._buckets.get(dk, ()):
                if g.coefficient_distance(h) < _DEDUP_TOL:
                    return False
        self._buckets.setdefault(key, []).append(g)
        self.items.append(g)
        return True

    @staticmethod
    def _neighbor_keys(key):
        k0, k1, k2, k3 = key
        for d0 in (-1, 0, 1):
            for d1 in (-1, 0, 1):
                for d2 in (-1, 0, 1):
                    for d3 in (-1, 0, 1):
                        yield (k0 + d0, k1 + d1, k2 + d2, k3 + d3)


def enumerate_elements(group: FuchsianGroup) -> list:
    """All distinct non-identity elements representable by reduced words up to
    the group's word-length bound; ordered by word length, then generator index
    sequence, so the result is independent of evaluation schedule.

    Raises EllipticElementError if a non-identity element has |trace| < 2
    (fixed point in the disk, or a parabolic too close to the margin), and
    GrowthOverflowError past the element cap.
    """
    gens = list(group.generators)
    if not gens:
        return []
    alphabet = []
    for i, g in enumerate(gens):
        alphabet.append((2 * i, g))
        alphabet.append((2 * i + 1, mobius_invert(g)))

    seen = _ElementSet()
    seen.add(IDENTITY)
    elements: list = []
    frontier = [(None, IDENTITY)]  # (last letter index, element)
    for _ in range(group.max_word_length):
        next_frontier = []
        for last, w in frontier:
            for idx, letter in alphabet:
                if last is not None and (idx ^ 1) == last:
                    continue  # free reduction: skip immediate inverse
                elem = mobius_compose(w, letter)
                if _is_identity(elem):
                    continue  # relator word; fold back to the identity
                if not seen.add(elem):
                    continue
                if abs(elem.trace_real) < 1.0 + _TRACE_MARGIN:
                    raise EllipticElementError(
                        f"element with |Re a| = {abs(elem.trace_real):.6f} < 1 "
                        "has a fixed point in the disk"
                    )
                elements.append(elem)
                next_frontier.append((idx, elem))
                if len(elements) > group.element_cap:
                    raise GrowthOverflowError(
                        f"enumeration exceeded cap of {group.element_cap} elements"
                    )
        frontier = next_frontier
    return elements


def _coefficients(elements) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient arrays (a, c) of a sequence of automorphisms."""
    a = np.array([g.a for g in elements], dtype=complex)
    c = np.array([g.c for g in elements], dtype=complex)
    return a, c


def _orbit(coefficients, z) -> np.ndarray:
    """g(z) = (a z + c)/(conj(c) z + conj(a)) for every g of `_coefficients`, as one array."""
    a, c = coefficients
    return (a * z + c) / (np.conjugate(c) * z + np.conjugate(a))


def quotient_distance(z1, z2, group: FuchsianGroup, elements=None) -> float:
    """Distance between the orbits of z1 and z2 under the (truncated) group.

    By invariance of the disk metric the double infimum over (g1, g2)
    collapses to a single minimum over g = g1^{-1} g2, so this returns
    min over enumerated g (including the identity) of h(z1, g z2).
    The value is an upper bound on the true orbit distance, non-increasing
    in the word-length bound.
    """
    if elements is None:
        elements = enumerate_elements(group)
    images = _orbit(_coefficients([IDENTITY, *elements]), as_complex(z2))
    return float(np.min(hyp_distance(as_complex(z1), images)))


@dataclass(frozen=True)
class DirichletDomain:
    """Intersection of half-planes {z : h(z, center) < h(z, g(center))}.

    `images` holds g(center) for each constraint g, as one read-only array.
    """

    center: DiskPoint
    constraints: tuple  # automorphisms g defining the half-planes
    images: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        zc = self.center.z
        images = _orbit(_coefficients(self.constraints), zc)
        if np.any(hyp_distance(zc, images) <= _DEDUP_TOL):
            raise ValueError("a constraint fixes the center; domain undefined")
        images.flags.writeable = False
        object.__setattr__(self, "images", images)


def build_dirichlet_domain(group: FuchsianGroup, center=0j, elements=None) -> DirichletDomain:
    """Dirichlet polygon about `center`, one constraint per enumerated element.

    A repeated orbit image repeats a half-plane, which leaves membership as it is.
    """
    if elements is None:
        elements = enumerate_elements(group)
    c = as_complex(center)
    return DirichletDomain(DiskPoint(c.real, c.imag), tuple(elements))


def dirichlet_membership(z, dom: DirichletDomain, tol: float = 1e-9) -> str:
    """Classify z as 'inside', 'boundary' or 'outside' the Dirichlet polygon."""
    zc = as_complex(z)
    d_center = hyp_distance(zc, dom.center.z)
    d_images = hyp_distance(zc, dom.images)
    if np.any(d_center >= d_images + tol):
        return "outside"
    if np.any(d_center > d_images - tol):
        return "boundary"
    return "inside"


def project_to_fundamental(z, group: FuchsianGroup, dom: DirichletDomain, elements=None):
    """Greedy reduction of z into the Dirichlet domain.

    Each step applies the enumerated element that most decreases the distance
    to the domain center; returns (representative, word) with word(z) equal to
    the representative. Raises NotReducedError when the word-length bound is
    too small to finish the reduction.
    """
    if elements is None:
        elements = enumerate_elements(group)
    coefficients = _coefficients(elements)
    current = as_complex(z)
    word = IDENTITY
    center = dom.center.z
    for step in range(len(elements) + 1):
        if dirichlet_membership(current, dom) != "outside":
            return DiskPoint(current.real, current.imag), word
        if step == len(elements):
            break  # step budget = enumerated-set size exhausted
        d = hyp_distance(_orbit(coefficients, current), center)
        best = int(np.argmin(d))  # the first minimum, as a strict `<` scan picks
        if not d[best] < hyp_distance(current, center) - _DEDUP_TOL:
            raise NotReducedError(
                "no enumerated element decreases the distance to the center; "
                "increase max_word_length"
            )
        best_g = elements[best]
        current = mobius_apply(best_g, current)
        word = mobius_compose(best_g, word)
    raise NotReducedError(
        "greedy reduction exceeded the enumerated-set step budget; "
        "increase max_word_length"
    )


def injectivity_radius(z0, group: FuchsianGroup, elements=None) -> float:
    """Half the minimal displacement min over g != I of h(z0, g z0)/2.

    Returns +inf for the trivial group. Balls of any smaller radius are
    normal: the quotient distance agrees with the disk distance on them.
    """
    if elements is None:
        elements = enumerate_elements(group)
    if not elements:
        return math.inf
    z = as_complex(z0)
    return 0.5 * float(np.min(hyp_distance(z, _orbit(_coefficients(elements), z))))


@dataclass(frozen=True)
class SurfacePoint:
    """Canonical representative of an orbit, inside the Dirichlet domain closure."""

    representative: DiskPoint
    group: FuchsianGroup

    @classmethod
    def project(cls, z, group: FuchsianGroup, dom: DirichletDomain, elements=None) -> "SurfacePoint":
        rep, _ = project_to_fundamental(z, group, dom, elements)
        return cls(rep, group)


@dataclass(frozen=True)
class NormalNeighborhood:
    """Ball on the surface where the quotient metric equals the disk metric.

    The radius must stay strictly below the injectivity radius at the center;
    that bound is a proxy, not a proof, so `validate_by_sampling` offers an
    empirical check.
    """

    center: SurfacePoint
    radius: float
    _injectivity: float = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        rho = self._injectivity
        if rho is None:
            rho = injectivity_radius(self.center.representative, self.center.group)
        if self.radius >= rho:
            raise ValueError(
                f"radius {self.radius} not below injectivity radius {rho:.6g}"
            )
        object.__setattr__(self, "_injectivity", rho)

    def validate_by_sampling(self, n: int = 64, seed: int = 0, tol: float = 1e-10) -> bool:
        """Check d = h on sampled pairs inside the ball (local isometry)."""
        rng = np.random.default_rng(seed)
        group = self.center.group
        elements = enumerate_elements(group)
        to_center = mobius_invert(mobius_to_zero(self.center.representative))
        R = euclid_radius(self.radius)
        for _ in range(n):
            u, v = rng.uniform(size=2) ** 0.5 * R, rng.uniform(size=2) * 2 * math.pi
            p = mobius_apply(to_center, u[0] * complex(math.cos(v[0]), math.sin(v[0])))
            q = mobius_apply(to_center, u[1] * complex(math.cos(v[1]), math.sin(v[1])))
            if abs(quotient_distance(p, q, group, elements) - hyp_distance(p, q)) > tol:
                return False
        return True


def load_group(path) -> FuchsianGroup:
    """Read a group definition from JSON.

    Schema: {"generators": [{"a_re", "a_im", "c_re", "c_im"}, ...],
             "max_word_length": int, "element_cap": int}.
    """
    data = json.loads(Path(path).read_text())
    gens = tuple(
        MobiusAutomorphism(complex(g["a_re"], g["a_im"]), complex(g["c_re"], g["c_im"]))
        for g in data["generators"]
    )
    return FuchsianGroup(
        generators=gens,
        max_word_length=int(data.get("max_word_length", 4)),
        element_cap=int(data.get("element_cap", 1_000_000)),
    )


def save_group(group: FuchsianGroup, path) -> None:
    data = {
        "generators": [
            {"a_re": g.a.real, "a_im": g.a.imag, "c_re": g.c.real, "c_im": g.c.imag}
            for g in group.generators
        ],
        "max_word_length": group.max_word_length,
        "element_cap": group.element_cap,
    }
    write_json(data, path)


def cyclic_group(translation_length: float = 2.0, max_word_length: int = 8) -> FuchsianGroup:
    """Cyclic group generated by a hyperbolic translation along the real axis."""
    half = 0.5 * translation_length
    gen = MobiusAutomorphism(math.cosh(half), math.sinh(half))
    return FuchsianGroup((gen,), max_word_length=max_word_length)


def genus2_group(max_word_length: int = 2) -> FuchsianGroup:
    """Surface group of genus 2 from the regular hyperbolic octagon.

    The four generators pair opposite sides; each is a translation of length
    2*arccosh(1 + sqrt 2) whose axis passes through 0 at angle k*pi/4.
    """
    a0 = 1.0 + math.sqrt(2.0)
    c0 = math.sqrt(a0 * a0 - 1.0)
    gens = tuple(
        MobiusAutomorphism(a0, c0 * complex(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)))
        for k in range(4)
    )
    return FuchsianGroup(gens, max_word_length=max_word_length)
