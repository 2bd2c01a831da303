"""Finitely generated Fuchsian groups acting on the disk.

Word enumeration up to a length bound, Dirichlet fundamental polygons and
their boundary along rays from the center, projection to a fundamental set,
and the injectivity radius: balls of a smaller radius embed in the quotient
surface.

An enumerated element set is one `MobiusAutomorphism` with two read-only
coefficient arrays (a, c). `enumerate_elements` builds it one word length at
a time with `mobius_compose` on sets, and every orbit query evaluates all its
elements at once with `mobius_apply`. Points are complex numbers.

A Dirichlet domain stores its center and kept images as one array, so a
membership query is one distance row and one min over the images; projection
takes its label and its distance to the center from that same row.

A Dirichlet domain keeps only the half-planes whose bisector comes within
`_PRUNE_MARGIN` (Euclidean, in the Klein model about the center) of the
polygon. That loses no label at the membership tolerance `_MEMBERSHIP_TOL`
= 1e-9: a point whose kept distance differences are all below 1e-9 lies
within about 1e-9 of the polygon, and a dropped bisector is more than the
margin away, so its half-plane holds the point with a distance difference far
below -1e-9; it can decide neither 'outside' nor 'boundary'.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._io import json_number, json_object
from .diskgeom import (
    IDENTITY,
    MobiusAutomorphism,
    PrecisionLossError,
    _stored,
    hyp_distance,
    inside_disk,
    mobius_apply,
    mobius_compose,
    mobius_invert,
    mobius_to_zero,
)

__all__ = [
    "EllipticElementError",
    "GrowthOverflowError",
    "NotReducedError",
    "PrecisionLossError",
    "FuchsianGroup",
    "DirichletDomain",
    "enumerate_elements",
    "build_dirichlet_domain",
    "dirichlet_membership",
    "dirichlet_boundary",
    "project_to_fundamental",
    "injectivity_radius",
    "load_group",
    "cyclic_group",
    "genus2_group",
]

_DEDUP_TOL = 1e-9
_MEMBERSHIP_TOL = 1e-9  # distance difference within which a point is on the boundary
# non-elliptic trace condition: |Re a| >= 1 + margin for non-identity elements
_TRACE_MARGIN = 1e-12
# weights of the linear sort key on (Re a, Im a, Re c, Im c); generic, so
# distinct elements rarely share a key window
_KEY_WEIGHTS = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)])
# elements within _DEDUP_TOL have keys within sum|w| * _DEDUP_TOL; doubled to
# absorb the rounding of the keys
_KEY_WINDOW = 2.0 * _DEDUP_TOL * float(np.sum(_KEY_WEIGHTS))
# a Dirichlet constraint is kept when its bisector comes this close (Klein
# model, about the center) to the polygon
_PRUNE_MARGIN = 1e-3


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
        if self.element_cap < 1:
            raise ValueError("element_cap must be >= 1")
        object.__setattr__(self, "generators", gens)


def _first_occurrences(x: MobiusAutomorphism, n_kept: int) -> np.ndarray:
    """Mask of the elements of the set x from n_kept on that no earlier kept
    element lies within 1e-9 of; the first n_kept elements are kept already.

    This is what adding the elements to a set one at a time keeps. Close
    pairs are searched in windows of the sorted keys and confirmed by the
    coefficient distance.
    """
    w = _KEY_WEIGHTS
    keys = np.abs(w[0] * x.a.real + w[1] * x.a.imag + w[2] * x.c.real + w[3] * x.c.imag)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    lo = np.searchsorted(sorted_keys, sorted_keys - _KEY_WINDOW, side="left")
    n = np.searchsorted(sorted_keys, sorted_keys + _KEY_WINDOW, side="right") - lo
    i = np.repeat(order, n)
    j = order[np.arange(len(i)) - np.repeat(np.cumsum(n) - n - lo, n)]
    pair = (j < i) & (i >= n_kept)
    i, j = i[pair], j[pair]
    close = x[i].coefficient_distance(x[j]) < _DEDUP_TOL
    by_i = np.argsort(i[close], kind="stable")
    i, j = i[close][by_i], j[close][by_i]
    keep = np.ones(len(x), dtype=bool)
    # heads ascend, so each partner (an earlier element) is settled before its head
    heads, starts = np.unique(i, return_index=True)
    for k, partners in zip(heads, np.split(j, starts[1:])):
        keep[k] = not keep[partners].any()
    return keep[n_kept:]


def _as_set(gs) -> MobiusAutomorphism:
    """A sequence of single automorphisms as one set."""
    return MobiusAutomorphism(np.array([g.a for g in gs], dtype=complex),
                              np.array([g.c for g in gs], dtype=complex))


def _joined(g: MobiusAutomorphism, h: MobiusAutomorphism) -> MobiusAutomorphism:
    """The elements of g, then those of h, as one set."""
    return _stored(np.concatenate((g.a, h.a)), np.concatenate((g.c, h.c)))


def enumerate_elements(group: FuchsianGroup) -> MobiusAutomorphism:
    """All distinct non-identity elements representable by reduced words up to
    the group's word-length bound, as one set, ordered by word length, then
    generator index sequence, so the result is independent of evaluation schedule.

    Each word length is one `mobius_compose` of sets: every word of the
    previous length times every letter but its inverse, identities and
    duplicates (within 1e-9 in coefficients, up to sign; the first occurrence
    wins) dropped.

    Raises EllipticElementError if a non-identity element has |trace| < 2
    (fixed point in the disk, or a parabolic too close to the margin),
    GrowthOverflowError past the element cap, and PrecisionLossError for a
    word past float resolution.
    """
    alphabet = _as_set([h for g in group.generators for h in (g, mobius_invert(g))])
    found = alphabet[:0]
    frontier, last = _as_set([IDENTITY]), np.array([-1])  # words of the current length, last letters
    for _ in range(group.max_word_length):
        # free reduction: letter 2i+1 inverts letter 2i, so skip l == last ^ 1
        rows, cols = np.nonzero(np.arange(len(alphabet)) != (last ^ 1)[:, None])
        x = mobius_compose(frontier[rows], alphabet[cols])
        not_identity = x.coefficient_distance(IDENTITY) >= _DEDUP_TOL  # relator words fold back
        x, cols = x[not_identity], cols[not_identity]
        new = _first_occurrences(_joined(found, x), len(found))
        x, cols = x[new], cols[new]

        # the checks a one-at-a-time loop makes, in its order: the elliptic test
        # before each element is kept, the cap after
        elliptic = np.flatnonzero(np.abs(x.a.real) < 1.0 + _TRACE_MARGIN)
        overflow = group.element_cap - len(found)  # index of the element past the cap
        if len(elliptic) and elliptic[0] <= overflow:
            raise EllipticElementError(
                f"element with |Re a| = {abs(x.a.real[elliptic[0]]):.6f} < 1 "
                "has a fixed point in the disk"
            )
        if overflow < len(x):
            raise GrowthOverflowError(
                f"enumeration exceeded cap of {group.element_cap} elements"
            )
        found, frontier, last = _joined(found, x), x, cols
    return found


@dataclass(frozen=True, eq=False)
class DirichletDomain:
    """Intersection of half-planes {z : h(z, center) < h(z, g(center))}.

    The given elements (any sequence of automorphisms is converted) are pruned
    to `constraints`: those whose bisector comes within `_PRUNE_MARGIN` of the
    polygon, in their given order. `images` holds g(center) for each, a
    read-only view of `_points` = [center, *images], which a membership query
    measures in one pass; `vertices` holds the polygon's vertices inside the
    disk, counterclockwise.
    """

    center: complex
    constraints: MobiusAutomorphism
    images: np.ndarray = field(init=False, repr=False, compare=False)
    vertices: np.ndarray = field(init=False, repr=False, compare=False)
    _points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        zc = complex(inside_disk(self.center, "domain center"))
        constraints = self.constraints
        if not isinstance(constraints, MobiusAutomorphism):
            constraints = _as_set(tuple(constraints))
        images = mobius_apply(constraints, zc)
        if np.any(hyp_distance(zc, images) <= _DEDUP_TOL):
            raise ValueError("a constraint fixes the center; domain undefined")
        to_zero = mobius_to_zero(zc)
        keep, klein = _prune(mobius_apply(to_zero, images))
        points = np.concatenate(([zc], images[keep]))
        vertices = mobius_apply(mobius_invert(to_zero), klein / (1.0 + np.sqrt(1.0 - np.abs(klein) ** 2)))
        points.flags.writeable = vertices.flags.writeable = False
        object.__setattr__(self, "center", zc)
        object.__setattr__(self, "constraints", constraints[keep])
        object.__setattr__(self, "images", points[1:])
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_points", points)


def _clip(poly: list, w: complex) -> list:
    """The convex polygon poly (complex vertices in order) cut to Re(x conj(w)) <= |w|^2.

    Sutherland-Hodgman on a plain list: polygons have a few dozen vertices at
    most, where a Python loop beats numpy's per-call overhead.
    """
    r2, wc = abs(w) ** 2, w.conjugate()
    s = [r2 - (x * wc).real for x in poly]
    if min(s) >= 0.0:
        return poly  # the line misses the polygon
    out = []
    p, sp = poly[-1], s[-1]
    for q, sq in zip(poly, s):
        if (sp > 0.0 and sq < 0.0) or (sp < 0.0 and sq > 0.0):
            out.append(p + (q - p) * (sp / (sp - sq)))
        if sq >= 0.0:
            out.append(q)
        p, sp = q, sq
    return out


def _prune(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the images w of a domain centered at 0 whose bisector comes within
    `_PRUNE_MARGIN` of the polygon, and the polygon's vertices inside the disk,
    in the Klein model.

    There the half-plane of w is Re(x conj(w)) < |w|^2, bounded by a line at
    distance |w| from 0. A square around the closed disk is clipped by the
    half-planes in order of |w| until the next line lies more than the margin
    beyond every vertex; the lines left out cannot reach the polygon.
    """
    r = np.abs(w)
    poly = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]
    reach = math.sqrt(2.0) + _PRUNE_MARGIN
    for k in np.argsort(r, kind="stable").tolist():
        if r[k] > reach:
            break
        clipped = _clip(poly, complex(w[k]))
        if clipped is not poly:
            poly = clipped
            reach = max(map(abs, poly)) + _PRUNE_MARGIN
    poly = np.array(poly)
    near = np.flatnonzero(r <= reach)
    slack = r[near, None] - (poly[None, :] * w[near, None].conjugate()).real / r[near, None]
    keep = np.zeros(len(w), dtype=bool)
    keep[near[np.min(slack, axis=1) < _PRUNE_MARGIN]] = True
    # lines through one vertex leave copies of it, a rounding apart
    poly = poly[np.abs(poly - np.roll(poly, 1)) > _DEDUP_TOL]
    return keep, poly[np.abs(poly) < 1.0]


def build_dirichlet_domain(group: FuchsianGroup, center=0j, elements=None) -> DirichletDomain:
    """Dirichlet polygon about `center`, pruned from the enumerated elements."""
    if elements is None:
        elements = enumerate_elements(group)
    return DirichletDomain(center, elements)


def _locate(z: complex, dom: DirichletDomain) -> tuple[str, float]:
    """The membership label of z and its distance to the center, from one row of
    distances to `dom._points` = [center, *images]."""
    d = hyp_distance(z, dom._points)
    d_center, d_image = float(d[0]), float(d[1:].min(initial=math.inf))
    if d_center >= d_image + _MEMBERSHIP_TOL:
        return "outside", d_center
    if d_center > d_image - _MEMBERSHIP_TOL:
        return "boundary", d_center
    return "inside", d_center


def dirichlet_membership(z, dom: DirichletDomain) -> str:
    """Classify z as 'inside', 'boundary' or 'outside' the Dirichlet polygon:
    'boundary' when its distance d_c to the center is within `_MEMBERSHIP_TOL`
    of its distance to the nearest kept image.

    One distance row and one min over the images d_i decide it. Rounded
    addition is monotone, so fl(min d_i + tol) = min fl(d_i + tol), and
    d_c >= fl(min d_i + tol) holds exactly when d_c >= fl(d_i + tol) for some
    i; likewise for d_c > fl(d_i - tol). These are the per-image tests of the
    definition, so the labels are theirs bit for bit. With no images (the
    trivial group) the min is +inf: every point at finite distance is inside.
    """
    return _locate(complex(z), dom)[0]


def dirichlet_boundary(dom: DirichletDomain, angles) -> np.ndarray:
    """Where the geodesic ray from `dom.center` at each angle leaves the polygon,
    or its end on the rim where it never does: in the Klein model about the
    center (see `_prune`), at R = min |w|^2 / Re(e^{i theta} conj(w)) over the
    images w with a positive denominator, capped at 1."""
    to_zero = mobius_to_zero(dom.center)
    w = mobius_apply(to_zero, dom.images)
    direction = np.exp(1j * np.asarray(angles, dtype=float))
    toward = (direction[:, None] * w.conjugate()).real
    with np.errstate(divide="ignore"):
        exits = np.where(toward > 0.0, np.abs(w) ** 2 / toward, 1.0)
    klein = np.min(exits, axis=1, initial=1.0)
    return mobius_apply(mobius_invert(to_zero), klein / (1.0 + np.sqrt(1.0 - klein**2)) * direction)


def project_to_fundamental(z, group: FuchsianGroup, dom: DirichletDomain, elements=None):
    """Greedy reduction of z into the Dirichlet domain.

    Each step applies the enumerated element that most decreases the distance
    to the domain center; returns (representative, word) with word(z) equal to
    the representative. Raises NotReducedError when the word-length bound is
    too small to finish the reduction.
    """
    if elements is None:
        elements = enumerate_elements(group)
    current = complex(z)
    word = IDENTITY
    center = dom.center
    for step in range(len(elements) + 1):
        label, d_current = _locate(current, dom)
        if label != "outside":
            return current, word
        if step == len(elements):
            break  # step budget = enumerated-set size exhausted
        d = hyp_distance(mobius_apply(elements, current), center)
        best = int(np.argmin(d))  # the first minimum, as a strict `<` scan picks
        if not d[best] < d_current - _DEDUP_TOL:
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
    z = complex(z0)
    return 0.5 * float(np.min(hyp_distance(z, mobius_apply(elements, z)), initial=math.inf))


def load_group(path) -> FuchsianGroup:
    """Read a group definition from JSON, every number by `_io.json_number`
    and every object by `_io.json_object`; a ValueError naming the path when
    the file is unreadable or not JSON, and naming the field or key when it is
    malformed.

    Schema: {"generators": [{"a_re", "a_im", "c_re", "c_im"}, ...],
             "max_word_length": int, "element_cap": int}.
    """
    coefficients = ("a_re", "a_im", "c_re", "c_im")
    try:
        data = json_object(json.loads(Path(path).read_text()), "group",
                           ("generators", "max_word_length", "element_cap"))
        gens = []
        for i, g in enumerate(data["generators"]):
            name = f"generators[{i}]"
            g = json_object(g, name, coefficients)
            a_re, a_im, c_re, c_im = (json_number(g[key], f"{name}.{key}") for key in coefficients)
            gens.append(MobiusAutomorphism(complex(a_re, a_im), complex(c_re, c_im)))
        return FuchsianGroup(
            generators=gens,
            max_word_length=json_number(data.get("max_word_length", 4), "max_word_length", whole=True),
            element_cap=json_number(data.get("element_cap", 1_000_000), "element_cap", whole=True),
        )
    except KeyError as exc:
        raise ValueError(f"group file {path} missing field {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:  # unreadable; not JSON (a ValueError); a bad number or key
        raise ValueError(f"group file {path}: {exc}") from exc


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
