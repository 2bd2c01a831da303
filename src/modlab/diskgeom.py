"""Complex arithmetic of the Poincaré disk.

Points are complex numbers or complex arrays; `inside_disk` is the one check
that they lie strictly inside. Disk automorphisms (one type for one or a
set), hyperbolic distance, the closed-form hyperbolic length of segments,
and the conversion between hyperbolic and Euclidean radii of circles about 0.
The metric normalization is curvature -1: line element 2|dz|/(1-|z|^2),
area element 4 dm(z)/(1-|z|^2)^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BOUNDARY_MARGIN",
    "MobiusAutomorphism",
    "Polyline",
    "PrecisionLossError",
    "inside_disk",
    "hyp_distance",
    "euclid_radius",
    "hyp_radius",
    "mobius_apply",
    "mobius_compose",
    "mobius_invert",
    "mobius_to_zero",
    "mobius_rotation",
]

# Points this close to |z| = 1 are rejected: every computation in the library
# lives on a compact subset of the disk.
BOUNDARY_MARGIN = 1e-9

_DET_TOL = 1e-12

# Most points handed to a map or field evaluator in one batched call. numpy
# computes `x * <temporary>` in place as `<temporary> *= x` once the temporary
# holds 256 KiB (2^14 complex numbers), and its SIMD complex product is not
# bitwise commutative; 2^13 points keep batched calls below that size, so they
# round as the per-circle and per-target calls did.
_BLOCK_POINTS = 2**13


def inside_disk(z, what: str) -> np.ndarray:
    """z as a complex array; ValueError unless every point is finite and
    |z| <= 1 - BOUNDARY_MARGIN."""
    z = np.asarray(z, dtype=complex)
    # NaN and inf fail the fused test too; the two tests below only name the failure
    if z.size and not np.max(np.hypot(z.real, z.imag)) <= 1.0 - BOUNDARY_MARGIN:
        if not np.all(np.isfinite(z)):
            raise ValueError(f"{what} must be finite")
        raise ValueError(f"{what} must lie strictly inside the unit disk")
    return z


class PrecisionLossError(ValueError):
    """A composition's coefficients outgrew float resolution: |a|^2 and |c|^2
    are so large that their difference, which should be 1, rounds to 0 or below."""


@dataclass(frozen=True)
class MobiusAutomorphism:
    """Disk automorphism g(z) = (a z + c) / (conj(c) z + conj(a)), or a set of them.

    `a` and `c` are complex numbers for one automorphism, or equal-length
    read-only 1-d complex arrays for a set whose element k is (a[k], c[k]); a
    set has a length, an integer index gives one element and a slice, mask or
    index array a set, and `mobius_apply(g, z)` of one point z is its orbit.

    Coefficients are renormalized on construction so |a|^2 - |c|^2 = 1;
    the pair (a, c) then determines g up to overall sign. The rescale happens
    only when det = |a|^2 - |c|^2 is off 1 by more than 1e-12 (|a|^2 + |c|^2),
    the scale of its rounding error, so rebuilding from normalized
    coefficients keeps them. It is written once, for this and `mobius_compose`,
    on real components with moduli by `hypot` and squares by `pow`, as CPython's
    abs(a) ** 2 rounds them: an element of a set gets the bits it gets alone.
    """

    a: complex | np.ndarray
    c: complex | np.ndarray

    def __post_init__(self):
        if isinstance(self.a, np.ndarray) or isinstance(self.c, np.ndarray):
            a, c = np.asarray(self.a, dtype=complex), np.asarray(self.c, dtype=complex)
            if a.ndim != 1 or a.shape != c.shape:
                raise ValueError("a and c must be one-dimensional and of equal length")
        else:
            a, c = complex(self.a), complex(self.c)
        a, c = _normalized(a.real, a.imag, c.real, c.imag)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    def __call__(self, z):
        return mobius_apply(self, z)

    def __len__(self) -> int:
        return len(self.a)  # a TypeError for one automorphism

    def __getitem__(self, k):
        return _stored(self.a[k], self.c[k])

    def coefficient_distance(self, other: "MobiusAutomorphism"):
        """Distance between coefficient pairs, max(|a - a'|, |c - c'|) minimized
        over the sign ambiguity; elementwise for sets."""
        ar, ai, cr, ci = self.a.real, self.a.imag, self.c.real, self.c.imag
        br, bi, dr, di = other.a.real, other.a.imag, other.c.real, other.c.imag
        d_plus = np.maximum(np.hypot(ar - br, ai - bi), np.hypot(cr - dr, ci - di))
        d_minus = np.maximum(np.hypot(ar + br, ai + bi), np.hypot(cr + dr, ci + di))
        return np.minimum(d_plus, d_minus)


def _normalized(ar, ai, cr, ci) -> tuple:
    """The coefficients (a, c) with these real components, rescaled as the
    class docstring says; ValueError where |a|^2 - |c|^2 is not positive and finite."""
    a2, c2 = np.float_power(np.hypot(ar, ai), 2), np.float_power(np.hypot(cr, ci), 2)
    det = a2 - c2
    valid = (det > 0.0) & (det < math.inf)
    if not valid.all():
        raise ValueError(f"|a|^2 - |c|^2 = {np.extract(~valid, det)[0]} must be positive and finite")
    rescale = abs(det - 1.0) > _DET_TOL * (a2 + c2)
    s = 1.0 / np.sqrt(det * rescale + ~rescale)  # 1 exactly where det stays
    return _complex(ar * s, ai * s), _complex(cr * s, ci * s)


def _complex(re, im):
    """re + i im exactly: a complex from floats, a new read-only array from arrays."""
    if not isinstance(re, np.ndarray):
        return complex(re, im)
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    z.flags.writeable = False
    return z


def _stored(a, c) -> MobiusAutomorphism:
    """An automorphism or set with coefficients taken from normalized ones (an element,
    a subset, a concatenation), which the constructor would keep at the cost of their determinants."""
    if isinstance(a, np.ndarray):
        a.flags.writeable = c.flags.writeable = False
    else:
        a, c = complex(a), complex(c)
    g = object.__new__(MobiusAutomorphism)
    object.__setattr__(g, "a", a)
    object.__setattr__(g, "c", c)
    return g


IDENTITY = MobiusAutomorphism(1.0, 0.0)


@dataclass(frozen=True, eq=False)
class Polyline:
    """Ordered vertices strictly inside the disk, as one read-only complex array.

    Accepts complex or float vertices; consecutive exact duplicates are
    collapsed.
    """

    vertices: np.ndarray
    closed: bool = False

    def __post_init__(self):
        z = inside_disk(self.vertices, "polyline vertices")
        if z.ndim != 1 or len(z) == 0:
            raise ValueError("polyline needs a sequence of at least one vertex")
        z = z[np.concatenate(([True], z[1:] != z[:-1]))]  # a copy, so the caller's array stays writable
        z.flags.writeable = False
        object.__setattr__(self, "vertices", z)

    def __len__(self) -> int:
        return len(self.vertices)

    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end points of the segments, including the wrap-around if closed."""
        z = self.vertices
        if self.closed and len(z) > 1 and z[-1] != z[0]:
            z = np.append(z, z[0])
        return z[:-1], z[1:]


def hyp_distance(z1, z2):
    """Hyperbolic distance log((1+t)/(1-t)), t = |z1-z2| / |1 - z1 conj(z2)|.

    Broadcasts over complex arrays; a float when both inputs are scalars.
    t^2 is taken as n / (n + (1-|z1|^2)(1-|z2|^2)), n = |z1-z2|^2, an
    identity of the disk: every term is symmetric, so both argument orders
    give the same bits (numpy's complex product rounds z1 conj(z2) and
    z2 conj(z1) apart), and t^2 <= 1 holds in floating point too.
    """
    a, b = np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex)
    n = np.abs(a - b) ** 2
    t2 = n / (n + (1.0 - np.abs(a) ** 2) * (1.0 - np.abs(b) ** 2))
    # log((1+t)/(1-t)) = 2 atanh t, accurate for small separations; beyond a
    # distance of about 37 t rounds to 1 and the distance to inf, which still
    # orders it after every finite one
    with np.errstate(divide="ignore"):
        d = 2.0 * np.arctanh(np.sqrt(t2))
    return float(d) if d.ndim == 0 else d


def _segment_hyp_length(p, d, r, speed, t0, t1):
    """Hyperbolic length of the pieces p + t d, t0 <= t <= t1, in closed form, given
    r = |p| and speed = |d| (both `np.hypot`); broadcasts.

    With z = p + s u, |u| = 1: 1 - |z|^2 = (s_plus - s)(s - s_minus), so the line
    element 2 ds / (1 - |z|^2) integrates to two logarithms.
    """
    ux, uy = d.real / speed, d.imag / speed  # numpy's complex / real overflows on a subnormal step
    b = p.real * ux + p.imag * uy
    c = (1.0 - r) * (1.0 + r)
    root_d = np.sqrt(b * b + c)
    big = np.abs(b) + root_d  # root of s^2 + 2 b s - c without cancellation; s_plus s_minus = -c
    s_plus, s_minus = np.where(b < 0.0, big, c / big), np.where(b < 0.0, -c / big, -big)
    step, to_start, to_end = speed * (t1 - t0), speed * t0 - s_minus, s_plus - speed * t1
    return (np.log1p(step / to_start) + np.log1p(step / to_end)) / root_d


def euclid_radius(r: float) -> float:
    """Euclidean radius (e^r - 1)/(e^r + 1) = tanh(r/2) of the hyperbolic circle about 0."""
    if r < 0:
        raise ValueError("hyperbolic radius must be >= 0")
    return math.tanh(0.5 * r)


def hyp_radius(R: float) -> float:
    """Inverse of euclid_radius: hyperbolic radius of the Euclidean circle |z| = R."""
    if not 0.0 <= R < 1.0:
        raise ValueError("euclidean radius must lie in [0, 1)")
    return 2.0 * math.atanh(R)


def mobius_apply(g, z):
    """g(z) = (a z + c) / (conj(c) z + conj(a)), the one evaluation of the formula.

    z is a complex array (the result has its shape) or a scalar, taken as
    `complex(z)` (the result is a complex). For a set g, g(z) of one point z
    is its orbit, one value per element.
    """
    if not isinstance(z, np.ndarray):
        z = complex(z)
    return (g.a * z + g.c) / (g.c.conjugate() * z + g.a.conjugate())


def mobius_compose(g1: MobiusAutomorphism, g2: MobiusAutomorphism) -> MobiusAutomorphism:
    """Composition g1 ∘ g2 (apply g2 first), elementwise for sets.

    a = a1 a2 + c1 conj(c2) and c = a1 c2 + c1 conj(a2), each product and sum
    in CPython's complex order on real components, so one automorphism and
    the elements of a set round alike. A result whose |a|^2 - |c|^2, which
    should be 1, rounds to 0 or below raises PrecisionLossError.
    """
    a1r, a1i, c1r, c1i = g1.a.real, g1.a.imag, g1.c.real, g1.c.imag
    a2r, a2i, c2r, c2i = g2.a.real, g2.a.imag, g2.c.real, g2.c.imag
    n2i, m2i = -a2i, -c2i  # the imaginary parts of conj(a2), conj(c2)
    ar = (a1r * a2r - a1i * a2i) + (c1r * c2r - c1i * m2i)
    ai = (a1r * a2i + a1i * a2r) + (c1r * m2i + c1i * c2r)
    cr = (a1r * c2r - a1i * c2i) + (c1r * a2r - c1i * n2i)
    ci = (a1r * c2i + a1i * c2r) + (c1r * n2i + c1i * a2r)
    try:
        a, c = _normalized(ar, ai, cr, ci)
    except ValueError as exc:
        raise PrecisionLossError(f"composed coefficients have lost float resolution ({exc}); "
                                 "lower the word-length bound") from None
    return _stored(a, c)


def mobius_invert(g: MobiusAutomorphism) -> MobiusAutomorphism:
    return _stored(g.a.conjugate(), -g.c)  # no modulus changes, so the coefficients stay normalized


def mobius_to_zero(z0) -> MobiusAutomorphism:
    """The automorphism z -> (z - z0)/(1 - z conj(z0)) sending z0 to 0."""
    w = complex(inside_disk(z0, "center"))
    s = 1.0 / math.sqrt(1.0 - abs(w) ** 2)
    return MobiusAutomorphism(s, -s * w)


def mobius_rotation(theta: float) -> MobiusAutomorphism:
    """Rotation z -> e^{i theta} z about the origin."""
    return MobiusAutomorphism(cmath.exp(0.5j * theta), 0.0)
