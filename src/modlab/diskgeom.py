"""Complex arithmetic of the Poincaré disk.

Points, disk automorphisms, hyperbolic distance/length/area, geodesics and
the conversion between hyperbolic and Euclidean radii of circles about 0.
The metric normalization is curvature -1: line element 2|dz|/(1-|z|^2),
area element 4 dm(z)/(1-|z|^2)^2.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BOUNDARY_MARGIN",
    "DiskPoint",
    "MobiusAutomorphism",
    "Polyline",
    "HyperbolicCircle",
    "QuadratureConvergenceWarning",
    "as_complex",
    "hyp_distance",
    "hyp_length",
    "hyp_area",
    "euclid_radius",
    "hyp_radius",
    "mobius_apply",
    "mobius_compose",
    "mobius_invert",
    "mobius_to_zero",
    "mobius_rotation",
    "geodesic",
]

# Points this close to |z| = 1 are rejected: every computation in the library
# lives on a compact subset of the disk.
BOUNDARY_MARGIN = 1e-9

_DET_TOL = 1e-12


class QuadratureConvergenceWarning(UserWarning):
    """A quadrature refinement check disagreed beyond its tolerance."""


@dataclass(frozen=True)
class DiskPoint:
    """A point strictly inside the unit disk."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError("disk point coordinates must be finite")
        if abs(self.z) > 1.0 - BOUNDARY_MARGIN:
            raise ValueError(
                f"point {self.re}+{self.im}j is not strictly inside the unit disk"
            )

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    def __complex__(self) -> complex:
        return self.z


def as_complex(p) -> complex:
    """Coerce DiskPoint | complex | float into a complex number."""
    return complex(p)


@dataclass(frozen=True)
class MobiusAutomorphism:
    """Disk automorphism g(z) = (a z + c) / (conj(c) z + conj(a)).

    Coefficients are renormalized on construction so |a|^2 - |c|^2 = 1;
    the pair (a, c) then determines g up to overall sign.
    """

    a: complex
    c: complex

    def __post_init__(self):
        a, c = complex(self.a), complex(self.c)
        det = abs(a) ** 2 - abs(c) ** 2
        if det <= 0.0:
            raise ValueError(f"|a|^2 - |c|^2 = {det} must be positive")
        if abs(det - 1.0) > _DET_TOL:
            s = 1.0 / math.sqrt(det)
            a, c = a * s, c * s
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    def __call__(self, z):
        return mobius_apply(self, z)

    @property
    def trace_real(self) -> float:
        """Re(trace) of the SU(1,1) matrix; |2 Re a| classifies the element."""
        return self.a.real

    def coefficient_distance(self, other: "MobiusAutomorphism") -> float:
        """Distance between coefficient pairs, minimized over the sign ambiguity."""
        d_plus = max(abs(self.a - other.a), abs(self.c - other.c))
        d_minus = max(abs(self.a + other.a), abs(self.c + other.c))
        return min(d_plus, d_minus)


IDENTITY = MobiusAutomorphism(1.0, 0.0)


@dataclass(frozen=True, eq=False)
class Polyline:
    """Ordered vertices strictly inside the disk, as one read-only complex array.

    Accepts complex, float or DiskPoint vertices; consecutive exact duplicates
    are collapsed.
    """

    vertices: np.ndarray
    closed: bool = False

    def __post_init__(self):
        z = np.asarray(self.vertices, dtype=complex)
        if z.ndim != 1 or len(z) == 0:
            raise ValueError("polyline needs a sequence of at least one vertex")
        if not np.all(np.isfinite(z)):
            raise ValueError("polyline vertices must be finite")
        if np.any(np.hypot(z.real, z.imag) > 1.0 - BOUNDARY_MARGIN):
            raise ValueError("polyline vertices must lie strictly inside the unit disk")
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


@dataclass(frozen=True)
class HyperbolicCircle:
    """Metric circle: hyperbolic radius about a center point."""

    center: DiskPoint
    radius: float

    def __post_init__(self):
        if not math.isfinite(self.radius) or self.radius < 0:
            raise ValueError("radius must be finite and >= 0")

    @property
    def euclid_image_radius(self) -> float:
        """Euclidean radius of the circle after recentring its center to 0."""
        return euclid_radius(self.radius)


def hyp_distance(z1, z2) -> float:
    """Hyperbolic distance log((1+t)/(1-t)), t = |z1-z2| / |1 - z1 conj(z2)|."""
    a, b = as_complex(z1), as_complex(z2)
    t = abs(a - b) / abs(1.0 - a * b.conjugate())
    # log((1+t)/(1-t)) = 2 atanh t, accurate for small separations
    return 2.0 * math.atanh(t)


def _adaptive_simpson(f, a: float, b: float, tol: float, fa: float, fm: float, fb: float, depth: int) -> float:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(f, a, m, 0.5 * tol, fa, flm, fm, depth - 1) + _adaptive_simpson(
        f, m, b, 0.5 * tol, fm, frm, fb, depth - 1
    )


def _segment_hyp_length(p: complex, q: complex, tol: float = 1e-10) -> float:
    d = q - p
    speed = abs(d)

    def integrand(t: float) -> float:
        z = p + t * d
        return 2.0 * speed / (1.0 - (z.real * z.real + z.imag * z.imag))

    return _adaptive_simpson(integrand, 0.0, 1.0, tol, integrand(0.0), integrand(0.5), integrand(1.0), 30)


def hyp_length(curve: Polyline) -> float:
    """Hyperbolic arclength of a polyline: sum of adaptive-Simpson segment integrals."""
    p, q = curve.segments()
    return sum(_segment_hyp_length(a, b) for a, b in zip(p.tolist(), q.tolist()))


def hyp_area(indicator, window, resolution: int) -> float:
    """Hyperbolic area of {indicator true} inside a Euclidean rectangle window.

    Midpoint rule over cell centers that satisfy the predicate and lie strictly
    inside the disk, evaluated at `resolution` and `2 * resolution`; returns the
    refined value and warns if the two disagree by more than 1%.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    (x0, x1), (y0, y1) = window
    if max(abs(x0), abs(x1), abs(y0), abs(y1)) > 1.0 + 1e-12:
        raise ValueError("window must lie inside [-1, 1]^2")

    def midpoint_sum(n: int) -> float:
        xs = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
        ys = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
        cell = ((x1 - x0) / n) * ((y1 - y0) / n)
        total = 0.0
        for y in ys:
            zs = xs + 1j * y
            r2 = xs * xs + y * y
            inside = r2 < (1.0 - BOUNDARY_MARGIN) ** 2
            if not inside.any():
                continue
            keep = np.array(
                [bool(indicator(DiskPoint(z.real, z.imag))) if ok else False for z, ok in zip(zs, inside)]
            )
            if keep.any():
                total += float(np.sum(4.0 / (1.0 - r2[keep]) ** 2)) * cell
        return total

    coarse = midpoint_sum(resolution)
    fine = midpoint_sum(2 * resolution)
    scale = max(abs(fine), abs(coarse), 1e-300)
    if abs(fine - coarse) > 0.01 * scale:
        warnings.warn(
            f"hyp_area refinement changed by {abs(fine - coarse) / scale:.2e} (> 1%)",
            QuadratureConvergenceWarning,
            stacklevel=2,
        )
    return fine


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


def mobius_apply(g: MobiusAutomorphism, z):
    """Apply g; accepts DiskPoint (returns DiskPoint) or complex/ndarray (returns same)."""
    if isinstance(z, DiskPoint):
        w = (g.a * z.z + g.c) / (g.c.conjugate() * z.z + g.a.conjugate())
        return DiskPoint(w.real, w.imag)
    if isinstance(z, np.ndarray):
        return (g.a * z + g.c) / (np.conjugate(g.c) * z + np.conjugate(g.a))
    zc = complex(z)
    return (g.a * zc + g.c) / (g.c.conjugate() * zc + g.a.conjugate())


def mobius_compose(g1: MobiusAutomorphism, g2: MobiusAutomorphism) -> MobiusAutomorphism:
    """Composition g1 ∘ g2 (apply g2 first)."""
    a = g1.a * g2.a + g1.c * g2.c.conjugate()
    c = g1.a * g2.c + g1.c * g2.a.conjugate()
    return MobiusAutomorphism(a, c)


def mobius_invert(g: MobiusAutomorphism) -> MobiusAutomorphism:
    return MobiusAutomorphism(g.a.conjugate(), -g.c)


def mobius_to_zero(z0) -> MobiusAutomorphism:
    """The automorphism z -> (z - z0)/(1 - z conj(z0)) sending z0 to 0."""
    w = as_complex(z0)
    if abs(w) >= 1.0:
        raise ValueError("center must be inside the disk")
    s = 1.0 / math.sqrt(1.0 - abs(w) ** 2)
    return MobiusAutomorphism(s, -s * w)


def mobius_rotation(theta: float) -> MobiusAutomorphism:
    """Rotation z -> e^{i theta} z about the origin."""
    return MobiusAutomorphism(cmath.exp(0.5j * theta), 0.0)


def geodesic(z1, z2, n: int) -> Polyline:
    """n-vertex polyline along the geodesic from z1 to z2.

    Vertices are spaced uniformly in hyperbolic arclength (so swapping the
    endpoints reverses the vertex list); the polyline length converges to
    hyp_distance(z1, z2) from above at rate O(1/n^2).
    """
    if n < 2:
        raise ValueError("need n >= 2 vertices")
    a, b = as_complex(z1), as_complex(z2)
    if a == b:
        return Polyline((a,))
    g = mobius_to_zero(a)
    g_inv = mobius_invert(g)
    w = mobius_apply(g, b)
    d = 2.0 * math.atanh(abs(w))
    radii = np.tanh(0.5 * np.linspace(0.0, d, n))
    pts = mobius_apply(g_inv, radii * (w / abs(w)))
    pts[0], pts[-1] = a, b
    return Polyline(pts)
