"""Reference quantities the tests compare the library against."""

import math

import numpy as np
import scipy.sparse as sp

from modlab.diskgeom import BOUNDARY_MARGIN, Polyline, _segment_hyp_length, euclid_radius
from modlab.mappings import SampleMap
from modlab.modulus import CurveFamily
from modlab.quadrature import ScalarField, ball_integral


def hyp_length(curve: Polyline) -> float:
    """Hyperbolic arclength of a polyline: the closed-form lengths of its segments, summed."""
    p, q = curve.segments()
    d = q - p
    r, speed = np.hypot(p.real, p.imag), np.hypot(d.real, d.imag)
    return float(np.sum(_segment_hyp_length(p, d, r, speed, 0.0, 1.0)))


def normalized_reference(a: complex, c: complex) -> tuple[complex, complex]:
    """`MobiusAutomorphism`'s coefficients for (a, c), in Python's complex
    arithmetic: rescaled to |a|^2 - |c|^2 = 1 when that is off 1 by more than
    1e-12 (|a|^2 + |c|^2); ValueError for a non-positive or non-finite one."""
    a2, c2 = abs(a) ** 2, abs(c) ** 2
    det = a2 - c2
    if not 0.0 < det < math.inf:
        raise ValueError(f"|a|^2 - |c|^2 = {det} must be positive and finite")
    if abs(det - 1.0) > 1e-12 * (a2 + c2):
        s = 1.0 / math.sqrt(det)
        a, c = a * s, c * s
    return a, c


def compose_reference(g1, g2) -> tuple[complex, complex]:
    """The normalized coefficients of g1 ∘ g2 for two single automorphisms, in
    Python's complex arithmetic."""
    return normalized_reference(g1.a * g2.a + g1.c * g2.c.conjugate(), g1.a * g2.c + g1.c * g2.a.conjugate())


def apply_reference(g, z: complex) -> complex:
    """g(z) for one automorphism and one point, in Python's complex arithmetic."""
    return (g.a * z + g.c) / (g.c.conjugate() * z + g.a.conjugate())


def wirtinger_fd(f, z, step: float = None):
    """Central-difference Wirtinger derivatives (f_z, f_zbar) of a map f at an
    array of points, f_z = (f_x - i f_y)/2 and f_zbar = (f_x + i f_y)/2; the
    default step shrinks with the distance to the rim."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    r = np.hypot(z.real, z.imag)
    h = np.maximum(1e-5 * (1.0 - r), 1e-9) if step is None else step
    if np.any(r + h >= 1.0 - BOUNDARY_MARGIN):
        raise ValueError("stencil leaves the disk; shrink the step")
    two_h = 2.0 * h
    dx = f(z + h) - f(z - h)
    dy = f(z + 1j * h) - f(z - 1j * h)
    # divide componentwise: numpy's complex-by-real division multiplies by a
    # reciprocal, which rounds differently from the true quotient
    fx = dx.real / two_h + 1j * (dx.imag / two_h)
    fy = dy.real / two_h + 1j * (dy.imag / two_h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def custom_map(evaluator, label: str = "custom") -> SampleMap:
    """A map from an evaluator alone, its Wirtinger data by `wirtinger_fd`."""

    def evaluate(z):
        return np.asarray(evaluator(z), dtype=complex)

    return SampleMap(evaluate, label, lambda z: wirtinger_fd(evaluate, z))


def incidence_matrix(family: CurveFamily, metric: str) -> sp.csr_matrix:
    """One metric's incidences of a family as a scipy CSR matrix sharing the family's arrays."""
    return sp.csr_matrix((family.lengths(metric), family.indices, family.indptr),
                         shape=(len(family), family.n_cells))


def midpoint_incidences(curves, dom):
    """(indptr, indices, euclidean, hyperbolic) of curves on a polar grid, each given
    by its vertices with every segment inside one cell: a segment goes to the cell
    of its midpoint, found with atan2 and hypot, and a curve's segments are summed
    per cell in order along it."""
    R_edges, n_theta = dom.geometry["R_edges"], len(dom.geometry["theta_edges"]) - 1
    n_cells = (len(R_edges) - 1) * n_theta
    keys, euclidean, hyperbolic = [], [], []
    for g, z in enumerate(curves):
        p, d = z[:-1], np.diff(z)
        mid = p + 0.5 * d
        band = np.searchsorted(R_edges, np.hypot(mid.real, mid.imag)) - 1
        sector = np.floor(np.mod(np.arctan2(mid.imag, mid.real), 2.0 * math.pi) / (2.0 * math.pi / n_theta))
        keys.append(g * n_cells + band * n_theta + sector.astype(int))
        r, speed = np.hypot(p.real, p.imag), np.hypot(d.real, d.imag)
        euclidean.append(speed)
        hyperbolic.append(_segment_hyp_length(p, d, r, speed, 0.0, 1.0))
    key, at = np.unique(np.concatenate(keys), return_inverse=True)
    curve, cells = np.divmod(key, n_cells)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(curve, minlength=len(curves)))))
    return (indptr, cells, np.bincount(at, np.concatenate(euclidean)),
            np.bincount(at, np.concatenate(hyperbolic)))


def _sqrt_antiderivative(x: float, R: float) -> float:
    """Antiderivative of sqrt(R^2 - x^2) on [-R, R]."""
    x = min(max(x, -R), R)
    return 0.5 * (x * math.sqrt(max(R * R - x * x, 0.0)) + R * R * math.asin(x / R))


def _rect_disk_overlap(a: float, b: float, c: float, d: float, R: float) -> float:
    """Exact area of [a,b] x [c,d] intersected with the disk x^2 + y^2 < R^2.

    The vertical chord length max(0, min(d, g) - max(c, -g)), g = sqrt(R^2-x^2),
    changes formula only at |x| = R and |x| = sqrt(R^2 - c^2), sqrt(R^2 - d^2);
    between breakpoints each active piece integrates in closed form.
    """
    lo, hi = max(a, -R), min(b, R)
    if lo >= hi:
        return 0.0
    breaks = {lo, hi}
    for y in (c, d):
        if abs(y) < R:
            x_star = math.sqrt(R * R - y * y)
            for x in (x_star, -x_star):
                if lo < x < hi:
                    breaks.add(x)
    xs = sorted(breaks)
    area = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        xm = 0.5 * (x0 + x1)
        g = math.sqrt(max(R * R - xm * xm, 0.0))
        upper_flat = d <= g   # else the circle caps the cell top
        lower_flat = c >= -g  # else the circle caps the cell bottom
        if min(d, g) <= max(c, -g):
            continue  # empty on this strip (no switch inside by construction)
        piece = 0.0
        piece += d * (x1 - x0) if upper_flat else _sqrt_antiderivative(x1, R) - _sqrt_antiderivative(x0, R)
        piece -= c * (x1 - x0) if lower_flat else -(_sqrt_antiderivative(x1, R) - _sqrt_antiderivative(x0, R))
        area += piece
    return area


def cartesian_disk_integral(Q: ScalarField, R0: float, resolution: int) -> float:
    """Midpoint quadrature of Q * 4/(1-|z|^2)^2 over the Euclidean disk |z| < R0.

    Cells straddling the rim are subdivided 8x8 with each subcell weighted by
    its exact overlap area with the disk, so the boundary contribution carries
    no indicator noise and the total error is the smooth interior O(h^2) term.
    """
    n = resolution
    h = 2.0 * R0 / n
    centers = -R0 + (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(centers, centers)
    Z = X + 1j * Y
    rho = np.abs(Z)
    half_diag = h * math.sqrt(0.5)
    inside = rho <= R0 - half_diag
    straddle = (~inside) & (rho < R0 + half_diag)

    def weighted(z):
        r2 = np.abs(z) ** 2
        return Q.evaluate_array(z) * 4.0 / (1.0 - r2) ** 2

    total = float(np.sum(weighted(Z[inside]))) * h * h if inside.any() else 0.0

    if straddle.any():
        m = 8
        sub = (np.arange(m) + 0.5) / m - 0.5
        SX, SY = np.meshgrid(sub * h, sub * h)
        offsets = (SX + 1j * SY).ravel()
        zs = Z[straddle][:, None] + offsets[None, :]
        half = h / (2.0 * m)
        areas = np.array([
            [_rect_disk_overlap(z.real - half, z.real + half, z.imag - half, z.imag + half, R0)
             for z in row]
            for row in zs
        ])
        keep = areas > 0.0
        if keep.any():
            vals = np.zeros(zs.shape)
            vals[keep] = weighted(zs[keep])
            total += float(np.sum(vals * areas))
    return total


def fubini_residual(Q: ScalarField, r0: float, resolution: int = 400,
                    n_r: int = 257, n_theta: int = 512) -> float:
    """Absolute gap between the direct 2-D quadrature of the ball integral and
    its iterated radial form; tends to 0 under refinement."""
    R0 = euclid_radius(r0)
    direct = cartesian_disk_integral(Q, R0, resolution)
    iterated = ball_integral(Q, r0, n_r=n_r, n_theta=n_theta)
    return abs(direct - iterated)
