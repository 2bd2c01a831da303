"""Discrete conformal modulus of curve families.

A domain is discretized into cells (polar rings about the chart center or a
Cartesian window), curves are rasterized into per-cell incidence lengths, and
the modulus  min sum rho_c^2 A_c  subject to  m_g * sum_c rho_c l_{cg} >= 1
for every curve g  is solved by dual ascent with a closed-form inner
minimization. Includes the closed-form ring modulus, the weighted circle
family modulus against its radial-integral reference, and the weighted
infimum with its extremal density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._io import write_csv, write_json
from .diskgeom import BOUNDARY_MARGIN, Polyline, euclid_radius
from .quadrature import RingSpec, ScalarField, qnorm_profile, ring_reciprocal_integral

__all__ = [
    "DiscretizedDomain",
    "PolylineFamily",
    "CurveFamily",
    "DensityField",
    "ModulusResult",
    "polar_grid",
    "polar_grid_from_band_centers",
    "cartesian_grid",
    "circle_family",
    "radial_connecting_family",
    "horizontal_connecting_family",
    "rasterize_family",
    "modulus_discrete",
    "ring_modulus_exact",
    "circle_family_modulus",
    "weighted_infimum",
    "density_to_csv",
    "density_to_svg",
]


@dataclass(frozen=True)
class DiscretizedDomain:
    """Cells with centers and areas in both metrics, plus a grid descriptor."""

    centers: np.ndarray  # complex cell centers
    area_euclid: np.ndarray
    area_hyp: np.ndarray
    geometry: dict

    def __post_init__(self):
        if np.any(self.area_euclid <= 0) or np.any(self.area_hyp <= 0):
            raise ValueError("cell areas must be positive")
        if np.any(np.abs(self.centers) > 1.0 - BOUNDARY_MARGIN):
            raise ValueError("cell centers must lie strictly inside the disk")

    @property
    def n_cells(self) -> int:
        return len(self.centers)


def _polar_grid(r_edges: np.ndarray, n_theta: int) -> DiscretizedDomain:
    """Polar cells between the given hyperbolic band edges, n_theta sectors each.

    Cell centers sit at the hyperbolic band midpoint, so circles placed at
    band centers share the metric factor of their cells exactly.
    """
    if n_theta < 4:
        raise ValueError("need n_theta >= 4")
    R_edges = np.tanh(0.5 * r_edges)
    r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
    R_mid = np.tanh(0.5 * r_mid)
    theta_edges = np.linspace(0.0, 2.0 * math.pi, n_theta + 1)
    theta_mid = 0.5 * (theta_edges[:-1] + theta_edges[1:])

    d_theta = 2.0 * math.pi / n_theta
    ring_areas = 0.5 * d_theta * (R_edges[1:] ** 2 - R_edges[:-1] ** 2)  # per sector
    centers = (R_mid[:, None] * np.exp(1j * theta_mid[None, :])).ravel()
    area_e = np.repeat(ring_areas, n_theta)
    factor = 4.0 / (1.0 - np.abs(centers) ** 2) ** 2
    return DiscretizedDomain(
        centers=centers,
        area_euclid=area_e,
        area_hyp=area_e * factor,
        geometry={
            "kind": "polar",
            "n_r": len(r_edges) - 1,
            "n_theta": n_theta,
            "r_edges_hyp": r_edges,
            "R_edges": R_edges,
            "theta_edges": theta_edges,
        },
    )


def polar_grid(ring: RingSpec, n_r: int, n_theta: int) -> DiscretizedDomain:
    """Polar cells over the ring, bands uniform in hyperbolic radius."""
    if n_r < 1:
        raise ValueError("need n_r >= 1")
    return _polar_grid(np.linspace(ring.r_inner, ring.r_outer, n_r + 1), n_theta)


def polar_grid_from_band_centers(centers_hyp, r_inner: float, r_outer: float,
                                 n_theta: int) -> DiscretizedDomain:
    """Polar grid whose radial bands bracket the given hyperbolic radii.

    Band edges are the midpoints of consecutive center radii with the ring
    bounds closing the ends, so each given radius lies inside its own band;
    for uniformly spaced centers this reproduces the uniform grid.
    """
    centers_hyp = np.asarray(sorted(map(float, centers_hyp)))
    if centers_hyp[0] <= r_inner or centers_hyp[-1] >= r_outer:
        raise ValueError("band centers must lie strictly between the ring radii")
    r_edges = np.concatenate(
        [[r_inner], 0.5 * (centers_hyp[:-1] + centers_hyp[1:]), [r_outer]]
    )
    return _polar_grid(r_edges, n_theta)


def cartesian_grid(window, n_x: int, n_y: int) -> DiscretizedDomain:
    """Rectangular cells over a window that must sit inside the unit disk."""
    (x0, x1), (y0, y1) = window
    if n_x < 1 or n_y < 1:
        raise ValueError("need positive cell counts")
    x_edges = np.linspace(x0, x1, n_x + 1)
    y_edges = np.linspace(y0, y1, n_y + 1)
    xc = 0.5 * (x_edges[:-1] + x_edges[1:])
    yc = 0.5 * (y_edges[:-1] + y_edges[1:])
    X, Y = np.meshgrid(xc, yc, indexing="ij")
    centers = (X + 1j * Y).ravel()
    corners = max(math.hypot(x0, y0), math.hypot(x0, y1), math.hypot(x1, y0), math.hypot(x1, y1))
    if corners >= 1.0 - BOUNDARY_MARGIN:
        raise ValueError("window must lie strictly inside the unit disk")
    area = ((x1 - x0) / n_x) * ((y1 - y0) / n_y)
    factor = 4.0 / (1.0 - np.abs(centers) ** 2) ** 2
    return DiscretizedDomain(
        centers=centers,
        area_euclid=np.full(centers.shape, area),
        area_hyp=area * factor,
        geometry={
            "kind": "cartesian",
            "n_x": n_x,
            "n_y": n_y,
            "x_edges": x_edges,
            "y_edges": y_edges,
        },
    )


@dataclass(frozen=True)
class PolylineFamily:
    """Curves still in geometric form, before rasterization."""

    polylines: tuple
    kind: str  # "connecting" | "circle_family"
    multiplicities: tuple = None
    circle_radii: tuple = None  # hyperbolic radii, for circle families

    def __post_init__(self):
        mult = self.multiplicities
        if mult is None:
            mult = tuple(1 for _ in self.polylines)
        mult = tuple(int(m) for m in mult)
        if len(mult) != len(self.polylines) or any(m < 1 for m in mult):
            raise ValueError("multiplicities must be positive, one per curve")
        object.__setattr__(self, "multiplicities", mult)

    def __len__(self) -> int:
        return len(self.polylines)


@dataclass(frozen=True, eq=False)
class CurveFamily:
    """Rasterized curves: one (n_curves, n_cells) CSR incidence matrix per metric.

    Both matrices share one sparsity pattern with sorted column indices; row g
    holds the length of curve g inside each cell it meets.
    """

    euclidean: sp.csr_matrix
    hyperbolic: sp.csr_matrix
    kind: str
    multiplicities: tuple

    def __post_init__(self):
        if not len(self.multiplicities) == self.euclidean.shape[0] == self.hyperbolic.shape[0]:
            raise ValueError("one multiplicity per curve")
        if np.any(self.euclidean.data < 0) or np.any(self.hyperbolic.data < 0):
            raise ValueError("incidence lengths must be non-negative")
        for matrix in (self.euclidean, self.hyperbolic):  # shared by with_multiplicities
            for array in (matrix.data, matrix.indices, matrix.indptr):
                array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.multiplicities)

    @property
    def curves(self) -> tuple:
        """(cells, euclid length, hyp length) of each curve, as views of the matrix rows."""
        E, H = self.euclidean, self.hyperbolic
        bounds = zip(E.indptr[:-1], E.indptr[1:])
        return tuple((E.indices[lo:hi], E.data[lo:hi], H.data[lo:hi]) for lo, hi in bounds)

    def incidence_matrix(self, metric: str) -> sp.csr_matrix:
        return self.euclidean if metric == "euclidean" else self.hyperbolic

    def with_multiplicities(self, multiplicities) -> "CurveFamily":
        return CurveFamily(self.euclidean, self.hyperbolic, self.kind,
                           tuple(int(m) for m in multiplicities))


@dataclass(frozen=True)
class DensityField:
    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if np.any(rho < 0) or not np.all(np.isfinite(rho)):
            raise ValueError("density must be non-negative and finite")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class ModulusResult:
    value: float
    extremal: DensityField
    iterations: int
    max_constraint_violation: float
    metric: str
    converged: bool = True
    dual_value: float = 0.0

    @property
    def duality_gap(self) -> float:
        return self.value - self.dual_value

    def to_json(self, path=None):
        data = {
            "value": self.value,
            "metric": self.metric,
            "iterations": self.iterations,
            "max_constraint_violation": self.max_constraint_violation,
            "converged": self.converged,
            "dual_value": self.dual_value,
            "duality_gap": self.duality_gap,
        }
        return write_json(data, path)


def density_to_csv(dom: DiscretizedDomain, density: DensityField, path) -> None:
    write_csv(path, ("re", "im", "rho"), zip(dom.centers.real, dom.centers.imag, density.rho))


def density_to_svg(dom: DiscretizedDomain, density: DensityField, path, title="extremal density") -> None:
    """Heatmap of the extremal density on a polar domain."""
    from .svgplot import polar_heatmap_svg, write_svg

    write_svg(polar_heatmap_svg(dom, density.rho, title=title), path)


# ---------------------------------------------------------------------------
# family builders


def circle_family(ring: RingSpec, n_circles: int, n_vertices: int = 2048) -> PolylineFamily:
    """Concentric circles at hyperbolic band midpoints of the ring."""
    if n_circles < 1:
        raise ValueError("need at least one circle")
    dr = (ring.r_outer - ring.r_inner) / n_circles
    radii = ring.r_inner + (np.arange(n_circles) + 0.5) * dr
    circle = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n_vertices, endpoint=False))
    polylines = tuple(Polyline(euclid_radius(float(r)) * circle, closed=True) for r in radii)
    return PolylineFamily(polylines, kind="circle_family", circle_radii=tuple(map(float, radii)))


def radial_connecting_family(ring: RingSpec, n_rays: int) -> PolylineFamily:
    """Radial geodesics joining the two boundary circles, one per sector center."""
    R1, R2 = euclid_radius(ring.r_inner), euclid_radius(ring.r_outer)
    if R1 <= 0:
        raise ValueError("connecting family needs r_inner > 0")
    theta = (np.arange(n_rays) + 0.5) * (2.0 * math.pi / n_rays)
    polylines = tuple(Polyline(np.array([R1, R2]) * np.exp(1j * t)) for t in theta)
    return PolylineFamily(polylines, kind="connecting")


def horizontal_connecting_family(window, n_curves: int) -> PolylineFamily:
    """Left-to-right segments across a rectangular window, one per row."""
    (x0, x1), (y0, y1) = window
    ys = y0 + (np.arange(n_curves) + 0.5) * (y1 - y0) / n_curves
    polylines = tuple(Polyline(np.array([x0, x1]) + 1j * y) for y in ys)
    return PolylineFamily(polylines, kind="connecting")


# ---------------------------------------------------------------------------
# rasterization


def _ranges(start: np.ndarray, stop: np.ndarray):
    """(segment, k) for every k in range(start[s], stop[s]), segment by segment."""
    count = np.maximum(stop - start, 0)
    seg = np.repeat(np.arange(len(count)), count)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count - start, count)
    return seg, k


def _crossings_polar(p: np.ndarray, d: np.ndarray, geometry):
    """Candidate (segment, t) where the segments p + t d cross ring or sector edges."""
    R_edges = geometry["R_edges"]
    dd = d.real * d.real + d.imag * d.imag
    moving = np.flatnonzero(dd != 0.0)
    p, d, dd = p[moving], d[moving], dd[moving]
    pd = p.real * d.real + p.imag * d.imag
    # radial span of the segment: perigee may undercut both endpoints
    q = p + d
    rp, rq = np.hypot(p.real, p.imag), np.hypot(q.real, q.imag)
    t_foot = -pd / dd
    foot = p + t_foot * d
    rmin = np.minimum(rp, rq)
    rmin = np.where((0.0 < t_foot) & (t_foot < 1.0), np.minimum(rmin, np.hypot(foot.real, foot.imag)), rmin)
    rmax = np.maximum(rp, rq)
    k0 = np.searchsorted(R_edges, rmin - 1e-15)
    k1 = np.searchsorted(R_edges, rmax + 1e-15)
    s, k = _ranges(np.maximum(k0 - 1, 0), np.minimum(k1 + 1, len(R_edges)))
    b = 2.0 * pd[s]
    c = np.float_power(rp[s], 2) - np.float_power(R_edges[k], 2)
    disc = b * b - 4.0 * dd[s] * c
    hit = disc > 0.0
    s, b, root, two_dd = s[hit], b[hit], np.sqrt(disc[hit]), 2.0 * dd[s[hit]]
    segs, ts = [s, s], [(-b - root) / two_dd, (-b + root) / two_dd]

    # angular sweep is monotone along a straight segment
    two_pi = 2.0 * math.pi
    step = two_pi / geometry["n_theta"]
    a0 = np.mod(np.arctan2(p.imag, p.real), two_pi)
    a1 = np.mod(np.arctan2(q.imag, q.real), two_pi)
    sweep = p.real * d.imag - p.imag * d.real  # sign of d(theta)/dt
    diff = np.mod(a1 - a0, two_pi)
    diff = np.where(sweep < 0, diff - two_pi, diff)
    j_start = np.floor(a0 / step).astype(np.int64)
    n_cross = np.where(sweep != 0.0, (np.abs(diff) / step).astype(np.int64) + 2, 0)
    s, j = _ranges(np.ones_like(n_cross), n_cross + 1)
    edge, at = np.unique(j_start[s] + np.where(sweep[s] > 0, j, 1 - j), return_inverse=True)
    angles = (edge * step).tolist()
    # libm cos/sin, once per sector edge: numpy's vectorized ones may round differently
    ca = np.array([math.cos(a) for a in angles])[at]
    sa = np.array([math.sin(a) for a in angles])[at]
    denom = d.imag[s] * ca - d.real[s] * sa
    nz = denom != 0.0
    s, ca, sa = s[nz], ca[nz], sa[nz]
    t = (p.real[s] * sa - p.imag[s] * ca) / denom[nz]
    z = p[s] + t * d[s]
    ray = z.real * ca + z.imag * sa > 0  # the ray at the edge angle, not its opposite
    segs.append(s[ray])
    ts.append(t[ray])
    return moving[np.concatenate(segs)], np.concatenate(ts)


def _crossings_cartesian(p: np.ndarray, d: np.ndarray, geometry):
    """Candidate (segment, t) where the segments p + t d cross grid lines."""
    segs, ts = [], []
    for edges, pp, dd in ((geometry["x_edges"], p.real, d.real), (geometry["y_edges"], p.imag, d.imag)):
        moving = np.flatnonzero(dd != 0.0)
        pp, dd = pp[moving], dd[moving]
        k0 = np.searchsorted(edges, np.minimum(pp, pp + dd) - 1e-15)
        k1 = np.searchsorted(edges, np.maximum(pp, pp + dd) + 1e-15)
        s, k = _ranges(np.maximum(k0 - 1, 0), np.minimum(k1 + 1, len(edges)))
        segs.append(moving[s])
        with np.errstate(over="ignore"):  # a subnormal step gives t = +-inf, outside (0, 1)
            ts.append((edges[k] - pp[s]) / dd[s])
    return np.concatenate(segs), np.concatenate(ts)


def _cells_of(z: np.ndarray, geometry) -> np.ndarray:
    """Cell index of each point, -1 outside the grid."""
    if geometry["kind"] == "polar":
        n_theta = geometry["n_theta"]
        k = np.searchsorted(geometry["R_edges"], np.hypot(z.real, z.imag)) - 1
        theta = np.mod(np.arctan2(z.imag, z.real), 2.0 * math.pi)
        j = (theta / (2.0 * math.pi / n_theta)).astype(np.int64) % n_theta
        return np.where((k >= 0) & (k < geometry["n_r"]), k * n_theta + j, -1)
    i = np.searchsorted(geometry["x_edges"], z.real) - 1
    j = np.searchsorted(geometry["y_edges"], z.imag) - 1
    inside = (i >= 0) & (i < geometry["n_x"]) & (j >= 0) & (j < geometry["n_y"])
    return np.where(inside, i * geometry["n_y"] + j, -1)


def _rasterize_polyline(poly: Polyline, geometry):
    """Sorted cells the polyline meets, with its euclidean and hyperbolic length in each.

    Segments are cut at every crossing; each piece goes to the cell of its
    midpoint, and the per-cell sums add the pieces in order along the curve.
    """
    p, q = poly.segments()
    d = q - p
    crossings = _crossings_polar if geometry["kind"] == "polar" else _crossings_cartesian
    seg, t = crossings(p, d, geometry)
    cut = (1e-12 < t) & (t < 1.0 - 1e-12)
    n = len(p)
    seg = np.concatenate((np.arange(n), np.arange(n), seg[cut]))
    t = np.concatenate((np.zeros(n), np.ones(n), t[cut]))
    order = np.lexsort((t, seg))
    seg, t = seg[order], t[order]
    # piece i runs from t[i] to t[i + 1]; an exact duplicate cut starts no piece
    start = np.flatnonzero((seg[1:] == seg[:-1]) & (t[1:] != t[:-1]))
    s, t0, t1 = seg[start], t[start], t[start + 1]
    zm = p[s] + 0.5 * (t0 + t1) * d[s]
    cell = _cells_of(zm, geometry)
    inside = cell >= 0
    le = np.hypot(d.real, d.imag)[s] * (t1 - t0)
    lh = le * 2.0 / (1.0 - np.float_power(np.hypot(zm.real, zm.imag), 2))
    cells, piece_cell = np.unique(cell[inside], return_inverse=True)
    return cells, np.bincount(piece_cell, le[inside]), np.bincount(piece_cell, lh[inside])


def rasterize_family(family: PolylineFamily, dom: DiscretizedDomain) -> CurveFamily:
    """Clip every polyline to the domain cells: one CSR incidence matrix per metric."""
    rows = [_rasterize_polyline(poly, dom.geometry) for poly in family.polylines]
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))
    cells, len_e, len_h = (np.concatenate(column) for column in zip(empty, *rows))
    indptr = np.cumsum([0] + [len(row[0]) for row in rows])
    shape = (len(rows), dom.n_cells)
    return CurveFamily(
        sp.csr_matrix((len_e, cells, indptr), shape=shape),
        sp.csr_matrix((len_h, cells, indptr), shape=shape),
        kind=family.kind,
        multiplicities=family.multiplicities,
    )


# ---------------------------------------------------------------------------
# solver


def _power_iteration_norm(op, n: int, iters: int = 40, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        return 0.0
    v /= norm
    sigma = 0.0
    for _ in range(iters):
        w = op(v)
        sigma = np.linalg.norm(w)
        if sigma <= 0.0:
            return 0.0
        v = w / sigma
    return sigma


def modulus_discrete(
    family: CurveFamily,
    dom: DiscretizedDomain,
    metric: str = "hyperbolic",
    tol: float = 1e-4,
    max_iter: int = 200_000,
    weights: np.ndarray = None,
) -> ModulusResult:
    """Solve the admissible-density quadratic program by dual ascent.

    Inner minimization is closed form (rho = L^T(m*lambda) / (2 w A)); the
    multipliers follow projected gradient steps with backtracking on the dual
    objective. Terminates when the worst constraint violation is below `tol`
    and the objective has been flat (relative change < tol) over a 50-step
    window. The reported density is rescaled to exact feasibility, so the
    value is an upper bound on the discrete optimum; `dual_value` is the
    matching lower bound.
    """
    if metric not in ("hyperbolic", "euclidean"):
        raise ValueError("metric must be 'hyperbolic' or 'euclidean'")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n_cells = dom.n_cells
    L = family.incidence_matrix(metric)
    if L.shape[1] != n_cells:
        raise ValueError(
            f"family was rasterized on {L.shape[1]} cells but the domain has {n_cells}"
        )
    if len(family) == 0:
        return ModulusResult(
            value=0.0,
            extremal=DensityField(np.zeros(n_cells)),
            iterations=0,
            max_constraint_violation=0.0,
            metric=metric,
        )

    A = dom.area_hyp if metric == "hyperbolic" else dom.area_euclid
    if weights is not None:
        A = A * np.asarray(weights, dtype=float)
        if np.any(A <= 0):
            raise ValueError("weights must keep cell costs positive")
    m = np.asarray(family.multiplicities, dtype=float)
    total_len = np.asarray(L.sum(axis=1)).ravel()
    if np.any(total_len <= 0.0):
        raise ValueError("a curve has no incidence length inside the domain")

    LT = L.T.tocsr()
    inv2A = 0.5 / A

    def rho_of(lam):
        return LT.dot(m * lam) * inv2A

    def dual_value(lam, rho):
        return float(np.sum(lam) - np.sum(A * rho * rho))

    sigma = _power_iteration_norm(lambda v: m * L.dot(LT.dot(m * v) * inv2A), len(family))
    step = 1.0 / sigma if sigma > 0 else 1.0

    lam = np.zeros(len(family))
    rho = rho_of(lam)
    g_old = dual_value(lam, rho)
    objective_history = []
    violation = 1.0
    it = 0
    converged = False
    while it < max_iter:
        it += 1
        grad = 1.0 - m * L.dot(rho)
        accepted = False
        for _ in range(40):
            lam_new = np.maximum(0.0, lam + step * grad)
            rho_new = rho_of(lam_new)
            g_new = dual_value(lam_new, rho_new)
            if g_new >= g_old - 1e-14 * max(abs(g_old), 1.0):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # step underflow: dual is stationary to machine precision
        lam, rho, g_old = lam_new, rho_new, g_new
        step *= 1.02
        primal = float(np.sum(A * rho * rho))
        objective_history.append(primal)
        violation = float(np.max(np.maximum(0.0, 1.0 - m * L.dot(rho))))
        if violation < tol and len(objective_history) > 50:
            prev = objective_history[-51]
            if abs(primal - prev) <= tol * max(primal, 1e-300):
                converged = True
                break

    slack = m * L.dot(rho)
    min_slack = float(np.min(slack))
    if 0.0 < min_slack < 1.0:
        rho = rho / min_slack
    value = float(np.sum(A * rho * rho))
    violation_final = float(np.max(np.maximum(0.0, 1.0 - m * L.dot(rho))))
    return ModulusResult(
        value=value,
        extremal=DensityField(rho),
        iterations=it,
        max_constraint_violation=violation_final,
        metric=metric,
        converged=converged,
        dual_value=g_old,
    )


def ring_modulus_exact(ring: RingSpec) -> float:
    """Modulus of the connecting family of the ring: 2 pi / log(R2/R1).

    R_i = tanh(r_i/2) are the Euclidean radii of the boundary circles; the
    logarithm of their ratio is the classical annulus quantity the discrete
    solver is validated against.
    """
    if ring.r_inner <= 0:
        raise ValueError("need r_inner > 0")
    R1, R2 = euclid_radius(ring.r_inner), euclid_radius(ring.r_outer)
    return 2.0 * math.pi / math.log(R2 / R1)


def circle_family_modulus(
    ring: RingSpec,
    Q: ScalarField,
    dom: DiscretizedDomain = None,
    n_circles: int = 64,
    n_theta: int = 256,
    tol: float = 1e-6,
):
    """Discrete weighted modulus of the family of ring circles vs its reference.

    Solves min sum rho^2 / Q * dA over densities admissible for n_circles
    sampled metric circles, and returns (value, reference) where the reference
    is the reciprocal radial integral of the matching ||Q|| profile. The two
    agree within discretization error.
    """
    if n_circles < 4:
        raise ValueError("need n_circles >= 4")
    if dom is None:
        dom = polar_grid(ring, n_r=n_circles, n_theta=n_theta)
    pf = circle_family(ring, n_circles, n_vertices=max(1024, 4 * dom.geometry.get("n_theta", n_theta)))
    fam = rasterize_family(pf, dom)
    q_cells = Q.evaluate_array(dom.centers)
    if np.any(q_cells <= 0):
        raise ValueError("Q must be positive on the ring")
    result = modulus_discrete(fam, dom, metric="hyperbolic", tol=tol, weights=1.0 / q_cells)
    profile = qnorm_profile(Q, ring, n_samples=max(128, 2 * n_circles), n_angular=512)
    reference = ring_reciprocal_integral(profile)
    return result.value, reference


def weighted_infimum(phi, q: float):
    """Minimize sum(phi * alpha^q * mass) over alpha >= 0 with sum(alpha*mass)=1.

    Returns (I, alpha) with the closed form I = (sum phi^-lam * mass)^(-1/lam),
    lam = 1/(q-1), attained at alpha proportional to phi^-lam.
    """
    if q <= 1.0:
        raise ValueError("need q > 1")
    values = np.array([float(v) for v, _ in phi])
    masses = np.array([float(m) for _, m in phi])
    if np.any(values <= 0) or np.any(masses <= 0):
        raise ValueError("phi values and masses must be positive")
    lam = 1.0 / (q - 1.0)
    pw = values ** (-lam)
    denom = float(np.sum(pw * masses))
    I = denom ** (-1.0 / lam)
    alpha = pw / denom
    return I, alpha
