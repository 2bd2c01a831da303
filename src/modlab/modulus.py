"""Discrete conformal modulus of curve families.

A domain is discretized into cells (polar rings about the chart center or a
Cartesian window), curves are rasterized into per-cell incidence lengths, and
the modulus  min sum rho_c^2 A_c  subject to  m_g * sum_c rho_c l_{cg} >= 1
for every curve g  is solved with a certificate: in closed form when no cell
is shared by two curves, by block principal pivoting on the dual otherwise,
which ends on its exact optimum in a few dense solves on a working set of
the curves, grown until no other curve is violated (see
`modulus_discrete`). Includes the closed-form ring modulus, the weighted
circle family modulus against its radial-integral reference, and the
weighted infimum with its extremal density.

Rasterization makes one pass per family. Whole consecutive curves form
blocks of at most 2^12 segments and 2^6 curves (a longer curve is a block of
its own). On a polar grid a certificate first picks out the segments that
cross no cell edge: each is one piece, in the cell of its midpoint. The other
segments are cut at all their ring and sector (or grid-line) crossings at
once and their pieces sorted by t. All pieces, merged in segment order, are
summed per (curve, cell) with one `np.unique` and `np.bincount`. A curve
never spans two blocks, so each per-cell sum adds the same pieces in the same
order as rasterizing the curve alone: the incidence arrays equal the
per-curve ones bit for bit. The certificate only admits a segment in which
the search would keep no cut, so the arrays also equal those of searching
every segment. It asks that no ring edge lie within 1e-6 of the segment's
radii, and that both ends lie in the midpoint's sector widened by
1e-12 |p x d| / rmax^2 less a rounding allowance (see `_cut_free_polar`).
It admits every segment of the shipped lower_q circles, whose vertices sit
on sector edges, so their blocks run no search. A cartesian grid has none:
on the chords of the one cartesian workload it admitted no segment. 2^12
segments (four 1024-vertex circles) keep a block's arrays in a 2 MB L2
cache, and 2^6 curves bound the pieces of a block of short curves that cross
many cells. A polar grid holds the tables the crossings index in its
`geometry`: libm cos and sin of every sector edge a segment can cross, and
the squared ring radii.

Incidences are plain numpy CSR arrays and the closed form is numpy alone,
so scipy is imported only when a family has overlapping supports: its sparse
products form the dual's matrix on the working set. `import modlab,
modlab.cli` thus loads about 230 modules instead of about 550 and takes
about 0.35 s instead of 0.61 s (median of nine fresh interpreters on a
two-core x86-64 host). The dense solves are numpy's: importing
`scipy.linalg` alone raised a process's peak resident memory from 48.7 to
57.1 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diskgeom import BOUNDARY_MARGIN, Polyline, _segment_hyp_length, euclid_radius, inside_disk
from .quadrature import RingSpec, ScalarField, qnorm_profile, ring_reciprocal_integral

__all__ = [
    "DiscretizedDomain",
    "PolylineFamily",
    "CurveFamily",
    "DensityField",
    "ModulusResult",
    "polar_grid",
    "cartesian_grid",
    "circle_family",
    "radial_connecting_family",
    "rasterize_family",
    "modulus_discrete",
    "ring_modulus_exact",
    "circle_family_modulus",
    "weighted_infimum",
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
        inside_disk(self.centers, "cell centers")

    @property
    def n_cells(self) -> int:
        return len(self.centers)


def _polar_grid(r_edges: np.ndarray, n_theta: int) -> DiscretizedDomain:
    """Polar cells between the given increasing hyperbolic band edges, n_theta
    sectors each: a ring's `band_edges`, or the image band edges that
    lower_q's `_image_ring` measures, those edges carried by a map that fixes
    0 radially.

    Cell centers sit at the hyperbolic band midpoint, the rule of
    `RingSpec.band_centers`, so circles at a ring's band centers run through
    their cells' centers to an ulp (numpy's tanh here, math's for circles).
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
    # libm cos/sin of every sector edge a segment can cross, edge indices -2 n_theta - 4
    # to 2 n_theta + 4: numpy's vectorized ones may round differently
    angles = (np.arange(-2 * n_theta - 4, 2 * n_theta + 5) * d_theta).tolist()
    return DiscretizedDomain(
        centers=centers,
        area_euclid=area_e,
        area_hyp=area_e * factor,
        geometry={
            "kind": "polar",
            "n_r": len(r_edges) - 1,
            "n_theta": n_theta,
            "R_edges": R_edges,
            "R_edges_sq": np.float_power(R_edges, 2),
            "theta_edges": theta_edges,
            "sector_cos": np.array([math.cos(a) for a in angles]),
            "sector_sin": np.array([math.sin(a) for a in angles]),
        },
    )


def polar_grid(ring: RingSpec, n_r: int, n_theta: int) -> DiscretizedDomain:
    """Polar cells over the ring, bands uniform in hyperbolic radius."""
    if n_r < 1:
        raise ValueError("need n_r >= 1")
    return _polar_grid(ring.band_edges(n_r), n_theta)


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

    The matrices are plain arrays: one shared sparsity pattern (`indptr`, and
    `indices` sorted within each row) and one data array per metric, so row g
    of `euclidean` and `hyperbolic` holds the length of curve g inside each
    cell it meets.
    """

    indptr: np.ndarray
    indices: np.ndarray
    euclidean: np.ndarray
    hyperbolic: np.ndarray
    n_cells: int
    multiplicities: tuple

    def __post_init__(self):
        if len(self.indptr) != len(self.multiplicities) + 1:
            raise ValueError("one multiplicity per curve")
        if not len(self.indices) == len(self.euclidean) == len(self.hyperbolic) == self.indptr[-1]:
            raise ValueError("indices and lengths must hold one entry per incidence")
        if np.any(self.euclidean < 0) or np.any(self.hyperbolic < 0):
            raise ValueError("incidence lengths must be non-negative")
        for array in (self.indptr, self.indices, self.euclidean, self.hyperbolic):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.multiplicities)

    @property
    def curves(self) -> tuple:
        """(cells, euclid length, hyp length) of each curve, as views of the matrix
        rows; `perfbench/spans.py` counts incidences with it."""
        bounds = zip(self.indptr[:-1], self.indptr[1:])
        return tuple((self.indices[lo:hi], self.euclidean[lo:hi], self.hyperbolic[lo:hi])
                     for lo, hi in bounds)

    def lengths(self, metric: str) -> np.ndarray:
        """The data array of one metric's incidence matrix."""
        if metric == "euclidean":
            return self.euclidean
        if metric == "hyperbolic":
            return self.hyperbolic
        raise ValueError("metric must be 'hyperbolic' or 'euclidean'")


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
    """A discrete modulus with its certificate.

    `value` is the objective of `extremal`, an exactly feasible density, so it
    bounds the discrete optimum from above; `dual_value` bounds it from below.
    `stop_reason` is "closed_form" (exact), "gap" (relative duality gap at
    most the solver tolerance; the active-set passes usually end on the exact
    optimum, with a gap of about 1e-15) or "max_iter" (not certified: the pass
    budget ran out, or a tolerance below rounding left a proximal fixed point
    short of it).
    `iterations` counts the active-set passes of all working-set rounds, 0
    for the closed form.
    """

    value: float
    extremal: DensityField
    iterations: int
    max_constraint_violation: float
    stop_reason: str
    dual_value: float

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("closed_form", "gap")

    @property
    def duality_gap(self) -> float:
        return self.value - self.dual_value


def density_to_svg(dom: DiscretizedDomain, density: DensityField, path, title="extremal density") -> None:
    """Heatmap of the extremal density on a polar domain."""
    from .svgplot import polar_heatmap_svg, write_svg

    write_svg(polar_heatmap_svg(dom, density.rho, title=title), path)


# ---------------------------------------------------------------------------
# family builders


def circle_family(radii, multiplicity: int = 1, *, n_vertices: int) -> PolylineFamily:
    """The circles |z| = R about 0 at the given Euclidean radii, each run
    `multiplicity` times."""
    if len(radii) < 1:
        raise ValueError("need at least one circle")
    circle = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n_vertices, endpoint=False))
    polylines = tuple(Polyline(R * circle, closed=True) for R in radii)
    return PolylineFamily(polylines, kind="circle_family", multiplicities=(multiplicity,) * len(polylines))


def radial_connecting_family(ring: RingSpec, n_rays: int) -> PolylineFamily:
    """Radial geodesics joining the two boundary circles, one per sector center."""
    R1, R2 = euclid_radius(ring.r_inner), euclid_radius(ring.r_outer)
    if R1 <= 0:
        raise ValueError("connecting family needs r_inner > 0")
    theta = (np.arange(n_rays) + 0.5) * (2.0 * math.pi / n_rays)
    polylines = tuple(Polyline(np.array([R1, R2]) * np.exp(1j * t)) for t in theta)
    return PolylineFamily(polylines, kind="connecting")


# ---------------------------------------------------------------------------
# rasterization

# Most segments and curves cut in one block. 2^12 segments are four 1024-vertex
# circles, whose arrays stay in L2; 2^6 curves bound the pieces of a block of
# short curves that cross many cells, such as radial rays.
_BLOCK_SEGMENTS = 2**12
_BLOCK_CURVES = 2**6


def _ranges(start: np.ndarray, stop: np.ndarray):
    """(segment, k) for every k in range(start[s], stop[s]), segment by segment."""
    count = np.maximum(stop - start, 0)
    seg = np.repeat(np.arange(len(count)), count)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count - start, count)
    return seg, k


def _in_segment(seg: np.ndarray, t: np.ndarray):
    """The (segment, t) pairs with t strictly inside (0, 1): the cuts a segment needs."""
    keep = (1e-12 < t) & (t < 1.0 - 1e-12)
    return seg[keep], t[keep]


def _ring_cuts(p, d, dd, pd, rp, rmin, rmax, geometry):
    """(segment, t) in (0, 1) where the segments p + t d cross ring edges, both roots of
    |p + t d|^2 = R^2; dd = |d|^2, pd = <p, d>, rp = |p|, and the segment's radii span
    [rmin, rmax]."""
    R_edges = geometry["R_edges"]
    k0 = np.searchsorted(R_edges, rmin - 1e-15)
    k1 = np.searchsorted(R_edges, rmax + 1e-15)
    s, k = _ranges(np.maximum(k0 - 1, 0), np.minimum(k1 + 1, len(R_edges)))
    b = 2.0 * pd[s]
    c = np.float_power(rp, 2)[s] - geometry["R_edges_sq"][k]
    disc = b * b - 4.0 * dd[s] * c
    hit = np.flatnonzero(disc > 0.0)
    s, b, root = s[hit], b[hit], np.sqrt(disc[hit])
    two_dd = 2.0 * dd[s]
    return _in_segment(s, (-b - root) / two_dd), _in_segment(s, (-b + root) / two_dd)


def _sector_cuts(p, d, q, dd, pd, sweep, geometry):
    """(segment, t) in (0, 1) where the segments p + t d (ending at q) cross sector
    edges, and the center of a segment through it; sweep = p x d."""
    # angular sweep is monotone along a straight segment
    two_pi = 2.0 * math.pi
    step = two_pi / geometry["n_theta"]
    a0 = np.mod(np.arctan2(p.imag, p.real), two_pi)
    a1 = np.mod(np.arctan2(q.imag, q.real), two_pi)
    diff = np.mod(a1 - a0, two_pi)
    # a straight segment sweeps less than pi, so the smaller of the two arcs is its
    # sweep, also where a nearly radial segment's end angles round the other way
    swept = np.minimum(diff, two_pi - diff)
    n_cross = np.where(sweep != 0.0, (swept / step).astype(np.int64) + 2, 0)
    s, j = _ranges(np.ones_like(n_cross), n_cross + 1)
    cos_table, sin_table = geometry["sector_cos"], geometry["sector_sin"]
    # table row of each segment's start edge; the tables start at edge -len // 2
    j_start = np.floor(a0 / step).astype(np.int64) + len(cos_table) // 2
    at = j_start[s] + np.where(sweep[s] > 0, j, 1 - j)
    ca, sa = cos_table[at], sin_table[at]
    x, y, dx, dy = p.real[s], p.imag[s], d.real[s], d.imag[s]
    # an edge parallel to its segment gives t = inf or nan, which no cut keeps
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (x * sa - y * ca) / (dy * ca - dx * sa)
        ray = (x + t * dx) * ca + (y + t * dy) * sa > 0  # the ray at the edge angle, not its opposite
    # a segment through the center sweeps no angle: cut it at the center
    through = np.flatnonzero(sweep == 0.0)
    return _in_segment(s[ray], t[ray]), _in_segment(through, -pd[through] / dd[through])


# Margins of the polar certificate (see _cut_free_polar): _RING_MARGIN in Euclidean
# radius; _ROUNDING, 32 unit roundoffs in radians, for the rounding of the
# certificate's and the search's sector tests.
_RING_MARGIN = 1e-6
_ROUNDING = 32.0 * 2.0**-53


def _cut_free_polar(p, d, q, dd, sweep, rp, rq, rmin, rmax, geometry):
    """(free, cell): which segments p + t d (ending at q) the crossing search would cut
    nowhere in (1e-12, 1 - 1e-12), and the cell of each such segment's midpoint.

    Radial: no ring edge lies within _RING_MARGIN of [rmin, rmax]. The search solves
    |p + t d|^2 = R^2 with c = rp^2 - R^2, b^2 and 4 dd c each rounded by a few
    ulps, and b^2 <= 4 dd rp^2 (Cauchy-Schwarz). So at a root it keeps, |p + t d|^2
    is within about 32 ulps of R^2 (radii are below 1), also where a near-tangent
    chord's rounded discriminant turns positive with no real crossing. Such an R
    lies within sqrt(32 * 2^-53) < 1e-7 of [rmin, rmax], also where rmin is near 0;
    1e-6 covers that and the few-ulp errors of rmin and rmax.

    Angular: sweep = p x d is nonzero, and both ends lie in the midpoint's sector
    widened by m on each side, tested as |z| sin(angle past an edge) >= -m |z| with
    the edge's own cos and sin from the tables the search uses. A sector is a convex
    cone, so the whole segment stays in it. Where an end lies delta past an edge,
    the crossing is at t <= delta rmax^2 / |sweep| from that end, since the angle
    moves at |sweep| / |p + t d|^2 along the segment. So m = 1e-12 |sweep| / rmax^2
    keeps every real cut in (1e-12, 1 - 1e-12) out of the certificate, whatever the
    segment's length: an absolute margin would drop the real cut at t ~ 1e-9 of an
    end 1e-12 rad past an edge on a segment sweeping 1e-3 rad. From m comes off
    _ROUNDING (1 + |d| / min(rp, rq)): the rounding of both tests and of q = p + d,
    the edge tables' 2 pi against n_theta times the sector width, and the search's
    t, whose error grows as an end nears the center. On the lower_q circles, whose
    every fourth vertex sits on a sector edge, m is about 23 ulps and those vertices
    lie within 3 ulps of their edge.

    The cell is the one `_cells_of` gives the midpoint p + d / 2: its sector is
    computed the same way, and its band is the band of [rmin, rmax], which holds
    the midpoint's radius and no edge.
    """
    R_edges, n_theta = geometry["R_edges"], geometry["n_theta"]
    below = np.searchsorted(R_edges, rmin - _RING_MARGIN)
    ring_free = below == np.searchsorted(R_edges, rmax + _RING_MARGIN, side="right")
    sector = _sectors(p + 0.5 * d, n_theta)
    lower = sector + len(geometry["sector_cos"]) // 2  # table row of the sector's lower edge
    cl, sl = geometry["sector_cos"][lower], geometry["sector_sin"][lower]
    cu, su = geometry["sector_cos"][lower + 1], geometry["sector_sin"][lower + 1]
    # an end at (or a subnormal distance from) the center gives m = -inf, which
    # certifies nothing
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = 1e-12 * np.abs(sweep) / (rmax * rmax) - _ROUNDING * (1.0 + np.sqrt(dd) / np.minimum(rp, rq))
        mp, mq = -m * rp, -m * rq
        free = (ring_free & (sweep != 0.0)
                & (p.imag * cl - p.real * sl >= mp) & (q.imag * cl - q.real * sl >= mq)
                & (p.real * su - p.imag * cu >= mp) & (q.real * su - q.imag * cu >= mq))
    inside = (1 <= below) & (below < len(R_edges))
    return free, np.where(inside, (below - 1) * n_theta + sector, -1)


def _crossings_polar(p: np.ndarray, d: np.ndarray, r: np.ndarray, geometry):
    """(whole, cell, seg, t): which segments p + t d (r = |p|) are certified to cross
    no ring or sector edge, the cell of each of those, and the (segment, t) in (0, 1)
    where the other segments cross ring or sector edges."""
    whole = np.zeros(len(p), dtype=bool)
    dd = d.real * d.real + d.imag * d.imag
    moving = np.flatnonzero(dd != 0.0)
    p, d, dd, rp = p[moving], d[moving], dd[moving], r[moving]
    q = p + d
    pd = p.real * d.real + p.imag * d.imag
    sweep = p.real * d.imag - p.imag * d.real  # sign of d(theta)/dt
    # radial span of the segment: perigee may undercut both endpoints
    rq = np.hypot(q.real, q.imag)
    t_foot = -pd / dd
    foot = np.hypot(p.real + t_foot * d.real, p.imag + t_foot * d.imag)
    rmin = np.minimum(rp, rq)
    rmin = np.where((0.0 < t_foot) & (t_foot < 1.0), np.minimum(rmin, foot), rmin)
    rmax = np.maximum(rp, rq)
    free, cell = _cut_free_polar(p, d, q, dd, sweep, rp, rq, rmin, rmax, geometry)
    whole[moving[free]] = True
    rest = np.flatnonzero(~free)
    if len(rest) == 0:  # every lower_q block: nothing to search
        return whole, cell, np.zeros(0, dtype=np.int64), np.zeros(0)
    p, d, q, dd, pd, sweep, rp, rmin, rmax = (a[rest] for a in (p, d, q, dd, pd, sweep, rp, rmin, rmax))
    cuts = (_ring_cuts(p, d, dd, pd, rp, rmin, rmax, geometry)
            + _sector_cuts(p, d, q, dd, pd, sweep, geometry))
    segs, ts = zip(*cuts)
    return whole, cell[free], moving[rest][np.concatenate(segs)], np.concatenate(ts)


def _crossings_cartesian(p: np.ndarray, d: np.ndarray, r: np.ndarray, geometry):
    """(whole, cell, seg, t) in the shape `_crossings_polar` returns: no segment is
    certified, and (segment, t) in (0, 1) are where the segments p + t d cross grid
    lines; grid lines need no r = |p|."""
    segs, ts = [], []
    for edges, pp, dd in ((geometry["x_edges"], p.real, d.real), (geometry["y_edges"], p.imag, d.imag)):
        moving = np.flatnonzero(dd != 0.0)
        pp, dd = pp[moving], dd[moving]
        k0 = np.searchsorted(edges, np.minimum(pp, pp + dd) - 1e-15)
        k1 = np.searchsorted(edges, np.maximum(pp, pp + dd) + 1e-15)
        s, k = _ranges(np.maximum(k0 - 1, 0), np.minimum(k1 + 1, len(edges)))
        with np.errstate(over="ignore"):  # a subnormal step gives t = +-inf, outside (0, 1)
            s, t = _in_segment(moving[s], (edges[k] - pp[s]) / dd[s])
        segs.append(s)
        ts.append(t)
    return np.zeros(len(p), dtype=bool), np.zeros(0, dtype=np.int64), np.concatenate(segs), np.concatenate(ts)


def _bins(edges: np.ndarray, x: np.ndarray):
    """Bin of each value among the edges, and whether it lies in [edges[0], edges[-1]].

    Both end edges belong to their end bins; an inner edge to the bin below it.
    """
    return np.searchsorted(edges[1:-1], x), (edges[0] <= x) & (x <= edges[-1])


def _sectors(z: np.ndarray, n_theta: int) -> np.ndarray:
    """Sector index of each point among n_theta equal sectors from angle 0."""
    angle = np.arctan2(z.imag, z.real)
    # np.mod(angle, 2 pi) bit for bit, also at -0.0, in a seventh of its time
    theta = angle + (angle < 0.0) * (2.0 * math.pi)
    return (theta / (2.0 * math.pi / n_theta)).astype(np.int64) % n_theta


def _cells_of(z: np.ndarray, geometry) -> np.ndarray:
    """Cell index of each point, -1 outside the grid."""
    if geometry["kind"] == "polar":
        n_theta = geometry["n_theta"]
        k, inside = _bins(geometry["R_edges"], np.hypot(z.real, z.imag))
        return np.where(inside, k * n_theta + _sectors(z, n_theta), -1)
    i, inside_x = _bins(geometry["x_edges"], z.real)
    j, inside_y = _bins(geometry["y_edges"], z.imag)
    return np.where(inside_x & inside_y, i * geometry["n_y"] + j, -1)


def _blocks(polylines):
    """(first curve, its segments' (start, end) points) of runs of whole consecutive
    curves: at most _BLOCK_CURVES curves and _BLOCK_SEGMENTS segments each, unless
    one curve has more segments."""
    ends, total, first = [], 0, 0
    for g, poly in enumerate(polylines):
        p, q = poly.segments()
        if total and (total + len(p) > _BLOCK_SEGMENTS or len(ends) == _BLOCK_CURVES):
            yield first, ends
            ends, total, first = [], 0, g
        ends.append((p, q))
        total += len(p)
    if ends:
        yield first, ends


def rasterize_family(family: PolylineFamily, dom: DiscretizedDomain) -> CurveFamily:
    """Clip every polyline to the domain cells: one CSR incidence matrix per metric.

    Segments are cut at every crossing; each piece goes to the cell of its
    midpoint, and the per-cell sums add the pieces in order along the curve.
    A segment of a polar grid certified to cross no cell edge
    (`_cut_free_polar`) skips the crossing search as one piece, t from 0 to 1;
    the certificate admits no segment the search would cut, so the arrays are
    those of searching every segment. The segments of whole curves are cut
    and summed in blocks (see the module docstring).
    """
    geometry, n_cells = dom.geometry, dom.n_cells
    crossings = _crossings_polar if geometry["kind"] == "polar" else _crossings_cartesian
    keys, len_e, len_h = [np.zeros(0, dtype=np.int64)], [np.zeros(0)], [np.zeros(0)]
    for first, ends in _blocks(family.polylines):
        n_segments = [len(p) for p, _ in ends]
        p = np.concatenate([p for p, _ in ends])
        d = np.concatenate([q for _, q in ends]) - p
        r, speed = np.hypot(p.real, p.imag), np.hypot(d.real, d.imag)
        seg_curve = np.repeat(np.arange(first, first + len(ends)), n_segments)
        whole, whole_cell, seg, t = crossings(p, d, r, geometry)
        whole, rest = np.flatnonzero(whole), np.flatnonzero(~whole)
        seg = np.concatenate((rest, rest, seg))
        t = np.concatenate((np.zeros(len(rest)), np.ones(len(rest)), t))
        order = np.lexsort((t, seg))
        seg, t = seg[order], t[order]
        # piece i runs from t[i] to t[i + 1]; an exact duplicate cut starts no piece
        start = np.flatnonzero((seg[1:] == seg[:-1]) & (t[1:] != t[:-1]))
        s, t0, t1 = seg[start], t[start], t[start + 1]
        cell = _cells_of(p[s] + 0.5 * (t0 + t1) * d[s], geometry)
        # a certified segment is one piece, t from 0 to 1, in the cell the certificate
        # found; a stable sort by segment merges it in order along the curve
        s = np.concatenate((whole, s))
        order = np.argsort(s, kind="stable")
        s, cell = s[order], np.concatenate((whole_cell, cell))[order]
        t0 = np.concatenate((np.zeros(len(whole)), t0))[order]
        t1 = np.concatenate((np.ones(len(whole)), t1))[order]
        inside = cell >= 0
        s, t0, t1 = s[inside], t0[inside], t1[inside]
        # one sum per (curve, cell), adding the pieces in order along the curve
        key, at = np.unique(seg_curve[s] * n_cells + cell[inside], return_inverse=True)
        keys.append(key)
        len_e.append(np.bincount(at, speed[s] * (t1 - t0)))
        len_h.append(np.bincount(at, _segment_hyp_length(p[s], d[s], r[s], speed[s], t0, t1)))
    # blocks hold whole curves in order, so the keys are sorted curve by curve
    curve, cells = np.divmod(np.concatenate(keys), n_cells)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(curve, minlength=len(family)))))
    # 32-bit indices where they fit, as scipy.sparse picks them: its view then copies nothing
    fits = max(len(cells), len(family), n_cells) <= np.iinfo(np.int32).max
    index_type = np.int32 if fits else np.int64
    return CurveFamily(
        indptr.astype(index_type),
        cells.astype(index_type),
        np.concatenate(len_e),  # float, also where a block's bincount of no pieces is int
        np.concatenate(len_h),
        n_cells=n_cells,
        multiplicities=family.multiplicities,
    )


# ---------------------------------------------------------------------------
# solver

_MAX_PASSES = 1000  # active-set passes before an uncertified stop
_BACKUP_AFTER = 3  # passes without fewer infeasible indices before Murty's rule
_START_FRACTION = 1 / 4  # of the curves: the first working set
_GROW_FRACTION = 1 / 8  # of the curves: most added to it in one round
_PROXIMAL = 1e-10  # the proximal weight mu, relative to the largest diagonal entry of H


def _bounds(lam: np.ndarray, slack: np.ndarray):
    """(dual, primal, min_slack) of a lam >= 0 with slack = m L rho(lam): the dual
    value, and the energy of rho(lam) rescaled by its smallest slack (inf when
    that slack is not positive)."""
    energy = 0.5 * float(lam @ slack)  # sum(A rho^2)
    min_slack = float(np.min(slack))
    primal = energy / min_slack**2 if min_slack > 0.0 else math.inf
    return float(np.sum(lam)) - energy, primal, min_slack


def _extended(H: np.ndarray, B_W) -> np.ndarray:
    """B_W B_W^T from its leading block H, forming only the columns of the rows of the
    sparse B_W beyond len(H)."""
    H_new = (B_W @ B_W[len(H):].T).toarray()
    return np.block([[H, H_new[:len(H)]], [H_new.T]])


def _face_solve(H_FF: np.ndarray, mu: float, c_F: np.ndarray):
    """lam_F with (H_FF + mu I) lam_F = 1_F + mu c_F by LU, None where the LU meets a
    zero pivot or the result is not finite (H_FF singular and mu = 0)."""
    ones = np.ones(len(H_FF))
    if mu:
        H_FF, ones = H_FF + mu * np.eye(len(H_FF)), ones + mu * c_F
    try:
        lam = np.linalg.solve(H_FF, ones)
    except np.linalg.LinAlgError:
        return None
    return lam if np.all(np.isfinite(lam)) else None


def modulus_discrete(
    family: CurveFamily,
    dom: DiscretizedDomain,
    metric: str = "hyperbolic",
    tol: float = 1e-4,
    weights: np.ndarray = None,
) -> ModulusResult:
    """Certified solve of  min sum_c A_c rho_c^2  s.t.  m_g (L rho)_g >= 1.

    When no cell is met by two curves the program splits per curve and the
    optimum is closed form: with S_g = sum_c l_gc^2 / A_c, the density is
    rho_c = l_gc / (A_c m_g S_g) and the value sum_g 1 / (m_g^2 S_g)
    (stop_reason "closed_form", gap 0, no iterations).

    Otherwise block principal pivoting (Júdice & Pires 1994; Kim & Park 2011)
    solves the dual  min 1/2 lam^T H lam - 1^T lam  over lam >= 0, with
    H = B B^T and B = m L diag(1/sqrt(2A)), in rounds on a working set W of
    curves: the optimum is carried by a small subfamily (Albin &
    Poggi-Corradini 2016), so H is formed, as a dense array, only on W.
    W starts as the `_START_FRACTION` of the curves shortest under rho_1,
    the sum of every curve's closed-form density above. The optimum on W is
    lam_F = H_FF^-1 1_F on the right face F of W and 0 off it. Each pass
    solves that system on the current face, which starts as all of W, and
    finds the infeasible indices of W: lam_g < 0 on F, (H lam)_g < 1 off it.
    All of them change sides while their count falls; after `_BACKUP_AFTER`
    passes without a fall only the last one in W does (Murty's rule). A pass
    that leaves none is the optimum on W and ends the round: the curves
    outside W with slack below 1 join W and its face, most violated first and
    at most `_GROW_FRACTION` of the curves per round, and only their columns
    of H are formed. In the worst case W grows to every curve.

    H is singular where a row repeats (up to its multiplicity), one curve is
    the sum of others, or there are more curves than cells. A proximal term
    (Rockafellar 1976) makes every face definite: the passes minimize the dual
    plus mu/2 |lam - c|^2, so a face solves (H_FF + mu I) lam_F = 1_F + mu c_F
    and an index off it is infeasible where (H lam - mu c)_g < 1. mu is 0, and
    the passes are those above, until the first singular face (solved again
    in a pass of its own), Murty step, or optimum on W that no curve outside
    W violates and that misses `tol`. From then on mu is `_PROXIMAL` times
    the largest diagonal entry of H: Murty's rule ends in finitely many
    passes on the definite faces (Júdice & Pires 1994), and each such optimum
    on W moves the center c, 0 before, to lam: a proximal step, and the steps
    converge to an optimum of the dual (Rockafellar 1976).

    Each pass is certified over every curve by z = max(lam, 0), 0 off W: its
    dual value sum(z) - sum(A rho^2), rho = L^T(m z) / (2A), bounds the
    optimum from below, and rho rescaled by its smallest slack m L rho =
    B (B^T z) (exactly feasible) from above. The solve stops once their
    relative gap is at most `tol` ("gap"), and uncertified ("max_iter")
    after `_MAX_PASSES` passes or at a proximal step that leaves lam
    unchanged, bit for bit, with the gap still above `tol` (a `tol` below
    rounding); where it stops before rho meets every curve, the density
    reported is rho_1. `iterations` counts the passes of all rounds. Weak
    duality holds for every z >= 0 and its computed slack, so a dual above
    the primal is rounding in their sums (at the exact optimum they agree to
    about 1e-16, and on 3 to 8 chords the dual came out above in 43 of 800
    solves): the dual is lowered to the primal.
    """
    lengths = family.lengths(metric)  # ValueError for an unknown metric
    if not 0.0 < tol < 1.0:  # a relative gap
        raise ValueError("tol must lie in (0, 1)")
    n_cells = dom.n_cells
    if family.n_cells != n_cells:
        raise ValueError(
            f"family was rasterized on {family.n_cells} cells but the domain has {n_cells}"
        )
    A = dom.area_hyp if metric == "hyperbolic" else dom.area_euclid
    if weights is not None:
        A = A * np.asarray(weights, dtype=float)
        if not np.all(np.isfinite(A) & (A > 0)):  # NaN fails A > 0 too
            raise ValueError("weights must be finite and keep cell costs positive")
    m = np.asarray(family.multiplicities, dtype=float)
    n_curves = len(family)
    cells = family.indices
    curve = np.repeat(np.arange(n_curves), np.diff(family.indptr))  # row of each incidence
    row_sums = np.bincount(curve, lengths, minlength=n_curves)
    if np.any(row_sums <= 0.0):
        raise ValueError("a curve has no incidence length inside the domain")

    # rho_1, the sum of every curve's closed-form density, meets each curve with slack
    # at least 1: the optimum where no two curves share a cell. bincount adds in
    # storage order from 0.0, as scipy's CSR mat-vec does.
    S = np.bincount(curve, lengths**2 * (1.0 / A)[cells], minlength=n_curves)
    rho_1 = np.bincount(cells, lengths * (1.0 / (m * S))[curve], minlength=n_cells) / A
    slack = m * np.bincount(curve, lengths * rho_1[cells], minlength=n_curves)
    if np.all(np.bincount(cells, minlength=n_cells) <= 1):  # disjoint supports
        value = float(np.sum(1.0 / (m * m * S)))
        violation = float(np.max(1.0 - slack, initial=0.0))
        return ModulusResult(value, DensityField(rho_1), 0, violation, "closed_form", value)

    import scipy.sparse as sp  # the first scipy import

    B = sp.csr_matrix((lengths * m[curve] / np.sqrt(2.0 * A)[cells], cells, family.indptr),
                      shape=(n_curves, n_cells))
    BT = B.T
    outside = np.ones(n_curves, dtype=bool)
    # the curves shortest under rho_1 are the first working set
    new = np.argsort(slack, kind="stable")[:math.ceil(_START_FRACTION * n_curves)]
    W, H, on_face, c = new[:0], np.zeros((0, 0)), np.zeros(0, dtype=bool), np.zeros(0)
    passes, stop_reason, dual, min_slack = 0, "max_iter", 0.0, 0.0
    # the proximal weight, 0 until the passes need it; H_gg = m_g^2 S_g / 2
    mu, mu_on = 0.0, _PROXIMAL * 0.5 * float(np.max(m * m * S))
    while passes < _MAX_PASSES:
        if len(new):  # a round starts: the new curves join W and its face
            W = np.concatenate((W, new))
            H = _extended(H, B[W])
            outside[new] = False
            on_face = np.concatenate((on_face, np.ones(len(new), dtype=bool)))
            c = np.concatenate((c, np.zeros(len(new))))
            fewest, backup, new = len(W) + 1, _BACKUP_AFTER, new[:0]
        face = np.flatnonzero(on_face)
        # the full face is H itself: the solve copies it anyway
        lam_F = _face_solve(H if len(face) == len(W) else H[np.ix_(face, face)], mu, c[face])
        passes += 1
        if lam_F is None:  # a singular face: solved again with the proximal term
            mu = mu_on
            continue
        lam = np.zeros(len(W))
        lam[face] = lam_F
        z = np.zeros(n_curves)
        z[W] = np.maximum(lam, 0.0)
        slack = B @ (BT @ z)  # m L rho(z) on every curve
        dual, primal, min_slack = _bounds(z, slack)
        if dual >= (1.0 - tol) * primal:  # relative gap at most tol; never when primal is inf
            stop_reason = "gap"
            break
        infeasible = np.flatnonzero(np.where(on_face, lam < 0.0, H @ lam - mu * c < 1.0))
        if len(infeasible) == 0:  # the optimum on W: the curves it leaves short join next
            new = np.flatnonzero(outside & (slack < 1.0))
            if len(new):
                new = new[np.argsort(slack[new], kind="stable")[:math.ceil(_GROW_FRACTION * n_curves)]]
            elif mu and np.array_equal(lam, c):  # a proximal fixed point that misses tol
                break
            else:  # a proximal step: the center moves to lam
                mu = mu_on
                c = lam
            continue
        if len(infeasible) < fewest:
            fewest, backup = len(infeasible), _BACKUP_AFTER
        elif backup > 0:
            backup -= 1
        else:
            infeasible = infeasible[-1:]  # Murty's rule: the last index of W alone
            mu = mu_on
        on_face[infeasible] = ~on_face[infeasible]

    if min_slack > 0.0:
        rho = np.bincount(cells, lengths * (m * z)[curve], minlength=n_cells) * (0.5 / A) / min_slack
    else:  # stopped before rho(z) met every curve
        rho, primal = rho_1, float(A @ rho_1**2)
    violation = float(np.max(1.0 - m * np.bincount(curve, lengths * rho[cells], minlength=n_curves), initial=0.0))
    return ModulusResult(primal, DensityField(rho), passes, violation, stop_reason, min(dual, primal))


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


def circle_family_modulus(ring: RingSpec, Q: ScalarField, n_circles: int = 64, n_theta: int = 256):
    """Discrete weighted modulus of the family of ring circles vs its reference.

    Solves min sum rho^2 / Q * dA, to a relative duality gap of 1e-6, over
    densities admissible for n_circles sampled metric circles on the
    n_circles x n_theta polar grid of the ring, and returns (value, reference)
    where the reference is the reciprocal radial integral of the matching
    ||Q|| profile. The two agree within discretization error.
    """
    if n_circles < 4:
        raise ValueError("need n_circles >= 4")
    dom = polar_grid(ring, n_r=n_circles, n_theta=n_theta)
    pf = circle_family([euclid_radius(r) for r in ring.band_centers(n_circles)],
                       n_vertices=4 * n_theta)
    fam = rasterize_family(pf, dom)
    q_cells = Q.evaluate_array(dom.centers)
    if np.any(q_cells <= 0):
        raise ValueError("Q must be positive on the ring")
    result = modulus_discrete(fam, dom, metric="hyperbolic", tol=1e-6, weights=1.0 / q_cells)
    profile = qnorm_profile(Q, ring, n_samples=32, n_angular=512)
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
