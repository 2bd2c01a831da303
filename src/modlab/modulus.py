"""Discrete conformal modulus of curve families.

A domain is discretized into cells (polar rings about the chart center or a
Cartesian window), curves become per-cell incidence lengths, and
the modulus  min sum rho_c^2 A_c  subject to  m_g * sum_c rho_c l_{cg} >= 1
for every curve g  is solved with a certificate: in closed form when no cell
is shared by two curves, by block principal pivoting on the dual otherwise,
which ends on its exact optimum in a few dense solves on a working set of
the curves, grown until no other curve is violated (see
`modulus_discrete`). Includes the closed-form ring modulus, the weighted
circle family modulus against its radial-integral reference, and the
weighted infimum with its extremal density.

Every polar family modlab builds lies along grid lines, so a polar grid builds
its own: `grid_circles` puts one circle in each band and `grid_rays` one ray at
each sector's centre angle, and each returns its incidence pattern and lengths
by construction, with no search. A circle is a 4 n_theta-gon whose every fourth
vertex sits on a sector edge, so circle j meets exactly the n_theta cells of
band j, four equal chords in each; ray k meets the n_r cells of sector k, and
its length in a band is the band's width. `rasterize_family` clips open
polylines to a cartesian grid: runs of at most 2^6 whole consecutive curves
form blocks, each block's segments are cut at all their grid-line crossings
at once, and the pieces, sorted by segment and t, are summed per (curve,
cell) with one `np.unique` and `np.bincount`. A curve never spans two
blocks, so each per-cell sum adds the same pieces in the same order as
rasterizing the curve alone: the incidence arrays equal the per-curve ones
bit for bit.

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

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .diskgeom import BOUNDARY_MARGIN, _segment_hyp_length, euclid_radius, inside_disk
from .quadrature import RingSpec, ScalarField, qnorm_profile, ring_reciprocal_integral

__all__ = [
    "DiscretizedDomain",
    "PolylineFamily",
    "CurveFamily",
    "DensityField",
    "ModulusResult",
    "polar_grid",
    "cartesian_grid",
    "grid_circles",
    "grid_rays",
    "rasterize_family",
    "modulus_discrete",
    "ring_modulus_exact",
    "circle_family_modulus",
    "weighted_infimum",
]


@dataclass(frozen=True)
class DiscretizedDomain:
    """Cells with centers, Euclidean areas and a grid descriptor; `area_hyp`,
    the hyperbolic areas, is derived: each Euclidean area times the conformal
    factor 4/(1-|c|^2)^2 at its cell's center c."""

    centers: np.ndarray  # complex cell centers
    area_euclid: np.ndarray
    geometry: dict
    area_hyp: np.ndarray = field(init=False)

    def __post_init__(self):
        if np.any(self.area_euclid <= 0):
            raise ValueError("cell areas must be positive")
        inside_disk(self.centers, "cell centers")  # so the factor is finite and positive
        factor = 4.0 / (1.0 - np.abs(self.centers) ** 2) ** 2
        object.__setattr__(self, "area_hyp", self.area_euclid * factor)

    @property
    def n_cells(self) -> int:
        return len(self.centers)


def polar_grid(r_edges, n_theta: int) -> DiscretizedDomain:
    """Polar cells between increasing hyperbolic band edges about 0, n_theta
    sectors each: a ring's `RingSpec.band_edges(n_r)`, or the image band edges
    that lower_q's `_image_ring` measures, those edges carried by a map that
    fixes 0 radially.

    Cell centers sit at the hyperbolic band midpoint, the rule of
    `RingSpec.band_centers`, so circles at a ring's band centers run through
    their cells' centers to an ulp (numpy's tanh here, math's for circles).
    ValueError for fewer than two edges, edges that do not rise strictly from
    r >= 0, or n_theta < 4.
    """
    r_edges = np.asarray(r_edges, dtype=float)
    if len(r_edges) < 2:
        raise ValueError("need at least two band edges")
    if not (r_edges[0] >= 0.0 and np.all(np.diff(r_edges) > 0.0)):  # NaN fails too
        raise ValueError("band edges must rise strictly from r >= 0")
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
    return DiscretizedDomain(
        centers=centers,
        area_euclid=np.repeat(ring_areas, n_theta),
        geometry={"kind": "polar", "R_edges": R_edges, "theta_edges": theta_edges},
    )


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
    return DiscretizedDomain(
        centers=centers,
        area_euclid=np.full(centers.shape, area),
        geometry={"kind": "cartesian", "x_edges": x_edges, "y_edges": y_edges},
    )


@dataclass(frozen=True)
class PolylineFamily:
    """Curves still in geometric form, before rasterization."""

    polylines: tuple
    kind: str  # "connecting"
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


# ---------------------------------------------------------------------------
# family builders

_CHORDS_PER_CELL = 4  # chords of a grid circle in each cell it meets


def _curve_family(indptr, indices, euclidean, hyperbolic, n_cells: int, multiplicities: tuple) -> CurveFamily:
    """A CurveFamily with 32-bit indices where they fit, as scipy.sparse picks them:
    its view then copies nothing."""
    fits = max(len(indices), len(multiplicities), n_cells) <= np.iinfo(np.int32).max
    index_type = np.int32 if fits else np.int64
    return CurveFamily(indptr.astype(index_type), indices.astype(index_type), euclidean, hyperbolic,
                       n_cells=n_cells, multiplicities=multiplicities)


def _polar_geometry(dom: DiscretizedDomain):
    """(R_edges, n_r, n_theta) of a polar grid; ValueError for any other."""
    geometry = dom.geometry
    if geometry["kind"] != "polar":
        raise ValueError("grid-line families need a polar grid")
    R_edges = geometry["R_edges"]
    return R_edges, len(R_edges) - 1, len(geometry["theta_edges"]) - 1


def grid_circles(dom: DiscretizedDomain, radii, multiplicity: int = 1) -> CurveFamily:
    """The circles |z| = R about 0 at the given Euclidean radii, one in each band of
    the polar grid dom from the inside out, each run `multiplicity` times.

    Each circle is the 4 n_theta-gon with a vertex at angle 0, so every fourth
    vertex sits on a sector edge: circle j meets exactly the n_theta cells of
    band j, four chords in each. The chords of one circle are equal, so one
    closed-form length, of the chord from the vertex at angle 0 to the next,
    gives all its incidences. ValueError unless there is one radius per band
    and each polygon, from its chords' midpoints out to its vertices, lies
    strictly inside its band.
    """
    R_edges, n_r, n_theta = _polar_geometry(dom)
    R = np.asarray(radii, dtype=float)
    if R.shape != (n_r,):
        raise ValueError(f"need one circle radius per band, {n_r}, not {R.size}")
    if multiplicity < 1:
        raise ValueError("multiplicity must be positive")
    p = R.astype(complex)
    d = R * (cmath.exp(2j * math.pi / (_CHORDS_PER_CELL * n_theta)) - 1.0)  # to the next vertex
    inside = (R_edges[:-1] < np.abs(p + 0.5 * d)) & (R < R_edges[1:])  # False at NaN
    if not np.all(inside):
        j = int(np.argmin(inside))
        raise ValueError(f"circle {j} of radius {R[j]!r} does not lie strictly inside band {j}, "
                         f"({R_edges[j]!r}, {R_edges[j + 1]!r})")
    speed = np.hypot(d.real, d.imag)
    chord_h = _segment_hyp_length(p, d, R, speed, 0.0, 1.0)
    n_cells = n_r * n_theta
    return _curve_family(np.arange(0, n_cells + 1, n_theta), np.arange(n_cells),
                         np.repeat(_CHORDS_PER_CELL * speed, n_theta),
                         np.repeat(_CHORDS_PER_CELL * chord_h, n_theta),
                         n_cells, (int(multiplicity),) * n_r)


def grid_rays(dom: DiscretizedDomain) -> CurveFamily:
    """The radial segments across the polar grid dom from its inner edge to its
    outer, one at each sector's centre angle: ray k meets the n_r cells of
    sector k, and its length in a band is the band's width in either metric,
    the same for every ray."""
    R_edges, n_r, n_theta = _polar_geometry(dom)
    width = np.diff(R_edges)
    # each band's piece in closed form, taken along the real axis
    band_h = _segment_hyp_length(R_edges[:-1], width, R_edges[:-1], width, 0.0, 1.0)
    n_cells = n_r * n_theta
    cells = np.arange(n_cells).reshape(n_r, n_theta).T.ravel()  # ray k: k, k + n_theta, ...
    return _curve_family(np.arange(0, n_cells + 1, n_r), cells, np.tile(width, n_theta),
                         np.tile(band_h, n_theta), n_cells, (1,) * n_theta)


# ---------------------------------------------------------------------------
# rasterization

# Most curves cut in one block: numpy's per-call cost is shared by 2^6 curves, and
# a block's pieces stay few while the curves are chords of a few segments each.
_BLOCK_CURVES = 2**6


def _ranges(start: np.ndarray, stop: np.ndarray):
    """(segment, k) for every k in range(start[s], stop[s]), segment by segment."""
    count = np.maximum(stop - start, 0)
    seg = np.repeat(np.arange(len(count)), count)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count - start, count)
    return seg, k


def _crossings(p: np.ndarray, d: np.ndarray, geometry):
    """(segment, t) with t strictly inside (0, 1) where the segments p + t d cross
    grid lines: the cuts they need."""
    segs, ts = [], []
    for edges, pp, dd in ((geometry["x_edges"], p.real, d.real), (geometry["y_edges"], p.imag, d.imag)):
        moving = np.flatnonzero(dd != 0.0)
        pp, dd = pp[moving], dd[moving]
        k0 = np.searchsorted(edges, np.minimum(pp, pp + dd) - 1e-15)
        k1 = np.searchsorted(edges, np.maximum(pp, pp + dd) + 1e-15)
        s, k = _ranges(np.maximum(k0 - 1, 0), np.minimum(k1 + 1, len(edges)))
        with np.errstate(over="ignore"):  # a subnormal step gives t = +-inf, outside (0, 1)
            t = (edges[k] - pp[s]) / dd[s]
        keep = (1e-12 < t) & (t < 1.0 - 1e-12)
        segs.append(moving[s][keep])
        ts.append(t[keep])
    return np.concatenate(segs), np.concatenate(ts)


def _bins(edges: np.ndarray, x: np.ndarray):
    """Bin of each value among the edges, and whether it lies in [edges[0], edges[-1]].

    Both end edges belong to their end bins; an inner edge to the bin below it.
    """
    return np.searchsorted(edges[1:-1], x), (edges[0] <= x) & (x <= edges[-1])


def _cells_of(z: np.ndarray, geometry) -> np.ndarray:
    """Cell index of each point of a cartesian grid, -1 outside it."""
    i, inside_x = _bins(geometry["x_edges"], z.real)
    j, inside_y = _bins(geometry["y_edges"], z.imag)
    return np.where(inside_x & inside_y, i * (len(geometry["y_edges"]) - 1) + j, -1)


def rasterize_family(family: PolylineFamily, dom: DiscretizedDomain) -> CurveFamily:
    """Clip every polyline to the cells of a cartesian grid: one CSR incidence
    matrix per metric.

    A polyline's segments run from its `vertices[:-1]` to its `vertices[1:]`.
    They are cut at every grid-line crossing; each piece goes to the cell of its
    midpoint, and the per-cell sums add the pieces in order along the curve.
    Runs of whole curves are cut and summed in blocks (see the module
    docstring). ValueError for a polar grid, whose families are its grid lines
    (`grid_circles`, `grid_rays`).
    """
    geometry, n_cells = dom.geometry, dom.n_cells
    if geometry["kind"] == "polar":
        raise ValueError("rasterize_family needs a cartesian grid; a polar grid builds its "
                         "families with grid_circles and grid_rays")
    keys, len_e, len_h = [np.zeros(0, dtype=np.int64)], [np.zeros(0)], [np.zeros(0)]
    for first in range(0, len(family), _BLOCK_CURVES):
        block = [poly.vertices for poly in family.polylines[first:first + _BLOCK_CURVES]]
        p = np.concatenate([z[:-1] for z in block])
        d = np.concatenate([z[1:] for z in block]) - p
        r, speed = np.hypot(p.real, p.imag), np.hypot(d.real, d.imag)
        seg_curve = np.repeat(np.arange(first, first + len(block)), [len(z) - 1 for z in block])
        every = np.arange(len(p))
        seg, t = _crossings(p, d, geometry)
        seg = np.concatenate((every, every, seg))
        t = np.concatenate((np.zeros(len(p)), np.ones(len(p)), t))
        order = np.lexsort((t, seg))
        seg, t = seg[order], t[order]
        # piece i runs from t[i] to t[i + 1]; an exact duplicate cut starts no piece
        start = np.flatnonzero((seg[1:] == seg[:-1]) & (t[1:] != t[:-1]))
        s, t0, t1 = seg[start], t[start], t[start + 1]
        cell = _cells_of(p[s] + 0.5 * (t0 + t1) * d[s], geometry)
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
    return _curve_family(indptr, cells,
                         np.concatenate(len_e),  # float, also where a block's bincount of no pieces is int
                         np.concatenate(len_h), n_cells, family.multiplicities)


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

    Solves min sum rho^2 / Q * dA over densities admissible for the
    `grid_circles` of the n_circles x n_theta polar grid of the ring, one at
    each band center; no two share a cell, so the solve is the closed form.
    Returns (value, reference) where the reference is the reciprocal radial
    integral of the matching ||Q|| profile. The two agree within
    discretization error.
    """
    if n_circles < 4:
        raise ValueError("need n_circles >= 4")
    dom = polar_grid(ring.band_edges(n_circles), n_theta)
    fam = grid_circles(dom, [euclid_radius(r) for r in ring.band_centers(n_circles)])
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
