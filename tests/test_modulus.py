import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize, nnls

from modlab import modulus
from modlab.diskgeom import Polyline, euclid_radius
from modlab.experiments import ExperimentConfig
from modlab.fields import parse_field
from modlab.modulus import (
    CurveFamily,
    DensityField,
    PolylineFamily,
    cartesian_grid,
    circle_family_modulus,
    grid_circles,
    grid_rays,
    modulus_discrete,
    polar_grid,
    rasterize_family,
    ring_modulus_exact,
    weighted_infimum,
)
from modlab.modulus import _BLOCK_CURVES, _CHORDS_PER_CELL
from modlab.quadrature import RingSpec

from oracles import hyp_length, incidence_matrix, midpoint_incidences

RING = RingSpec(0.5, 1.5)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs" / "experiments"
EDGE_INDEX = st.none() | st.integers(0, 15)  # see _snap


def qp_oracle(family, dom, metric):
    """Small-instance QP reference via SLSQP."""
    A = dom.area_hyp if metric == "hyperbolic" else dom.area_euclid
    col = 1 if metric == "euclidean" else 2
    n = dom.n_cells
    constraints = []
    for (cells, le, lh), mult in zip(family.curves, family.multiplicities):
        lengths = (le if col == 1 else lh).copy()
        idx = cells.copy()

        def g(rho, idx=idx, lengths=lengths, mult=mult):
            return mult * float(np.dot(rho[idx], lengths)) - 1.0

        constraints.append({"type": "ineq", "fun": g})
    res = minimize(
        lambda rho: float(np.dot(rho * rho, A)),
        x0=np.full(n, 1.0),
        jac=lambda rho: 2.0 * rho * A,
        bounds=[(0.0, None)] * n,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    assert res.success, res.message
    return float(np.dot(res.x * res.x, A))


def nnls_oracle(family, dom, metric, weights=None):
    """Exact small-instance optimum through the NNLS dual (Lawson & Hanson 1974, ch. 23).

    With x = sqrt(A) rho the program is the least-distance problem
    min |x|^2 s.t. G x >= 1, G = m L / sqrt(A); its solution is
    x = -r[:-1] / r[-1], where r = E u - e_last and u solves the
    non-negative least squares problem for E = [G^T; 1^T].
    """
    A = dom.area_hyp if metric == "hyperbolic" else dom.area_euclid
    if weights is not None:
        A = A * weights
    m = np.asarray(family.multiplicities, dtype=float)
    G = m[:, None] * incidence_matrix(family, metric).toarray() / np.sqrt(A)
    E = np.vstack([G.T, np.ones(len(m))])
    f = np.zeros(dom.n_cells + 1)
    f[-1] = 1.0
    u, _ = nnls(E, f, maxiter=50 * len(m))
    r = E @ u - f
    x = -r[:-1] / r[-1]
    assert np.min(G @ x) >= 1.0 - 1e-12
    return float(x @ x)


def scipy_closed_form(family, dom, metric):
    """(value, rho, violation) of the closed form through scipy's CSR products.

    An independent oracle for the solver's numpy path: the matrix is built
    from copies of the family's arrays, and every sum is scipy's mat-vec.
    """
    import scipy.sparse as sp

    A = dom.area_hyp if metric == "hyperbolic" else dom.area_euclid
    m = np.asarray(family.multiplicities, dtype=float)
    L = sp.csr_matrix((family.lengths(metric).copy(), family.indices.copy(), family.indptr.copy()),
                      shape=(len(family), dom.n_cells))
    LT = L.T.tocsr()
    assert np.all(np.diff(LT.indptr) <= 1)
    S = L.power(2).dot(1.0 / A)
    rho = LT.dot(1.0 / (m * S)) / A
    value = float(np.sum(1.0 / (m * m * S)))
    violation = float(np.max(1.0 - m * L.dot(rho), initial=0.0))
    return value, rho, violation


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=float)).view(np.uint64)


def _radial_family():
    dom = polar_grid(RING.band_edges(200), 600)
    return grid_rays(dom), dom


def _ring_radii(n_circles):
    """Euclidean radii of the band centers of RING."""
    return [euclid_radius(r) for r in RING.band_centers(n_circles)]


def _ring_circles(n_circles, n_theta, multiplicity=1):
    """(the circles at the band centers of RING, their grid)."""
    dom = polar_grid(RING.band_edges(n_circles), n_theta)
    return grid_circles(dom, _ring_radii(n_circles), multiplicity), dom


def _lower_q_image_family(name):
    """The image circles of a shipped lower_q config and its image grid, built as its run
    builds them from the image ring its load measured."""
    cfg = ExperimentConfig.from_json(CONFIG_DIR / f"{name}.json")
    _, edges, radii, n_theta, *_ = cfg.params
    dom = polar_grid(edges, n_theta)
    return grid_circles(dom, radii, cfg.sample_map.degree), dom


def _winding_image_family():
    """The lower_q_winding2 image family: 64 circles pushed forward by z -> z^2|z|^-1."""
    return _lower_q_image_family("lower_q_winding2")


def _rows(fam, keep):
    """The subfamily of the rows `keep` of a family."""
    keep = np.asarray(keep)
    lo, hi = fam.indptr[keep], fam.indptr[keep + 1]
    at = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
    indptr = np.concatenate(([0], np.cumsum(hi - lo)))
    return CurveFamily(indptr, fam.indices[at], fam.euclidean[at], fam.hyperbolic[at], fam.n_cells,
                       tuple(fam.multiplicities[g] for g in keep))


def _overlap_chords(rng):
    """512 chords across [-0.5, 0.5]^2, each bent inside [-0.02, 0.02]^2."""
    h, b = 0.5, 0.02
    left, right = rng.uniform(-h, h, (2, 512))
    bends = rng.uniform(-b, b, (512, 2))
    return tuple(Polyline((complex(-h, y0), complex(bx, by), complex(h, y1)))
                 for y0, (bx, by), y1 in zip(left, bends, right))


def _overlap_family(seed):
    """The overlap chords on 64 x 64 cells."""
    rng = np.random.default_rng(seed)
    dom = cartesian_grid(((-0.5, 0.5), (-0.5, 0.5)), 64, 64)
    return rasterize_family(PolylineFamily(_overlap_chords(rng), kind="connecting"), dom), dom, rng


def _bent_chord_family(chords, n_x=8, n_y=None):
    """Chords (y0, bx, by, y1, multiplicity) from (-0.4, y0) over (bx, by) to (0.4, y1)
    on n_x x n_y cells of [-0.4, 0.4]^2 (n_y = n_x by default)."""
    dom = cartesian_grid(((-0.4, 0.4), (-0.4, 0.4)), n_x, n_y or n_x)
    polylines = tuple(Polyline((complex(-0.4, y0), complex(bx, by), complex(0.4, y1)))
                      for y0, bx, by, y1, _ in chords)
    pf = PolylineFamily(polylines, kind="connecting", multiplicities=tuple(c[-1] for c in chords))
    return rasterize_family(pf, dom), dom


def _random_chord_family(rng, n_chords, n_x, n_y, copies):
    """A `_bent_chord_family` drawn from rng: n_chords chords, each run 1 to `copies`
    times as separate curves of multiplicity 1 or 2, and cell weights in [0.5, 2]."""
    y0, y1 = rng.uniform(-0.39, 0.39, (2, n_chords))
    bx, by = rng.uniform(0.02, 0.08, (2, n_chords))
    repeats = rng.integers(1, copies + 1, n_chords)
    chords = [(a, b, c, d) for a, b, c, d, k in zip(y0, bx, by, y1, repeats) for _ in range(k)]
    mult = rng.integers(1, 3, len(chords))
    fam, dom = _bent_chord_family([(*chord, int(k)) for chord, k in zip(chords, mult)], n_x, n_y)
    return fam, dom, rng.uniform(0.5, 2.0, dom.n_cells)


def _crossing_family():
    """Four curves crossing on a 6x6 window, one of multiplicity 2: supports overlap."""
    dom = cartesian_grid(((-0.3, 0.3), (-0.3, 0.3)), 6, 6)
    polylines = (
        Polyline((complex(-0.3, -0.12), complex(0.3, -0.12))),
        Polyline((complex(-0.3, 0.17), complex(0.3, 0.17))),
        Polyline((complex(-0.3, -0.25), complex(0.0, 0.1), complex(0.3, 0.28))),
        Polyline((complex(-0.05, -0.3), complex(-0.05, 0.3))),
    )
    pf = PolylineFamily(polylines, kind="connecting", multiplicities=(1, 1, 2, 1))
    return rasterize_family(pf, dom), dom


def _snap(z: complex, a, b, geometry) -> complex:
    """Put a point's coordinates on the a-th and b-th cell edges of a cartesian grid.

    A coordinate whose index is None is kept; indices wrap around the edge list.
    """
    x_edges, y_edges = geometry["x_edges"], geometry["y_edges"]
    x = z.real if a is None else x_edges[a % len(x_edges)]
    y = z.imag if b is None else y_edges[b % len(y_edges)]
    return complex(x, y)


class TestGrids:
    def test_polar_areas_exact(self):
        dom = polar_grid(RING.band_edges(8), 16)
        R1, R2 = euclid_radius(0.5), euclid_radius(1.5)
        assert dom.n_cells == 128
        assert float(np.sum(dom.area_euclid)) == pytest.approx(math.pi * (R2**2 - R1**2), rel=1e-12)

    @pytest.mark.parametrize("dom", [polar_grid(RING.band_edges(4), 8),
                                     cartesian_grid(((-0.5, 0.3), (-0.2, 0.6)), 5, 7)],
                             ids=["polar", "cartesian"])
    def test_area_conversion_factor(self, dom):
        # every cell's hyperbolic area is its Euclidean one times 4/(1-|c|^2)^2 at its center
        factor = 4.0 / (1.0 - np.abs(dom.centers) ** 2) ** 2
        assert np.array_equal(dom.area_hyp, dom.area_euclid * factor)

    @pytest.mark.parametrize("edges, n_theta, message", [
        ([], 16, "two band edges"),
        ([0.5], 16, "two band edges"),
        ([-0.5, 1.5], 16, "rise strictly from r >= 0"),
        ([0.5, 1.5, 1.5], 16, "rise strictly from r >= 0"),
        ([0.5, float("nan")], 16, "rise strictly from r >= 0"),
        ([0.5, 1.5], 3, "n_theta >= 4"),
    ], ids=["no-edges", "one-edge", "negative-edge", "repeated-edge", "nan-edge", "three-sectors"])
    def test_polar_grid_refusals(self, edges, n_theta, message):
        with pytest.raises(ValueError, match=message):
            polar_grid(edges, n_theta)
        assert polar_grid([0.5, 1.5], 4).n_cells == 4  # the smallest grid it builds

    @pytest.mark.parametrize("n", [8, 16, 64, 128])
    def test_cell_centers_sit_at_band_centers(self, n):
        # the grid's cells are centred at RING.band_centers bit for bit, and on this ring
        # those equal the closed form r_inner + (i + 1/2) h the shipped numbers were made with
        dom = polar_grid(RING.band_edges(n), 16)
        assert np.array_equal(dom.geometry["R_edges"], np.tanh(0.5 * RING.band_edges(n)))
        theta_edges = np.linspace(0.0, 2.0 * math.pi, 17)
        theta_mid = 0.5 * (theta_edges[:-1] + theta_edges[1:])
        R_mid = np.tanh(0.5 * RING.band_centers(n))
        assert np.array_equal(dom.centers, (R_mid[:, None] * np.exp(1j * theta_mid[None, :])).ravel())
        h = (RING.r_outer - RING.r_inner) / n
        assert np.array_equal(RING.band_centers(n), RING.r_inner + (np.arange(n) + 0.5) * h)

    def test_cartesian_window_must_fit_disk(self):
        with pytest.raises(ValueError):
            cartesian_grid(((-0.9, 0.9), (-0.9, 0.9)), 4, 4)

    def test_rasterized_length_conservation(self):
        fam = grid_rays(polar_grid(RING.band_edges(16), 32))
        R1, R2 = euclid_radius(0.5), euclid_radius(1.5)
        for cells, le, lh in fam.curves:
            assert float(np.sum(le)) == pytest.approx(R2 - R1, rel=1e-12)
            assert float(np.sum(lh)) == pytest.approx(RING.r_outer - RING.r_inner, rel=1e-12)

    def test_circle_rasterization_perimeter(self):
        fam, _ = _ring_circles(8, 1024)  # 4096-gons
        for (cells, le, lh), r in zip(fam.curves, RING.band_centers(8)):
            R = euclid_radius(r)
            assert float(np.sum(le)) == pytest.approx(2 * math.pi * R, rel=1e-5)
            assert float(np.sum(lh)) == pytest.approx(2 * math.pi * math.sinh(r), rel=1e-5)

    def test_pieces_on_window_edges_are_kept(self):
        # a piece on the lower/left edge counts like one on the upper/right edge
        dom = cartesian_grid(((-0.4, 0.4), (-0.3, 0.35)), 7, 9)
        segments = [(-0.4 - 0.2j, -0.4 + 0.2j), (0.4 - 0.2j, 0.4 + 0.2j),
                    (-0.3 - 0.3j, 0.3 - 0.3j), (-0.3 + 0.35j, 0.3 + 0.35j)]
        fam = rasterize_family(PolylineFamily(tuple(Polyline(s) for s in segments), kind="connecting"), dom)
        rows = np.asarray(incidence_matrix(fam, "euclidean").sum(axis=1)).ravel()
        assert rows == pytest.approx([0.4, 0.4, 0.6, 0.6], rel=1e-12)
        first, last = fam.curves[0][0], fam.curves[1][0]
        assert np.all(first // 9 == 0) and np.all(last // 9 == 6)

    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.lists(
                    st.tuples(st.floats(-0.39, 0.39), st.floats(-0.29, 0.34), EDGE_INDEX, EDGE_INDEX),
                    min_size=1,
                    max_size=8,
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_cartesian_rasterization_properties(self, specs):
        # some vertices are snapped onto cell edges, the window's outer edges included
        dom = cartesian_grid(((-0.4, 0.4), (-0.3, 0.35)), 7, 9)
        polylines = []
        for pts, closed in specs:  # a closed loop repeats its first vertex
            z = [_snap(complex(x, y), sa, sb, dom.geometry) for x, y, sa, sb in pts]
            polylines.append(Polyline(z + z[:1] if closed else z))
        fam = rasterize_family(PolylineFamily(tuple(polylines), kind="connecting"), dom)
        E, H = incidence_matrix(fam, "euclidean"), incidence_matrix(fam, "hyperbolic")
        assert E.shape == H.shape == (len(polylines), dom.n_cells)
        assert np.all(E.indices < dom.n_cells) and np.all(H.indices < dom.n_cells)
        row_sums_e, row_sums_h = (np.asarray(M.sum(axis=1)).ravel() for M in (E, H))
        rows = zip(polylines, row_sums_e, row_sums_h, fam.curves, E.indptr[:-1], E.indptr[1:])
        for poly, row_e, row_h, (cells, le, lh), lo, hi in rows:
            p, q = poly.vertices[:-1], poly.vertices[1:]
            length = float(np.sum(np.abs(q - p)))
            assert row_e == pytest.approx(length, rel=1e-12, abs=0.0)
            assert row_h == pytest.approx(hyp_length(poly), rel=1e-12, abs=0.0)
            assert np.array_equal(cells, E.indices[lo:hi]) and np.array_equal(cells, H.indices[lo:hi])
            assert np.array_equal(le, E.data[lo:hi]) and np.array_equal(lh, H.data[lo:hi])


def _one_curve_rows(polylines, dom):
    """(indptr, indices, euclidean, hyperbolic) of each polyline rasterized alone, rows stacked."""
    rows = [rasterize_family(PolylineFamily((poly,), kind="connecting"), dom) for poly in polylines]
    indptr = np.cumsum([0] + [len(row.indices) for row in rows])
    empty = (np.zeros(0, dtype=np.int32), np.zeros(0), np.zeros(0))
    columns = zip(empty, *((row.indices, row.euclidean, row.hyperbolic) for row in rows))
    return (indptr, *(np.concatenate(column) for column in columns))


def _spiral(n_vertices):
    """A polyline winding three times around 0 through the RING grid's bands."""
    s = np.linspace(0.0, 1.0, n_vertices)
    return Polyline(euclid_radius(0.6) * (1.0 + 0.6 * s) * np.exp(6j * math.pi * s))


WINDOW = ((-0.5, 0.5), (-0.5, 0.5))


class TestBlockInvariance:
    """A family's rows equal, bit for bit, the rows of its curves rasterized one by one."""

    @pytest.mark.parametrize("build, n_blocks", [
        (lambda: ((_spiral(3 * 4096),) + tuple(_spiral(7 + g) for g in range(_BLOCK_CURVES)),
                  cartesian_grid(WINDOW, 16, 16)), 2),
        (lambda: ((_spiral(40), Polyline([0.3 + 0.2j]), _spiral(9)), cartesian_grid(WINDOW, 16, 16)), 1),
        (lambda: ((), cartesian_grid(WINDOW, 4, 8)), 0),
        (lambda: (_overlap_chords(np.random.default_rng(1)), cartesian_grid(WINDOW, 64, 64)),
         512 // _BLOCK_CURVES),
    ], ids=["block-boundary-after-a-long-spiral", "single-vertex", "empty", "cartesian-chords"])
    def test_family_equals_stacked_curves(self, build, n_blocks, monkeypatch):
        polylines, dom = build()
        assert n_blocks == -(-len(polylines) // _BLOCK_CURVES)
        searches, crossings = [], modulus._crossings

        def counted(*args):  # the rasterizer searches each block's crossings once
            searches.append(args)
            return crossings(*args)

        monkeypatch.setattr(modulus, "_crossings", counted)
        fam = rasterize_family(PolylineFamily(tuple(polylines), kind="connecting"), dom)
        assert len(searches) == n_blocks
        indptr, indices, euclidean, hyperbolic = _one_curve_rows(polylines, dom)
        assert np.array_equal(fam.indptr, indptr) and np.array_equal(fam.indices, indices)
        assert fam.indptr.dtype == fam.indices.dtype == np.int32
        assert np.array_equal(_bits(fam.euclidean), _bits(euclidean))
        assert np.array_equal(_bits(fam.hyperbolic), _bits(hyperbolic))

    # sha256 of indptr, indices, euclidean and hyperbolic of the overlap chords on 64 x 64
    # cells, as the rasterizer computed them before the polar crossing search was removed
    # (x86-64, numpy 2)
    OVERLAP_SHA256 = {
        1: "e1876497e7dbabc59522a7bf09158b7fa8ce107f52b91319f1d2b8ec71e4f29e",
        2: "a61a16d3ec098506a677ef1c336e6409037798de98d9c1930f5310d2dc55ab98",
        3: "beff86a11d74c894caf0142254c2f4a3893163015fbcdab42267e281db343653",
        4: "f9d9929fe3c4d8183153cf25462b7d0edb283501375d074dee573096ff067a69",
        5: "fe3e6ea7624c2d261f7dfead66d24d1ddd053493c4b4403b21f9a41a5bc78d91",
    }

    @pytest.mark.parametrize("seed", sorted(OVERLAP_SHA256))
    def test_overlap_family_bits_are_pinned(self, seed):
        fam, _, _ = _overlap_family(seed)
        assert fam.indptr.dtype == fam.indices.dtype == np.int32
        digest = hashlib.sha256()
        for array in (fam.indptr, fam.indices, fam.euclidean, fam.hyperbolic):
            digest.update(array.tobytes())
        assert digest.hexdigest() == self.OVERLAP_SHA256[seed]


def _polygon(R, n_vertices):
    """The closed n-gon of radius R with a vertex at angle 0, its first vertex repeated at the end."""
    z = R * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, n_vertices, endpoint=False))
    return np.append(z, z[0])


def _assert_matches_oracle(fam, oracle, rel=1e-13):
    indptr, indices, euclidean, hyperbolic = oracle
    assert np.array_equal(fam.indptr, indptr) and np.array_equal(fam.indices, indices)
    assert fam.euclidean == pytest.approx(euclidean, rel=rel, abs=0.0)
    assert fam.hyperbolic == pytest.approx(hyperbolic, rel=rel, abs=0.0)


class TestGridLines:
    """A polar grid's circles and rays, built by construction, against a midpoint oracle
    that places every chord or band piece in the cell of its midpoint."""

    @pytest.mark.parametrize("n_r, n_theta", [(16, 64), (32, 128), (64, 256), (128, 512)])
    def test_circles_equal_the_midpoint_oracle(self, n_r, n_theta):
        fam, dom = _ring_circles(n_r, n_theta)
        polygons = [_polygon(R, 4 * n_theta) for R in _ring_radii(n_r)]
        _assert_matches_oracle(fam, midpoint_incidences(polygons, dom))
        assert fam.indptr.dtype == fam.indices.dtype == np.int32

    @pytest.mark.parametrize("name", ["lower_q_identity", "lower_q_radial_stretch2", "lower_q_winding2"])
    def test_lower_q_image_circles_equal_the_midpoint_oracle(self, name):
        # the image grids of radial_stretch2 and winding2 are the source grid carried by f
        fam, dom = _lower_q_image_family(name)
        cfg = ExperimentConfig.from_json(CONFIG_DIR / f"{name}.json")
        radii, n_theta = cfg.params[2], cfg.params[3]
        _assert_matches_oracle(fam, midpoint_incidences([_polygon(R, 4 * n_theta) for R in radii], dom))
        assert fam.multiplicities == (cfg.sample_map.degree,) * len(radii)

    def test_rays_equal_the_midpoint_oracle(self):
        fam, dom = _radial_family()
        R_edges, theta_edges = dom.geometry["R_edges"], dom.geometry["theta_edges"]
        angles = 0.5 * (theta_edges[:-1] + theta_edges[1:])
        rays = [R_edges * complex(math.cos(a), math.sin(a)) for a in angles]
        _assert_matches_oracle(fam, midpoint_incidences(rays, dom))
        assert fam.multiplicities == (1,) * 600

    @pytest.mark.parametrize("n_r, n_theta", [(16, 64), (128, 512)])
    def test_circle_lengths_against_quadrature(self, n_r, n_theta):
        # the 4 n_theta-gon's perimeter in closed form, and its chord's hyperbolic
        # length integrated by quadrature rather than by the two logarithms
        fam, _ = _ring_circles(n_r, n_theta)
        n = _CHORDS_PER_CELL * n_theta
        for R, (cells, le, lh) in zip(_ring_radii(n_r), fam.curves):
            assert len(cells) == n_theta
            assert np.sum(le) == pytest.approx(2.0 * n * R * math.sin(math.pi / n), rel=1e-13, abs=0.0)
            d = R * (complex(math.cos(2.0 * math.pi / n), math.sin(2.0 * math.pi / n)) - 1.0)
            chord, _ = quad(lambda t: 2.0 * abs(d) / (1.0 - abs(R + t * d) ** 2), 0.0, 1.0,
                            epsabs=0.0, epsrel=1e-13)
            assert lh == pytest.approx(np.full(n_theta, _CHORDS_PER_CELL * chord), rel=1e-13, abs=0.0)

    def test_rays_span_the_ring(self):
        # every ray crosses the whole ring, and each band piece is the band's width in
        # either metric: hyperbolic widths are the ring's equal bands
        dom = polar_grid(RING.band_edges(7), 12)
        fam = grid_rays(dom)
        R_edges = dom.geometry["R_edges"]
        for k, (cells, le, lh) in enumerate(fam.curves):
            assert np.array_equal(cells, k + 12 * np.arange(7))
            assert np.sum(le) == pytest.approx(euclid_radius(1.5) - euclid_radius(0.5), rel=1e-14)
            assert lh == pytest.approx(np.full(7, 1.0 / 7), rel=1e-13, abs=0.0)
            assert le == pytest.approx(np.diff(R_edges), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("metric", ["hyperbolic", "euclidean"])
    def test_multiplicity_divides_the_modulus_by_its_square(self, metric):
        # a circle run m times needs m times less density; its lengths are the same
        once, dom = _ring_circles(16, 64)
        thrice, _ = _ring_circles(16, 64, multiplicity=3)
        assert thrice.multiplicities == (3,) * 16
        for a, b in zip((once.indptr, once.indices, once.euclidean, once.hyperbolic),
                        (thrice.indptr, thrice.indices, thrice.euclidean, thrice.hyperbolic)):
            assert np.array_equal(a, b)
        m1 = modulus_discrete(once, dom, metric=metric).value
        assert modulus_discrete(thrice, dom, metric=metric).value == pytest.approx(m1 / 9.0, rel=1e-14)

    def test_ray_from_the_center(self):
        # a grid from r = 0: each ray starts at the center, and its length is the ring's
        fam = grid_rays(polar_grid(RingSpec(0.0, 2.0).band_edges(5), 12))
        for cells, le, lh in fam.curves:
            assert np.sum(le) == pytest.approx(euclid_radius(2.0), rel=1e-15)
            assert np.sum(lh) == pytest.approx(2.0, rel=1e-15)

    def test_polar_grid_refused_by_the_rasterizer(self):
        circle = Polyline(_polygon(euclid_radius(1.0), 64))
        with pytest.raises(ValueError, match="cartesian grid"):
            rasterize_family(PolylineFamily((circle,), kind="connecting"), polar_grid(RING.band_edges(4), 16))

    def test_cartesian_grid_refused_by_the_builders(self):
        dom = cartesian_grid(WINDOW, 4, 4)
        with pytest.raises(ValueError, match="polar grid"):
            grid_rays(dom)
        with pytest.raises(ValueError, match="polar grid"):
            grid_circles(dom, [0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("move", [
        lambda radii, R_edges: radii[:-1],  # a band without its circle
        lambda radii, R_edges: radii + [0.5 * (1.0 + R_edges[-1])],  # a circle outside the grid
        lambda radii, R_edges: [R_edges[0]] + radii[1:],  # on the lower edge of its band
        lambda radii, R_edges: radii[:2] + [R_edges[3]] + radii[3:],  # on the upper edge of its band
        lambda radii, R_edges: radii[:1] + [radii[2], radii[1]] + radii[3:],  # two circles swapped
        lambda radii, R_edges: radii[:3] + [math.nan] + radii[4:],
        # inside its band, but its chords dip below the lower edge
        lambda radii, R_edges: [R_edges[0] * (1.0 + 1e-5)] + radii[1:],
    ], ids=["too-few", "too-many", "on-lower-edge", "on-upper-edge", "swapped", "nan", "chords-below"])
    def test_circle_outside_its_band_refused(self, move):
        dom = polar_grid(RING.band_edges(6), 64)
        radii = move(_ring_radii(6), dom.geometry["R_edges"].tolist())
        with pytest.raises(ValueError, match="band"):
            grid_circles(dom, radii)

    def test_multiplicity_must_be_positive(self):
        with pytest.raises(ValueError, match="multiplicity"):
            grid_circles(polar_grid(RING.band_edges(6), 64), _ring_radii(6), multiplicity=0)

    def test_circle_family_modulus_keeps_its_value(self):
        # criterion 7's solve; before the grid-line builders it was 0.15165685367405052,
        # from a rasterized family whose per-cell lengths agree with these within 4e-14
        value, reference = circle_family_modulus(RING, parse_field("const:1"), n_circles=64)
        assert value == pytest.approx(0.15165685367405052, rel=1e-13, abs=0.0)
        assert value == pytest.approx(reference, rel=0.02)


class TestModulusDiscrete:
    def test_empty_family(self):
        dom = cartesian_grid(WINDOW, 4, 8)
        fam = rasterize_family(PolylineFamily((), kind="connecting"), dom)
        res = modulus_discrete(fam, dom)
        assert res.value == 0.0
        assert np.all(res.extremal.rho == 0.0)
        assert res.stop_reason == "closed_form" and res.duality_gap == 0.0

    def test_square_horizontal_family(self):
        win = ((-0.35, 0.35), (-0.35, 0.35))
        dom = cartesian_grid(win, 128, 128)
        ys = -0.35 + (np.arange(128) + 0.5) * (0.7 / 128)  # one left-to-right segment per row
        rows = PolylineFamily(tuple(Polyline(np.array([-0.35, 0.35]) + 1j * y) for y in ys), kind="connecting")
        fam = rasterize_family(rows, dom)
        res = modulus_discrete(fam, dom, metric="euclidean", tol=1e-6)
        assert res.value == pytest.approx(1.0, rel=0.02)

    def test_against_qp_oracle(self):
        fam, dom = _crossing_family()
        tol = 1e-8
        for metric in ("euclidean", "hyperbolic"):
            mine = modulus_discrete(fam, dom, metric=metric, tol=tol)
            oracle = qp_oracle(fam, dom, metric)
            assert mine.value == pytest.approx(oracle, rel=1e-3)
            exact = nnls_oracle(fam, dom, metric)
            assert mine.stop_reason == "gap" and mine.iterations > 0
            # the certificate brackets the exact optimum
            assert mine.dual_value <= exact * (1 + 1e-12) and exact <= mine.value * (1 + 1e-12)
            assert mine.value == pytest.approx(exact, rel=tol, abs=0.0)

    def test_closed_form_against_nnls_oracle(self):
        # circles at band centers never share a cell: the exact per-curve optimum
        fam, dom = _ring_circles(4, 16)
        fam = dataclasses.replace(fam, multiplicities=(1, 2, 3, 1))
        for metric in ("euclidean", "hyperbolic"):
            res = modulus_discrete(fam, dom, metric=metric)
            assert res.stop_reason == "closed_form" and res.converged
            assert res.iterations == 0 and res.duality_gap == 0.0
            assert res.value == pytest.approx(nnls_oracle(fam, dom, metric), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("build", [_radial_family, _winding_image_family])
    def test_closed_form_matches_scipy_bit_for_bit(self, build):
        fam, dom = build()
        for metric in ("euclidean", "hyperbolic"):
            res = modulus_discrete(fam, dom, metric=metric)
            value, rho, violation = scipy_closed_form(fam, dom, metric)
            assert res.stop_reason == "closed_form"
            assert np.array_equal(_bits(res.value), _bits(value))
            assert np.array_equal(_bits(res.extremal.rho), _bits(rho))
            assert np.array_equal(_bits(res.max_constraint_violation), _bits(violation))

    def test_overlap_solve(self):
        # active-set passes on shared cells end on the exact face; the last bits of the
        # value depend on the BLAS products
        fam, dom, rng = _overlap_family(1)
        weights = rng.uniform(0.5, 2.0, dom.n_cells)
        res = modulus_discrete(fam, dom, tol=1e-6, weights=weights)
        assert res.stop_reason == "gap" and res.iterations == 16
        assert res.value == pytest.approx(0.28472444731562546, rel=1e-12, abs=0.0)
        assert res.duality_gap <= 1e-12 * res.value
        assert res.max_constraint_violation <= 1e-12

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_overlap_certificates(self, seed):
        # the overlap benchmark's solve: an exact optimum, and a bracket its check accepts
        fam, dom, rng = _overlap_family(seed)
        res = modulus_discrete(fam, dom, tol=1e-6, weights=rng.uniform(0.5, 2.0, dom.n_cells))
        assert res.stop_reason == "gap"
        assert res.duality_gap <= 1e-12 * res.value
        assert res.dual_value <= res.value
        assert res.max_constraint_violation <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        chords=st.lists(
            st.tuples(st.floats(-0.39, 0.39), st.floats(0.02, 0.08), st.floats(0.02, 0.08),
                      st.floats(-0.39, 0.39), st.integers(1, 3)),
            min_size=3,
            max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
        metric=st.sampled_from(["euclidean", "hyperbolic"]),
    )
    def test_face_solve_matches_the_oracle(self, chords, seed, metric):
        # every chord bends inside the cell [0, 0.1]^2, so all of them share it
        fam, dom = _bent_chord_family(chords)
        weights = np.random.default_rng(seed).uniform(0.5, 2.0, dom.n_cells)
        res = modulus_discrete(fam, dom, metric=metric, tol=1e-12, weights=weights)
        exact = nnls_oracle(fam, dom, metric, weights)
        assert res.stop_reason == "gap" and res.dual_value <= res.value
        assert res.value == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert res.dual_value == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert res.max_constraint_violation <= 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_more_curves_than_cells_keeps_valid_bounds(self, seed):
        # 12 curves on 4 cells: H is singular beyond repeated rows, and the proximal
        # term makes every face definite, so the solve certifies the bracket
        rng = np.random.default_rng(seed)
        y0, y1 = rng.uniform(-0.39, 0.39, (2, 12))
        bx, by = rng.uniform(0.02, 0.08, (2, 12))
        fam, dom = _bent_chord_family(list(zip(y0, bx, by, y1, [1] * 12)), n_x=2)
        for metric in ("euclidean", "hyperbolic"):
            res = modulus_discrete(fam, dom, metric=metric, tol=1e-12)
            exact = nnls_oracle(fam, dom, metric)
            assert res.stop_reason == "gap"
            assert res.dual_value <= exact * (1 + 1e-12) and exact <= res.value * (1 + 1e-12)

    def test_singular_families_certify(self):
        # 5-24 chords on 1-3 x 1-3 cells: most families have more curves than cells
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n_chords, n_x, n_y = int(rng.integers(5, 25)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            fam, dom, weights = _random_chord_family(rng, n_chords, n_x, n_y, copies=1)
            for metric in ("euclidean", "hyperbolic"):
                res = modulus_discrete(fam, dom, metric=metric, tol=1e-12, weights=weights)
                exact = nnls_oracle(fam, dom, metric, weights)
                assert res.stop_reason == "gap", (seed, metric)
                assert res.value == pytest.approx(exact, rel=1e-12, abs=0.0), (seed, metric)
                assert res.dual_value == pytest.approx(exact, rel=1e-12, abs=0.0), (seed, metric)

    def test_duplicated_curves_certify(self):
        # 3-8 chords, each run 1-3 times as separate curves: equal rows, and rows equal
        # up to their multiplicities, make singular faces
        for seed in range(150):
            rng = np.random.default_rng(seed)
            fam, dom, weights = _random_chord_family(rng, int(rng.integers(3, 9)), 8, 8, copies=3)
            for metric in ("euclidean", "hyperbolic"):
                res = modulus_discrete(fam, dom, metric=metric, tol=1e-12, weights=weights)
                exact = nnls_oracle(fam, dom, metric, weights)
                assert res.stop_reason == "gap", (seed, metric)
                assert res.value == pytest.approx(exact, rel=1e-12, abs=0.0), (seed, metric)
                assert res.dual_value == pytest.approx(exact, rel=1e-12, abs=0.0), (seed, metric)

    def test_face_solve_with_a_duplicated_curve(self):
        # two equal rows, of multiplicities 1 and 2: a face holding both is singular
        chords = ((-0.3, 0.05, 0.05, 0.2, 1), (-0.3, 0.05, 0.05, 0.2, 2),
                  (0.1, 0.03, 0.07, -0.25, 2), (0.35, 0.06, 0.04, -0.1, 1))
        fam, dom = _bent_chord_family(chords)
        assert np.array_equal(fam.hyperbolic[fam.indptr[0]:fam.indptr[1]],
                              fam.hyperbolic[fam.indptr[1]:fam.indptr[2]])
        for metric in ("euclidean", "hyperbolic"):
            res = modulus_discrete(fam, dom, metric=metric, tol=1e-12)
            exact = nnls_oracle(fam, dom, metric)
            assert res.stop_reason == "gap"
            assert res.value == pytest.approx(exact, rel=1e-12, abs=0.0)
            assert res.max_constraint_violation <= 1e-12

    def test_face_solve_with_a_concatenated_curve(self):
        # curve c runs along a and then along b, so row c = row a + row b and H is
        # singular on any face holding all three
        dom = cartesian_grid(((-0.4, 0.4), (-0.4, 0.4)), 8, 8)
        start, bend, end = complex(-0.4, -0.2), complex(0.05, 0.03), complex(0.4, 0.25)
        polylines = (Polyline((start, bend)), Polyline((bend, end)), Polyline((start, bend, end)),
                     Polyline((complex(-0.4, 0.3), complex(0.06, 0.04), complex(0.4, -0.1))),
                     Polyline((complex(-0.4, 0.1), complex(0.02, 0.07), complex(0.4, 0.0))))
        fam = rasterize_family(PolylineFamily(polylines, kind="connecting"), dom)
        for metric in ("euclidean", "hyperbolic"):
            L = incidence_matrix(fam, metric).toarray()
            assert np.array_equal(L[2], L[0] + L[1])
            res = modulus_discrete(fam, dom, metric=metric, tol=1e-12)
            exact = nnls_oracle(fam, dom, metric)
            assert res.stop_reason == "gap"
            assert res.value == pytest.approx(exact, rel=1e-12, abs=0.0)
            assert res.max_constraint_violation <= 1e-12

    def test_singular_face_never_raises(self, monkeypatch):
        # nine chords through one cell, five distinct: H has rank 1, so the first face,
        # three curves of the working set, meets a zero pivot, and the pass solves it
        # again with the proximal term
        dom = cartesian_grid(((-0.2, 0.2), (-0.2, 0.2)), 1, 1)
        chords = tuple(Polyline((complex(-0.2, y), complex(0.2, 0.5 * y))) for y in np.linspace(-0.15, 0.15, 9))
        fam = rasterize_family(PolylineFamily(chords, kind="connecting"), dom)
        solve, singular = np.linalg.solve, []

        def recording(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(len(a))
                raise

        monkeypatch.setattr(np.linalg, "solve", recording)
        for metric in ("euclidean", "hyperbolic"):
            res = modulus_discrete(fam, dom, metric=metric, tol=1e-12)
            exact = nnls_oracle(fam, dom, metric)
            assert res.stop_reason == "gap"
            assert res.dual_value <= exact * (1 + 1e-12) and exact <= res.value * (1 + 1e-12)
            assert res.max_constraint_violation <= 1e-12
        assert singular

    def test_working_set_reaches_a_curve_ranked_last(self):
        # seven rungs and a rail crossing them all: under rho_1 the rail is the longest
        # curve, so it joins the working set last, yet the optimum needs it
        dom = cartesian_grid(((-0.4, 0.4), (-0.4, 0.4)), 8, 8)
        rungs = tuple(Polyline((complex(-0.4, y), complex(0.4, y))) for y in -0.35 + 0.1 * np.arange(7))
        rail = Polyline((complex(0.05, -0.4), complex(0.05, 0.4)))
        fam = rasterize_family(PolylineFamily(rungs + (rail,), kind="connecting"), dom)
        without_rail = rasterize_family(PolylineFamily(rungs, kind="connecting"), dom)
        for metric in ("euclidean", "hyperbolic"):
            A = dom.area_hyp if metric == "hyperbolic" else dom.area_euclid
            L = incidence_matrix(fam, metric).toarray()
            rho_1 = np.sum(L / np.sum(L**2 / A, axis=1)[:, None], axis=0) / A
            assert np.argmax(L @ rho_1) == len(rungs)
            res = modulus_discrete(fam, dom, metric=metric, tol=1e-12)
            exact = nnls_oracle(fam, dom, metric)
            assert res.stop_reason == "gap"
            assert res.value == pytest.approx(exact, rel=1e-12, abs=0.0)
            assert res.dual_value == pytest.approx(exact, rel=1e-12, abs=0.0)
            assert modulus_discrete(without_rail, dom, metric=metric, tol=1e-12).value < exact * (1 - 1e-3)

    def test_working_set_grows_to_every_binding_curve(self, monkeypatch):
        # eight diameters through the center: every one binds, so the working set
        # grows round by round until the solve factors all of them
        dom = cartesian_grid(((-0.4, 0.4), (-0.4, 0.4)), 8, 8)
        ends = 0.35 * np.exp(1j * (np.arange(8) + 0.3) * math.pi / 8)
        fam = rasterize_family(PolylineFamily(tuple(Polyline((e, -e)) for e in ends), kind="connecting"), dom)
        solve, rows = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: rows.append(len(a)) or solve(a, b))
        for metric in ("euclidean", "hyperbolic"):
            rows.clear()
            res = modulus_discrete(fam, dom, metric=metric, tol=1e-12)
            assert res.stop_reason == "gap"
            assert res.value == pytest.approx(nnls_oracle(fam, dom, metric), rel=1e-12, abs=0.0)
            assert rows[0] == 2 and max(rows) == len(fam)

    def test_overlap_solves_fewer_rows_than_the_family(self, monkeypatch):
        fam, dom, rng = _overlap_family(1)
        solve, rows = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: rows.append(len(a)) or solve(a, b))
        res = modulus_discrete(fam, dom, tol=1e-6, weights=rng.uniform(0.5, 2.0, dom.n_cells))
        assert res.stop_reason == "gap" and len(rows) == res.iterations
        assert max(rows) < len(fam)

    @pytest.mark.parametrize("kw", [{"tol": 0.0}, {"tol": 1.0}, {"metric": "Euclidean"}])
    def test_solver_settings_validated(self, kw):
        fam, dom = _crossing_family()
        with pytest.raises(ValueError):
            modulus_discrete(fam, dom, **kw)

    def test_max_iter_is_not_certified(self, monkeypatch):
        # the crossing family takes two passes: a budget of one ends uncertified
        fam, dom = _crossing_family()
        monkeypatch.setattr(modulus, "_MAX_PASSES", 1)
        res = modulus_discrete(fam, dom, tol=1e-8)
        assert res.stop_reason == "max_iter" and not res.converged
        assert res.iterations == 1
        assert res.duality_gap > 1e-8 * res.value
        assert res.max_constraint_violation <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build", [_radial_family, _crossing_family], ids=["closed_form", "active_set"])
    def test_non_finite_weights_rejected(self, monkeypatch, build, bad):
        fam, dom = build()
        weights = np.ones(dom.n_cells)
        weights[dom.n_cells // 2] = bad

        def no_product(*args):
            raise AssertionError("the solver started")

        monkeypatch.setattr(modulus, "_face_solve", no_product)
        with pytest.raises(ValueError, match="weights must be finite and keep cell costs positive"):
            modulus_discrete(fam, dom, weights=weights)

    def test_ring_connecting_family(self):
        dom = polar_grid(RING.band_edges(50), 128)
        fam = grid_rays(dom)
        res = modulus_discrete(fam, dom, metric="hyperbolic", tol=1e-6)
        assert res.value == pytest.approx(ring_modulus_exact(RING), rel=0.05)

    def test_metric_equivalence(self):
        dom = polar_grid(RING.band_edges(40), 96)
        fam = grid_rays(dom)
        h = modulus_discrete(fam, dom, metric="hyperbolic", tol=1e-6)
        e = modulus_discrete(fam, dom, metric="euclidean", tol=1e-6)
        assert h.value == pytest.approx(e.value, rel=0.02)

    def test_feasibility_at_termination(self):
        dom = polar_grid(RING.band_edges(20), 48)
        fam = grid_rays(dom)
        res = modulus_discrete(fam, dom, tol=1e-5)
        assert res.converged
        assert res.max_constraint_violation <= 1e-5
        # reported extremal is exactly feasible after rescaling
        L = incidence_matrix(fam, "hyperbolic")
        m = np.asarray(fam.multiplicities, float)
        assert float(np.min(m * L.dot(res.extremal.rho))) >= 1.0 - 1e-12

    def test_monotone_under_family_growth(self):
        dom = polar_grid(RING.band_edges(24), 64)
        big = grid_rays(dom)
        # a subfamily: every other ray
        small = _rows(big, range(0, 64, 2))
        v_small = modulus_discrete(small, dom, tol=1e-7).value
        v_big = modulus_discrete(big, dom, tol=1e-7).value
        assert v_big >= v_small - 1e-3 * v_small

    def test_multiplicity_law(self):
        fam, dom = _ring_circles(16, 256)
        base = modulus_discrete(fam, dom, tol=1e-7).value
        for k in (2, 3):
            scaled, _ = _ring_circles(16, 256, multiplicity=k)
            got = modulus_discrete(scaled, dom, tol=1e-7).value
            assert got == pytest.approx(base / k**2, rel=1e-3)

    def test_optimality_certificate(self):
        dom = polar_grid(RING.band_edges(20), 48)
        fam = grid_rays(dom)
        res = modulus_discrete(fam, dom, tol=1e-6)
        L = incidence_matrix(fam, "hyperbolic")
        m = np.asarray(fam.multiplicities, float)
        A = dom.area_hyp
        rng = np.random.default_rng(0)
        for _ in range(20):
            rho = res.extremal.rho * (1.0 + 0.01 * rng.uniform(-1, 1, dom.n_cells))
            rho = np.maximum(rho, 0.0)
            slack = float(np.min(m * L.dot(rho)))
            if slack <= 0:
                continue
            rho /= slack  # re-project to feasibility
            perturbed = float(np.dot(rho * rho, A))
            assert perturbed >= res.value - res.duality_gap - 1e-12

    def test_untouched_cells_have_zero_density(self):
        # three of eight rows of cells are crossed, each by one segment
        dom = cartesian_grid(((-0.4, 0.4), (-0.4, 0.4)), 8, 8)
        rows = tuple(Polyline((complex(-0.4, y), complex(0.4, y))) for y in (-0.35, 0.05, 0.25))
        fam = rasterize_family(PolylineFamily(rows, kind="connecting"), dom)
        res = modulus_discrete(fam, dom, tol=1e-6)
        touched = np.zeros(dom.n_cells, dtype=bool)
        for cells, _, _ in fam.curves:
            touched[cells] = True
        assert np.all(res.extremal.rho[~touched] == 0.0)

    def test_curve_outside_domain_rejected(self):
        dom = cartesian_grid(((-0.4, 0.4), (-0.4, 0.4)), 8, 8)
        outside = PolylineFamily(
            (Polyline((0.5 + 0j, 0.6 + 0j)),), kind="connecting"
        )
        fam = rasterize_family(outside, dom)
        with pytest.raises(ValueError):
            modulus_discrete(fam, dom)

    def test_family_from_other_domain_rejected(self):
        coarse, fine = polar_grid(RING.band_edges(8), 16), polar_grid(RING.band_edges(16), 16)
        with pytest.raises(ValueError, match="128 cells .* 256"):
            modulus_discrete(grid_rays(coarse), fine)
        with pytest.raises(ValueError, match="256 cells .* 128"):
            modulus_discrete(grid_rays(fine), coarse)

class TestRingModulusExact:
    def test_canonical_ring(self):
        # R1 = tanh(0.25), R2 = tanh(0.75)
        assert ring_modulus_exact(RING) == pytest.approx(6.5935200297, abs=1e-9)

    def test_degenerating_ring(self):
        assert ring_modulus_exact(RingSpec(1.0, 1.0 + 1e-9)) > 1e8

    def test_depends_only_on_radius_ratio(self):
        # scaling both Euclidean radii by a common factor keeps the value
        r1, r2 = 0.4, 1.1
        R1, R2 = euclid_radius(r1), euclid_radius(r2)
        for s in (0.5, 0.8):
            ring_scaled = RingSpec(2 * math.atanh(s * R1), 2 * math.atanh(s * R2))
            got = ring_modulus_exact(ring_scaled)
            assert got == pytest.approx(2 * math.pi / math.log(R2 / R1), rel=1e-12)

    def test_requires_positive_inner(self):
        with pytest.raises(ValueError):
            ring_modulus_exact(RingSpec(0.0, 1.0))


class TestCircleFamilyModulus:
    def test_unit_field_equality(self):
        value, reference = circle_family_modulus(RING, parse_field("const:1"), n_circles=64)
        oracle = (math.log(math.tanh(0.75)) - math.log(math.tanh(0.25))) / (2 * math.pi)
        assert reference == pytest.approx(oracle, rel=1e-4)
        assert value == pytest.approx(reference, rel=0.02)

    def test_constant_scaling(self):
        v1, r1 = circle_family_modulus(RING, parse_field("const:1"), n_circles=16, n_theta=64)
        v4, r4 = circle_family_modulus(RING, parse_field("const:4"), n_circles=16, n_theta=64)
        assert v4 == pytest.approx(v1 / 4, rel=1e-4)
        assert r4 == pytest.approx(r1 / 4, rel=1e-12)

    def test_minimum_circle_count(self):
        with pytest.raises(ValueError):
            circle_family_modulus(RING, parse_field("const:1"), n_circles=1)


class TestWeightedInfimum:
    def test_probability_space_unit_phi(self):
        masses = [0.25, 0.25, 0.5]
        I, alpha = weighted_infimum([(1.0, m) for m in masses], q=2.0)
        assert I == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(alpha, 1.0)

    def test_two_atoms(self):
        I, alpha = weighted_infimum([(1.0, 0.5), (4.0, 0.5)], q=2.0)
        assert I == pytest.approx(1.6, abs=1e-12)
        assert alpha[0] == pytest.approx(1.6, abs=1e-12)
        assert alpha[1] == pytest.approx(0.4, abs=1e-12)

    def test_homogeneity(self):
        atoms = [(0.7, 0.3), (2.2, 1.1), (5.0, 0.4)]
        I, _ = weighted_infimum(atoms, q=2.5)
        I2, _ = weighted_infimum([(3.0 * v, m) for v, m in atoms], q=2.5)
        assert I2 == pytest.approx(3.0 * I, rel=1e-13)

    def test_against_direct_minimization(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = 10
            values = rng.uniform(0.5, 5.0, n)
            masses = rng.uniform(0.1, 2.0, n)
            q = rng.uniform(1.5, 3.0)
            I, alpha = weighted_infimum(list(zip(values, masses)), q=q)
            assert float(np.dot(alpha, masses)) == pytest.approx(1.0, abs=1e-12)
            direct = minimize(
                lambda a: float(np.dot(values * np.power(np.abs(a), q), masses)),
                x0=np.full(n, 1.0 / np.sum(masses)),
                constraints=[{"type": "eq", "fun": lambda a: float(np.dot(a, masses)) - 1.0}],
                bounds=[(0.0, None)] * n,
                method="SLSQP",
                options={"maxiter": 800, "ftol": 1e-16},
            )
            assert direct.success
            assert I == pytest.approx(direct.fun, rel=1e-6)
            # the closed-form density is optimal: direct search cannot beat it
            assert direct.fun >= I - 1e-9

    def test_preconditions(self):
        with pytest.raises(ValueError):
            weighted_infimum([(1.0, 1.0)], q=1.0)
        with pytest.raises(ValueError):
            weighted_infimum([(-1.0, 1.0)], q=2.0)


class TestDensityField:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DensityField(np.array([0.1, -0.2]))
