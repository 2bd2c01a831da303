import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from modlab.diskgeom import Polyline, euclid_radius
from modlab.fields import parse_field
from modlab.modulus import (
    DensityField,
    DiscretizedDomain,
    PolylineFamily,
    cartesian_grid,
    circle_family,
    circle_family_modulus,
    density_to_csv,
    horizontal_connecting_family,
    modulus_discrete,
    polar_grid,
    radial_connecting_family,
    rasterize_family,
    ring_modulus_exact,
    weighted_infimum,
)
from modlab.quadrature import RingSpec

RING = RingSpec(0.5, 1.5)


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


class TestGrids:
    def test_polar_areas_exact(self):
        dom = polar_grid(RING, 8, 16)
        R1, R2 = euclid_radius(0.5), euclid_radius(1.5)
        assert dom.n_cells == 128
        assert float(np.sum(dom.area_euclid)) == pytest.approx(math.pi * (R2**2 - R1**2), rel=1e-12)

    def test_area_conversion_factor(self):
        dom = polar_grid(RING, 4, 8)
        factor = 4.0 / (1.0 - np.abs(dom.centers) ** 2) ** 2
        assert np.allclose(dom.area_hyp, dom.area_euclid * factor)

    def test_cartesian_window_must_fit_disk(self):
        with pytest.raises(ValueError):
            cartesian_grid(((-0.9, 0.9), (-0.9, 0.9)), 4, 4)

    def test_rasterized_length_conservation(self):
        dom = polar_grid(RING, 16, 32)
        fam = rasterize_family(radial_connecting_family(RING, 8), dom)
        R1, R2 = euclid_radius(0.5), euclid_radius(1.5)
        for cells, le, lh in fam.curves:
            assert float(np.sum(le)) == pytest.approx(R2 - R1, rel=1e-12)

    def test_circle_rasterization_perimeter(self):
        dom = polar_grid(RING, 8, 64)
        pf = circle_family(RING, 8, n_vertices=4096)
        fam = rasterize_family(pf, dom)
        for (cells, le, lh), r in zip(fam.curves, pf.circle_radii):
            R = euclid_radius(r)
            assert float(np.sum(le)) == pytest.approx(2 * math.pi * R, rel=1e-5)
            assert float(np.sum(lh)) == pytest.approx(2 * math.pi * math.sinh(r), rel=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.tuples(st.floats(-0.39, 0.39), st.floats(-0.29, 0.34)), min_size=1, max_size=8),
                st.booleans(),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_cartesian_rasterization_properties(self, specs):
        dom = cartesian_grid(((-0.4, 0.4), (-0.3, 0.35)), 7, 9)
        polylines = tuple(Polyline([complex(x, y) for x, y in pts], closed=closed) for pts, closed in specs)
        fam = rasterize_family(PolylineFamily(polylines, kind="connecting"), dom)
        E, H = fam.incidence_matrix("euclidean"), fam.incidence_matrix("hyperbolic")
        assert E.shape == H.shape == (len(polylines), dom.n_cells)
        assert np.all(E.indices < dom.n_cells) and np.all(H.indices < dom.n_cells)
        row_sums = np.asarray(E.sum(axis=1)).ravel()
        rows = zip(polylines, row_sums, fam.curves, E.indptr[:-1], E.indptr[1:])
        for poly, row_sum, (cells, le, lh), lo, hi in rows:
            p, q = poly.segments()
            length = float(np.sum(np.abs(q - p)))
            assert row_sum == pytest.approx(length, rel=1e-12, abs=0.0)
            assert np.array_equal(cells, E.indices[lo:hi]) and np.array_equal(cells, H.indices[lo:hi])
            assert np.array_equal(le, E.data[lo:hi]) and np.array_equal(lh, H.data[lo:hi])


class TestModulusDiscrete:
    def test_empty_family(self):
        dom = polar_grid(RING, 4, 8)
        fam = rasterize_family(PolylineFamily((), kind="connecting"), dom)
        res = modulus_discrete(fam, dom)
        assert res.value == 0.0
        assert np.all(res.extremal.rho == 0.0)

    def test_square_horizontal_family(self):
        win = ((-0.35, 0.35), (-0.35, 0.35))
        dom = cartesian_grid(win, 128, 128)
        fam = rasterize_family(horizontal_connecting_family(win, 128), dom)
        res = modulus_discrete(fam, dom, metric="euclidean", tol=1e-6)
        assert res.value == pytest.approx(1.0, rel=0.02)

    def test_against_qp_oracle(self):
        win = ((-0.3, 0.3), (-0.3, 0.3))
        dom = cartesian_grid(win, 6, 6)
        polylines = (
            Polyline((complex(-0.3, -0.12), complex(0.3, -0.12))),
            Polyline((complex(-0.3, 0.17), complex(0.3, 0.17))),
            Polyline((complex(-0.3, -0.25), complex(0.0, 0.1), complex(0.3, 0.28))),
            Polyline((complex(-0.05, -0.3), complex(-0.05, 0.3))),
        )
        pf = PolylineFamily(polylines, kind="connecting", multiplicities=(1, 1, 2, 1))
        fam = rasterize_family(pf, dom)
        for metric in ("euclidean", "hyperbolic"):
            mine = modulus_discrete(fam, dom, metric=metric, tol=1e-8)
            oracle = qp_oracle(fam, dom, metric)
            assert mine.value == pytest.approx(oracle, rel=1e-3)

    def test_ring_connecting_family(self):
        dom = polar_grid(RING, 50, 128)
        fam = rasterize_family(radial_connecting_family(RING, 128), dom)
        res = modulus_discrete(fam, dom, metric="hyperbolic", tol=1e-6)
        assert res.value == pytest.approx(ring_modulus_exact(RING), rel=0.05)

    def test_metric_equivalence(self):
        dom = polar_grid(RING, 40, 96)
        fam = rasterize_family(radial_connecting_family(RING, 96), dom)
        h = modulus_discrete(fam, dom, metric="hyperbolic", tol=1e-6)
        e = modulus_discrete(fam, dom, metric="euclidean", tol=1e-6)
        assert h.value == pytest.approx(e.value, rel=0.02)

    def test_feasibility_at_termination(self):
        dom = polar_grid(RING, 20, 48)
        fam = rasterize_family(radial_connecting_family(RING, 48), dom)
        res = modulus_discrete(fam, dom, tol=1e-5)
        assert res.converged
        assert res.max_constraint_violation <= 1e-5
        # reported extremal is exactly feasible after rescaling
        L = fam.incidence_matrix("hyperbolic")
        m = np.asarray(fam.multiplicities, float)
        assert float(np.min(m * L.dot(res.extremal.rho))) >= 1.0 - 1e-12

    def test_monotone_under_family_growth(self):
        dom = polar_grid(RING, 24, 64)
        small = rasterize_family(radial_connecting_family(RING, 32), dom)
        # a superset family: same rays plus rays at offset angles
        big_pf = radial_connecting_family(RING, 64)
        big = rasterize_family(big_pf, dom)
        v_small = modulus_discrete(small, dom, tol=1e-7).value
        v_big = modulus_discrete(big, dom, tol=1e-7).value
        assert v_big >= v_small - 1e-3 * v_small

    def test_multiplicity_law(self):
        dom = polar_grid(RING, 16, 64)
        pf = circle_family(RING, 16, n_vertices=1024)
        fam = rasterize_family(pf, dom)
        base = modulus_discrete(fam, dom, tol=1e-7).value
        for k in (2, 3):
            scaled = fam.with_multiplicities([k] * len(fam))
            got = modulus_discrete(scaled, dom, tol=1e-7).value
            assert got == pytest.approx(base / k**2, rel=1e-3)

    def test_optimality_certificate(self):
        dom = polar_grid(RING, 20, 48)
        fam = rasterize_family(radial_connecting_family(RING, 48), dom)
        res = modulus_discrete(fam, dom, tol=1e-6)
        L = fam.incidence_matrix("hyperbolic")
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
        dom = polar_grid(RING, 16, 32)
        fam = rasterize_family(circle_family(RING, 4, n_vertices=512), dom)
        res = modulus_discrete(fam, dom, tol=1e-6)
        touched = np.zeros(dom.n_cells, dtype=bool)
        for cells, _, _ in fam.curves:
            touched[cells] = True
        assert np.all(res.extremal.rho[~touched] == 0.0)

    def test_curve_outside_domain_rejected(self):
        dom = polar_grid(RING, 8, 16)
        outside = PolylineFamily(
            (Polyline((0.01 + 0j, 0.02 + 0j)),), kind="connecting"
        )
        fam = rasterize_family(outside, dom)
        with pytest.raises(ValueError):
            modulus_discrete(fam, dom)

    def test_family_from_other_domain_rejected(self):
        coarse, fine = polar_grid(RING, 8, 16), polar_grid(RING, 16, 16)
        rays = radial_connecting_family(RING, 16)
        with pytest.raises(ValueError, match="128 cells .* 256"):
            modulus_discrete(rasterize_family(rays, coarse), fine)
        with pytest.raises(ValueError, match="256 cells .* 128"):
            modulus_discrete(rasterize_family(rays, fine), coarse)

    def test_json_export(self, tmp_path):
        dom = polar_grid(RING, 8, 16)
        fam = rasterize_family(circle_family(RING, 8, n_vertices=512), dom)
        res = modulus_discrete(fam, dom, tol=1e-6)
        data = res.to_json(tmp_path / "result.json")
        assert (tmp_path / "result.json").exists()
        assert data["value"] == pytest.approx(res.value)
        density_to_csv(dom, res.extremal, tmp_path / "rho.csv")
        assert (tmp_path / "rho.csv").read_text().startswith("re,im,rho")


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
