import json
import math

import numpy as np
import pytest

from modlab.diskgeom import MobiusAutomorphism, mobius_compose, mobius_invert, mobius_rotation, mobius_to_zero
from modlab.fields import parse_field
from modlab.mappings import (
    ChartOverflowError,
    K_INF,
    boundary_spiral_map,
    compose_maps,
    custom_map,
    dilatation,
    distortion_at,
    distortion_to_csv,
    finite_distortion_check,
    fold_map,
    identity_map,
    map_from_config,
    mobius_map,
    multiplicity,
    parse_map,
    pushforward_family,
    pushforward_polylines,
    radial_stretch,
    winding,
    wirtinger,
    wirtinger_fd,
)
from modlab.modulus import circle_family, modulus_discrete, polar_grid
from modlab.quadrature import RingSpec

RING = RingSpec(0.5, 1.5)


def polar_wirtinger_oracle(R, dR, k_angle, z):
    """|f_z|, |f_zbar| for f(r e^{i t}) = R(r) e^{i k t} by polar differentiation."""
    r = abs(z)
    fz = 0.5 * abs(dR(r) + k_angle * R(r) / r)
    fzb = 0.5 * abs(dR(r) - k_angle * R(r) / r)
    return fz, fzb


class TestWirtinger:
    def test_identity(self):
        fz, fzb = wirtinger(identity_map(), 0.3 + 0.2j)
        assert fz == pytest.approx(1.0, abs=1e-14)
        assert abs(fzb) < 1e-14

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_winding_against_polar_oracle(self, k):
        f = winding(k)
        for z in (0.4 + 0.1j, -0.2 + 0.5j, 0.7j):
            fz, fzb = wirtinger(f, z)
            o_fz, o_fzb = polar_wirtinger_oracle(lambda r: r, lambda r: 1.0, k, z)
            assert abs(fz) == pytest.approx(o_fz, rel=1e-12)
            assert abs(fzb) == pytest.approx(o_fzb, rel=1e-12)
            assert abs(fz) == pytest.approx((k + 1) / 2, rel=1e-12)
            assert abs(fzb) == pytest.approx((k - 1) / 2, rel=1e-12)

    @pytest.mark.parametrize("k", [2.0, 3.0])
    def test_radial_stretch_against_polar_oracle(self, k):
        f = radial_stretch(k)
        for z in (0.5 + 0.1j, -0.3 + 0.3j):
            r = abs(z)
            fz, fzb = wirtinger(f, z)
            o_fz, o_fzb = polar_wirtinger_oracle(
                lambda r: r**k, lambda r: k * r ** (k - 1), 1, z
            )
            assert abs(fz) == pytest.approx(o_fz, rel=1e-12)
            assert abs(fzb) == pytest.approx(o_fzb, rel=1e-12)
            assert abs(fz) == pytest.approx(r ** (k - 1) * (k + 1) / 2, rel=1e-12)
            assert abs(fzb) == pytest.approx(r ** (k - 1) * (k - 1) / 2, rel=1e-12)

    def test_finite_difference_agreement_and_order(self):
        f = radial_stretch(2.5)
        z = 0.4 + 0.3j
        fz, fzb = wirtinger(f, z)
        errs = []
        for step in (1e-3, 5e-4):
            fz_fd, fzb_fd = wirtinger_fd(f, z, step)
            errs.append(max(abs(fz_fd - fz), abs(fzb_fd - fzb)))
        assert errs[0] < 1e-5
        # central differences are O(step^2): halving the step ~quarters the error
        assert errs[1] < errs[0] / 2.5

    def test_fd_step_leaves_disk(self):
        with pytest.raises(ValueError):
            wirtinger_fd(identity_map(), 0.99, step=0.5)


class TestDilatation:
    def test_mobius_conformal(self):
        g = mobius_compose(mobius_invert(mobius_to_zero(0.3 + 0.4j)), mobius_rotation(1.0))
        f = mobius_map(g)
        for z in (0j, 0.5, -0.2 + 0.6j):
            assert dilatation(f, z) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_winding(self, k):
        for z in (0.3, 0.1 + 0.6j):
            assert dilatation(winding(k), z) == pytest.approx(k, rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_radial_stretch(self, k):
        for z in (0.3, 0.1 + 0.6j):
            assert dilatation(radial_stretch(k), z) == pytest.approx(k, rel=1e-12)

    def test_zero_derivative_convention(self):
        squash = custom_map(lambda z: np.zeros_like(z), label="zero")
        assert dilatation(squash, 0.2) == 1.0

    def test_infinite_sentinel_on_fold_line(self):
        k = dilatation(fold_map(), 0j)
        assert k is K_INF
        assert float(k) == math.inf
        assert repr(k) == "K_INF"

    def test_chart_independence_via_fd(self):
        # pre/post-composition with Mobius maps preserves K
        f = winding(2)
        g1 = mobius_invert(mobius_to_zero(0.2 - 0.1j))
        g2 = mobius_invert(mobius_to_zero(-0.15 + 0.25j))
        conj = custom_map(lambda z, g1=g1, g2=g2, f=f: (
            (g2.a * f._apply((g1.a * z + g1.c) / (np.conjugate(g1.c) * z + np.conjugate(g1.a))) + g2.c)
            / (np.conjugate(g2.c) * f._apply((g1.a * z + g1.c) / (np.conjugate(g1.c) * z + np.conjugate(g1.a))) + np.conjugate(g2.a))
        ), label="g2∘f∘g1")
        for z in (0.2 + 0.1j, -0.3j, 0.4):
            w = (g1.a * z + g1.c) / (g1.c.conjugate() * z + g1.a.conjugate())
            k_conj = dilatation(conj, z, step=1e-6)
            k_f = dilatation(f, w)
            assert k_conj == pytest.approx(k_f, abs=1e-6)

    def test_composition_jacobian_law(self):
        rng = np.random.default_rng(4)
        f = radial_stretch(2.0)
        g = winding(3)
        h = compose_maps(f, g)  # g after f
        for _ in range(20):
            z = 0.7 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            if abs(z) < 0.05:
                continue
            Jh = distortion_at(h, z).jacobian
            Jf = distortion_at(f, z).jacobian
            Jg = distortion_at(g, f.apply(z)).jacobian
            assert Jh == pytest.approx(Jg * Jf, rel=1e-8)


class TestMultiplicity:
    def test_mobius_injective(self):
        g = mobius_invert(mobius_to_zero(0.2 + 0.1j))
        rep = multiplicity(mobius_map(g), [0.3, -0.2 + 0.4j, 0.1j], seed_grid=24)
        assert rep.supremum == 1
        assert rep.counts == (1, 1, 1)
        assert not rep.incomplete

    def test_winding3_target_half(self):
        rep = multiplicity(winding(3), [0.5], seed_grid=36)
        assert rep.counts[0] == 3
        # closed-form preimages: radius 0.5 at angles 2 pi j / 3
        f = winding(3)
        expected = [0.5 * np.exp(2j * math.pi * j / 3) for j in range(3)]
        for w in expected:
            assert abs(f.apply(w) - 0.5) < 1e-12

    def test_winding_branch_point(self):
        rep = multiplicity(winding(4), [0j], seed_grid=24)
        assert rep.counts[0] == 1

    def test_winding_random_targets(self):
        rng = np.random.default_rng(1)
        targets = [
            float(rng.uniform(0.1, 0.8)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            for _ in range(10)
        ]
        rep = multiplicity(winding(3), targets, seed_grid=36)
        assert rep.supremum == 3
        assert all(c == 3 for c in rep.counts)


class TestFiniteDistortion:
    def test_mobius_passes(self):
        g = mobius_invert(mobius_to_zero(0.3))
        rep = finite_distortion_check(mobius_map(g), grid=17)
        assert rep.passed

    def test_winding_passes(self):
        rep = finite_distortion_check(winding(3), grid=17)
        assert rep.passed

    def test_fold_fails_on_axis(self):
        rep = finite_distortion_check(fold_map(), grid=33)
        assert not rep.passed
        assert all(abs(z.real) < 1e-9 for z in rep.violations)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            finite_distortion_check(winding(2), grid=8)


class TestPushforward:
    def test_identity_unchanged(self):
        pf = circle_family(RING, 8, n_vertices=256)
        out = pushforward_polylines(identity_map(), pf)
        assert out.multiplicities == pf.multiplicities
        assert out.circle_radii == pytest.approx(pf.circle_radii)
        for a, b in zip(pf.polylines, out.polylines):
            assert np.allclose(a.vertices, b.vertices)

    def test_winding_same_point_sets_multiplicity_k(self):
        pf = circle_family(RING, 8, n_vertices=256)
        out = pushforward_polylines(winding(2), pf)
        assert out.multiplicities == tuple(2 for _ in range(8))
        assert out.circle_radii == pytest.approx(pf.circle_radii)
        for a, b in zip(pf.polylines, out.polylines):
            assert np.allclose(a.vertices, b.vertices)

    def test_radial_stretch_squares_euclid_radii(self):
        pf = circle_family(RING, 6, n_vertices=256)
        out = pushforward_polylines(radial_stretch(2), pf)
        for r_src, r_img in zip(pf.circle_radii, out.circle_radii):
            R = math.tanh(0.5 * r_src)
            assert r_img == pytest.approx(2 * math.atanh(R * R), rel=1e-12)

    def test_winding_image_modulus_scales_inverse_square(self):
        dom = polar_grid(RING, 12, 64)
        pf = circle_family(RING, 12, n_vertices=1024)
        from modlab.modulus import rasterize_family

        base = modulus_discrete(rasterize_family(pf, dom), dom, tol=1e-7).value
        pushed = pushforward_family(winding(2), pf, dom)
        val = modulus_discrete(pushed, dom, tol=1e-7).value
        assert val == pytest.approx(base / 4, rel=1e-3)

    def test_chart_overflow(self):
        pf = circle_family(RING, 4, n_vertices=64)
        blow_up = custom_map(lambda z: 2.0 * z, label="double")
        with pytest.raises(ChartOverflowError):
            pushforward_polylines(blow_up, pf)

    def test_branched_needs_circle_family(self):
        from modlab.modulus import radial_connecting_family

        rays = radial_connecting_family(RING, 8)
        with pytest.raises(ValueError):
            pushforward_polylines(winding(2), rays)


class TestMapConstruction:
    def test_parse_shorthand(self):
        assert parse_map("winding:3").degree == 3
        assert parse_map("radial_stretch:2").k == 2.0
        assert parse_map("identity").label == "identity"
        assert parse_map("spiral").kind == "custom"
        with pytest.raises(ValueError):
            parse_map("besselflow:2")
        mobius = {"kind": "mobius", "a_re": 1.2, "a_im": 0.3, "c_re": 0.4, "c_im": -0.2}
        composition = {"kind": "composition", "parts": [{"kind": "radial_stretch", "k": 2}, {"kind": "winding", "k": 2}]}
        z = np.array([0.3 + 0.1j, -0.5j, -0.2 + 0.6j])
        for spec, cfg in [
            ("identity", {"kind": "identity"}),
            ("winding:3", {"kind": "winding", "k": 3}),
            ("radial_stretch:2", {"kind": "radial_stretch", "k": 2}),
            ("radial-stretch:2", {"kind": "radial_stretch", "k": 2}),
            ("spiral", {"kind": "spiral"}),
            ("fold", {"kind": "fold"}),
            (json.dumps(mobius), mobius),
            (json.dumps(composition), composition),
        ]:
            f, g = parse_map(spec), map_from_config(cfg)
            assert (f.label, f.degree) == (g.label, g.degree), spec
            assert np.array_equal(f._apply(z), g._apply(z)), spec

    def test_config_round_trip(self):
        f = map_from_config({"kind": "winding", "k": 3})
        assert f.degree == 3
        comp = map_from_config(
            {"kind": "composition", "parts": [{"kind": "radial_stretch", "k": 2}, {"kind": "winding", "k": 2}]}
        )
        assert comp.degree == 2
        z = 0.4 + 0.2j
        assert comp.apply(z) == pytest.approx(winding(2).apply(radial_stretch(2).apply(z)))

    def test_disk_preserved(self):
        rng = np.random.default_rng(6)
        for f in (winding(3), radial_stretch(2), boundary_spiral_map()):
            z = 0.95 * np.sqrt(rng.uniform(size=50)) * np.exp(2j * math.pi * rng.uniform(size=50))
            w = f._apply(z)
            assert np.all(np.abs(w) < 1.0)
            assert np.all(np.abs(np.abs(w) - np.abs(z)) < 1e-12) or f.kind == "radial_stretch"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            winding(0)
        with pytest.raises(ValueError):
            radial_stretch(0.5)

    def test_distortion_csv(self, tmp_path):
        path = tmp_path / "distortion.csv"
        distortion_to_csv(winding(2), 17, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "re,im,abs_fz,abs_fzbar,K,J"
        assert len(lines) > 100
