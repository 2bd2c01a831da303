import cmath
import json
import math

import numpy as np
import pytest

from modlab import mappings
from modlab._io import MAX_COUNT
from modlab.diskgeom import MobiusAutomorphism, mobius_compose, mobius_invert, mobius_to_zero
from modlab.mappings import (
    NotSensePreservingError,
    boundary_spiral_map,
    compose_maps,
    dilatation,
    distortion_sweep,
    finite_distortion_check,
    fold_map,
    identity_map,
    map_from_config,
    mobius_map,
    multiplicity,
    parse_map,
    radial_stretch,
    winding,
    wirtinger,
)
from oracles import custom_map, derivative_reference, wirtinger_fd


def polar_wirtinger_oracle(R, dR, k_angle, z):
    """|f_z|, |f_zbar| for f(r e^{i t}) = R(r) e^{i k t} by polar differentiation."""
    r = abs(z)
    fz = 0.5 * abs(dR(r) + k_angle * R(r) / r)
    fzb = 0.5 * abs(dR(r) - k_angle * R(r) / r)
    return fz, fzb


class TestWirtinger:
    def test_identity(self):
        [fz], [fzb] = wirtinger(identity_map(), np.array([0.3 + 0.2j]))
        assert fz == pytest.approx(1.0, abs=1e-14)
        assert abs(fzb) < 1e-14

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_winding_against_polar_oracle(self, k):
        f = winding(k)
        for z in (0.4 + 0.1j, -0.2 + 0.5j, 0.7j):
            [fz], [fzb] = wirtinger(f, np.array([z]))
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
            [fz], [fzb] = wirtinger(f, np.array([z]))
            o_fz, o_fzb = polar_wirtinger_oracle(
                lambda r: r**k, lambda r: k * r ** (k - 1), 1, z
            )
            assert abs(fz) == pytest.approx(o_fz, rel=1e-12)
            assert abs(fzb) == pytest.approx(o_fzb, rel=1e-12)
            assert abs(fz) == pytest.approx(r ** (k - 1) * (k + 1) / 2, rel=1e-12)
            assert abs(fzb) == pytest.approx(r ** (k - 1) * (k - 1) / 2, rel=1e-12)

    def test_finite_difference_agreement_and_order(self):
        f = radial_stretch(2.5)
        z = np.array([0.4 + 0.3j])
        [fz], [fzb] = wirtinger(f, z)
        errs = []
        for step in (1e-3, 5e-4):
            [fz_fd], [fzb_fd] = wirtinger_fd(f, z, step)
            errs.append(max(abs(fz_fd - fz), abs(fzb_fd - fzb)))
        assert errs[0] < 1e-5
        # central differences are O(step^2): halving the step ~quarters the error
        assert errs[1] < errs[0] / 2.5

    @pytest.mark.parametrize("parts", [
        (boundary_spiral_map(), winding(2)),
        (winding(2), fold_map()),
        (mobius_map(mobius_invert(mobius_to_zero(0.3 - 0.2j))), boundary_spiral_map()),
    ], ids=["spiral-then-winding2", "winding2-then-fold", "mobius-then-spiral"])
    def test_chain_rule_against_differences(self, parts):
        # off the kinks: 0 of the spiral's and the winding's input, Re = 0 of the fold's
        rng = np.random.default_rng(12)
        z = 0.9 * np.sqrt(rng.uniform(size=400)) * np.exp(2j * math.pi * rng.uniform(size=400))
        w, keep = z, np.ones(len(z), dtype=bool)
        for part in parts:
            keep &= (np.abs(w) > 0.05) & (np.abs(w.real) > 0.05)
            w = part(w)
        assert keep.sum() > 200
        self._assert_agrees_with_differences(compose_maps(*parts), z[keep])

    @staticmethod
    def _assert_agrees_with_differences(f, z):
        fz, fzb = wirtinger(f, z)
        fz_fd, fzb_fd = wirtinger_fd(f, z)
        error = np.maximum(np.abs(fz - fz_fd), np.abs(fzb - fzb_fd))
        assert np.all(error <= 1e-7 * (np.abs(fz) + np.abs(fzb))), f.label


class TestDilatation:
    def test_mobius_conformal(self):
        g = mobius_compose(mobius_invert(mobius_to_zero(0.3 + 0.4j)), MobiusAutomorphism(cmath.exp(0.5j), 0.0))
        f = mobius_map(g)
        for z in (0j, 0.5, -0.2 + 0.6j):
            assert dilatation(f, np.array([z])) == pytest.approx([1.0], abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_winding(self, k):
        for z in (0.3, 0.1 + 0.6j):
            assert dilatation(winding(k), np.array([z])) == pytest.approx([k], rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_radial_stretch(self, k):
        for z in (0.3, 0.1 + 0.6j):
            assert dilatation(radial_stretch(k), np.array([z])) == pytest.approx([k], rel=1e-12)

    def test_zero_derivative_convention(self):
        squash = custom_map(lambda z: np.zeros_like(z), label="zero")
        assert dilatation(squash, np.array([0.2])).tolist() == [1.0]

    def test_infinite_sentinel_on_fold_line(self):
        # K is the float inf where J = 0; no other value marks it
        assert dilatation(fold_map(), np.array([0j])).tolist() == [math.inf]

    @pytest.mark.parametrize("f", [winding(2), boundary_spiral_map(), fold_map()],
                             ids=["winding", "spiral", "fold"])
    def test_point_is_a_one_element_array(self, f):
        # a Python scalar runs as the one-element array, never as a 0-d array
        for z in (0.3 + 0.1j, 0.0, 0.2j):
            one = np.array([z], dtype=complex)
            for got, want in ((dilatation(f, z), dilatation(f, one)),
                              (np.stack(wirtinger(f, z)), np.stack(wirtinger(f, one)))):
                assert got.shape == want.shape and got.shape[-1] == 1
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_chart_independence_via_fd(self):
        # pre/post-composition with Mobius maps preserves K
        f = winding(2)
        g1 = mobius_invert(mobius_to_zero(0.2 - 0.1j))
        g2 = mobius_invert(mobius_to_zero(-0.15 + 0.25j))
        conj = custom_map(lambda z, g1=g1, g2=g2, f=f: (
            (g2.a * f((g1.a * z + g1.c) / (np.conjugate(g1.c) * z + np.conjugate(g1.a))) + g2.c)
            / (np.conjugate(g2.c) * f((g1.a * z + g1.c) / (np.conjugate(g1.c) * z + np.conjugate(g1.a))) + np.conjugate(g2.a))
        ), label="g2∘f∘g1")
        for z in (0.2 + 0.1j, -0.3j, 0.4):
            w = (g1.a * z + g1.c) / (g1.c.conjugate() * z + g1.a.conjugate())
            k_conj = dilatation(conj, np.array([z]))
            k_f = dilatation(f, np.array([w]))
            assert k_conj == pytest.approx(k_f, abs=1e-6)

    def test_composition_jacobian_law(self):
        def jacobian(f, z):
            [fz], [fzb] = wirtinger(f, np.array([z]))
            return abs(fz) ** 2 - abs(fzb) ** 2

        rng = np.random.default_rng(4)
        f = radial_stretch(2.0)
        g = winding(3)
        h = compose_maps(f, g)  # g after f
        for _ in range(20):
            z = 0.7 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            if abs(z) < 0.05:
                continue
            Jh, Jf, Jg = jacobian(h, z), jacobian(f, z), jacobian(g, f(np.array([z]))[0])
            assert Jh == pytest.approx(Jg * Jf, rel=1e-8)


class TestClosedForms:
    """The spiral's and the fold's Wirtinger data against their closed forms."""

    def test_spiral_jacobian_is_one(self):
        rng = np.random.default_rng(5)
        z = 0.999 * np.sqrt(rng.uniform(size=4004)) * np.exp(2j * math.pi * rng.uniform(size=4004))
        abs_fz, _, jac, _ = mappings._derivative_data(*wirtinger(boundary_spiral_map(), z))
        # |f_z|^2 = 1 + a^2 reaches ~4000 at |z| = 0.999, where its own rounding is ~1e-12
        assert np.all(np.abs(jac - 1.0) <= 4e-15 * abs_fz**2)
        assert np.abs(jac[np.abs(z) <= 0.99] - 1.0).max() <= 1e-12

    def test_spiral_dilatation(self):
        f = boundary_spiral_map()
        assert dilatation(f, 0j).tolist() == [1.0]
        r = np.linspace(0.01, 0.999, 200)
        z = r * np.exp(1j * np.linspace(0.0, 20.0, 200))
        a = 0.5 * r / ((1.0 - r) * (1.0 + np.log(1.0 / (1.0 - r))))  # r phi'(r) / 2
        assert np.allclose(dilatation(f, z), (np.sqrt(1.0 + a * a) + a) ** 2, rtol=1e-10, atol=0.0)

    def test_fold(self):
        rng = np.random.default_rng(6)
        z = 0.9 * (rng.uniform(-1, 1, size=200) + 1j * rng.uniform(-1, 1, size=200))
        z = z[np.abs(z.real) > 1e-3]
        f = fold_map()
        _, _, jac, k = mappings._derivative_data(*wirtinger(f, z))
        # J is -1 where the fold reverses, but K = (|f_z| + |f_zbar|)/||f_z| - |f_zbar|| is 1 on both sides
        assert np.all(jac == np.where(z.real < 0, -1.0, 1.0)) and np.all(k == 1.0)
        assert dilatation(f, 1j * z.imag).tolist() == [math.inf] * len(z)

    def test_every_kind_agrees_with_differences(self):
        rng = np.random.default_rng(7)
        z = 0.9 * np.sqrt(rng.uniform(size=400)) * np.exp(2j * math.pi * rng.uniform(size=400))
        z = z[(np.abs(z) > 0.05) & (np.abs(z.real) > 0.05)]
        for cfg in CATALOG:
            TestWirtinger._assert_agrees_with_differences(map_from_config(cfg), z)


class TestChunkInvariance:
    """One call on 2^14 points gives the same bits as 32 calls of 512.

    From 2^14 complex points numpy may multiply into an unnamed temporary in
    place, with the operands swapped; its SIMD complex product is not bitwise
    commutative, so the map evaluators name every such factor.
    """

    N, CHUNK = 1 << 14, 512

    def _points(self):
        rng = np.random.default_rng(9)
        return 0.95 * np.sqrt(rng.uniform(size=self.N)) * np.exp(2j * math.pi * rng.uniform(size=self.N))

    def _assert_chunk_invariant(self, fn):
        z = self._points()
        whole = fn(z)
        chunked = np.concatenate([fn(z[i:i + self.CHUNK]) for i in range(0, self.N, self.CHUNK)])
        assert whole.dtype == chunked.dtype
        assert np.array_equal(whole.view(np.uint64), chunked.view(np.uint64))

    def test_composition_dilatation(self):
        f = compose_maps(mobius_map(mobius_invert(mobius_to_zero(0.3 - 0.2j))), winding(2))
        self._assert_chunk_invariant(lambda z: dilatation(f, z))

    def test_composition_wirtinger(self):
        f = compose_maps(radial_stretch(2.0), mobius_map(mobius_to_zero(0.1 + 0.4j)), winding(3))
        self._assert_chunk_invariant(lambda z: np.stack(f.wirtinger_analytic(z), axis=-1))

    def test_boundary_spiral(self):
        self._assert_chunk_invariant(boundary_spiral_map())

    def test_boundary_spiral_wirtinger(self):
        f = boundary_spiral_map()
        self._assert_chunk_invariant(lambda z: np.stack(f.wirtinger_analytic(z), axis=-1))

    def test_composition_with_spiral(self):
        f = compose_maps(mobius_map(mobius_to_zero(0.2 - 0.3j)), boundary_spiral_map(), winding(2))
        self._assert_chunk_invariant(lambda z: np.stack(f.wirtinger_analytic(z), axis=-1))
        self._assert_chunk_invariant(lambda z: dilatation(f, z))


class TestMultiplicity:
    def test_mobius_injective(self):
        g = mobius_invert(mobius_to_zero(0.2 + 0.1j))
        rep = multiplicity(mobius_map(g), [0.3, -0.2 + 0.4j, 0.1j])
        assert rep.supremum == 1
        assert rep.counts == (1, 1, 1)
        assert not rep.incomplete

    def test_composition_degree(self):
        rep = multiplicity(compose_maps(radial_stretch(2), winding(2)), [0.3, -0.2 + 0.4j, 0.1j])
        assert rep.counts == (2, 2, 2) and rep.supremum == 2 and not rep.incomplete

    def test_winding3_target_half(self):
        rep = multiplicity(winding(3), [0.5])
        assert rep.counts[0] == 3
        # closed-form preimages: radius 0.5 at angles 2 pi j / 3
        f = winding(3)
        expected = [0.5 * np.exp(2j * math.pi * j / 3) for j in range(3)]
        for w in expected:
            assert abs(f(np.array([w]))[0] - 0.5) < 1e-12

    @pytest.mark.parametrize("k", [2, 4])
    def test_branch_value_counts_the_local_index(self, k):
        # |winding(k)(z)| = |z|, so 0 has the one preimage 0, of local index k
        f = winding(k)
        z = 0.3 * np.exp(2j * math.pi * np.arange(64) / 64)
        assert np.allclose(np.abs(f(z)), 0.3) and f(np.array([0j]))[0] == 0
        rep = multiplicity(f, [0j])
        assert rep.counts == (k,) and not rep.incomplete

    def test_winding_random_targets(self):
        rng = np.random.default_rng(1)
        targets = [
            float(rng.uniform(0.1, 0.8)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            for _ in range(10)
        ]
        rep = multiplicity(winding(3), targets)
        assert rep.supremum == 3
        assert all(c == 3 for c in rep.counts)

    def test_fold_is_refused(self):
        with pytest.raises(NotSensePreservingError, match="fold is not sense-preserving: J < 0"):
            multiplicity(fold_map(), [0.3])

    def test_reversed_near_the_rim_is_refused(self):
        # z + a conj(z)^40 / 40 has J = 1 - |a|^2 r^78: positive on the sweep
        # lattice (r <= 0.9), negative on the circle r = 0.999
        a = 0.96**-39
        f = custom_map(lambda z: z + a * np.conjugate(z) ** 40 / 40, label="rim_fold")
        assert (distortion_sweep(f, 16).jacobian > 0).all()
        with pytest.raises(NotSensePreservingError, match="rim_fold is not sense-preserving"):
            multiplicity(f, [0.3])

    @pytest.mark.parametrize("f", [identity_map(), radial_stretch(2), winding(3), boundary_spiral_map(),
                                   compose_maps(mobius_map(mobius_to_zero(0.2 + 0.1j)), winding(2))],
                             ids=["identity", "radial_stretch2", "winding3", "spiral", "mobius-then-winding2"])
    def test_count_stable_under_doubling(self, f, monkeypatch):
        rng = np.random.default_rng(3)
        targets = 0.9 * np.sqrt(rng.uniform(size=8)) * np.exp(2j * math.pi * rng.uniform(size=8))
        rep = multiplicity(f, targets)
        assert not rep.incomplete and rep.max_step < 0.5 * math.pi
        assert rep.samples == 4096 and min(rep.min_distance) > 0
        for first in (8192, 16384):
            monkeypatch.setattr(mappings, "_DEGREE_SAMPLES", first)
            assert multiplicity(f, targets).counts == rep.counts

    def test_near_target_refines(self):
        # 5e-4 inside the curve, midway between two of the first 4096 samples:
        # their step subtends about 2 rad, and each half of it about 1
        rep = multiplicity(identity_map(), [0.9985 * np.exp(1j * math.pi / 4096)])
        assert rep.counts == (1,) and rep.samples == 8192 and rep.max_step < 0.5 * math.pi
        assert rep.min_distance[0] == pytest.approx(5e-4, rel=1e-9)

    def test_target_on_the_curve_is_not_counted(self):
        # 0.999 is a sample; the second target lies on the circle between samples at every level
        on_curve = [0.999, 0.999 * np.exp(2j * math.pi / 12288)]
        rep = multiplicity(identity_map(), on_curve + [0.5])
        assert rep.counts == (None, None, 1) and rep.supremum == 1 and rep.incomplete
        assert rep.samples == 2**15  # the last level below the cap of 2^16
        assert rep.min_distance[0] == 0.0 and 0 < rep.min_distance[1] < 1e-4

    def test_no_targets(self):
        rep = multiplicity(winding(2), [])
        assert (rep.counts, rep.supremum, rep.incomplete, rep.min_distance) == ((), 0, False, ())


class TestFiniteDistortion:
    def test_mobius_passes(self):
        g = mobius_invert(mobius_to_zero(0.3))
        rep = finite_distortion_check(distortion_sweep(mobius_map(g), 17))
        assert rep.passed

    def test_winding_passes(self):
        rep = finite_distortion_check(distortion_sweep(winding(3), 17))
        assert rep.passed

    def test_fold_fails_on_axis(self):
        rep = finite_distortion_check(distortion_sweep(fold_map(), 33))
        assert not rep.passed and rep.n_violations == 33  # the lattice's column x = 0
        assert all(z.real == 0.0 for z in rep.violations)

    def test_non_finite_derivatives_fail(self):
        sweep = distortion_sweep(winding(3), 17)
        sweep.abs_fz[:3] = (math.nan, math.inf, 1.0)
        sweep.abs_fzbar[2] = math.nan
        rep = finite_distortion_check(sweep)
        assert not rep.passed and rep.n_violations == 3 and rep.violations == tuple(sweep.z[:3])

    def test_highest_accepted_winding_order_is_finite(self):
        sweep = distortion_sweep(parse_map("winding:4096"), 33)
        assert finite_distortion_check(sweep).passed
        assert np.allclose(sweep.dilatation, 4096.0, rtol=1e-11, atol=0.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            distortion_sweep(winding(2), 8)


ROTATION = {"kind": "mobius", "a_re": 0.6, "a_im": 0.8, "c_re": 0.0}
NON_ROTATION = {"kind": "mobius", "a_re": 1.2, "a_im": 0.3, "c_re": 0.4, "c_im": -0.2}
STRETCH_THEN_WIND = {"kind": "composition", "parts": [{"kind": "radial_stretch", "k": 2}, {"kind": "winding", "k": 2}]}
# one config of every map kind
CATALOG = [{"kind": "identity"}, {"kind": "winding", "k": 3}, {"kind": "radial_stretch", "k": 2.5},
           NON_ROTATION, STRETCH_THEN_WIND, {"kind": "spiral"}, {"kind": "fold"}]


def test_catalog_names_every_kind():
    assert {cfg["kind"] for cfg in CATALOG} == set(mappings._MAP_KINDS)


def ulps(got, want, scale):
    """|got - want| in units in the last place of `scale`; 0 where they are equal, inf included."""
    with np.errstate(invalid="ignore"):
        return np.where(got == want, 0.0, np.abs(got - want) / np.spacing(np.abs(scale)))


@pytest.mark.parametrize("cfg", CATALOG, ids=[cfg["kind"] for cfg in CATALOG])
def test_derivative_data_agrees_with_the_scalar_reference(cfg):
    # numpy's complex abs may round a modulus up to 2 ulps away from Python's abs. Carried
    # through the formulas, that moves J = a^2 - b^2 by at most 10 ulps of a^2 + b^2, and
    # K = (a + b)/|a - b| by at most 6 ulps of K (1 + K): a relative 2^-51 (1 + K) plus roundings.
    # Measured on the 33-lattice: 1, 3 and 1.25 (J to 12 ulps of itself for the spiral).
    f = map_from_config(cfg)
    sweep = distortion_sweep(f, 33)
    a, b, jac, k = derivative_reference(*wirtinger(f, sweep.z))
    assert ulps(sweep.abs_fz, a, a).max() <= 2 and ulps(sweep.abs_fzbar, b, b).max() <= 2
    assert ulps(sweep.jacobian, jac, a * a + b * b).max() <= 10
    assert np.array_equal(np.isinf(sweep.dilatation), np.isinf(k))
    assert ulps(sweep.dilatation, k, np.where(np.isinf(k), 1.0, k * (1.0 + k))).max() <= 6


class TestMapConstruction:
    @pytest.mark.parametrize("make, degree", [
        (lambda: parse_map("identity"), 1),
        (lambda: map_from_config(ROTATION), 1),
        (lambda: map_from_config(NON_ROTATION), 1),
        (lambda: parse_map("winding:3"), 3),
        (lambda: parse_map("radial_stretch:2"), 1),
        (lambda: parse_map("spiral"), 1),
        (lambda: parse_map("fold"), 1),
        (lambda: map_from_config(STRETCH_THEN_WIND), 2),
        (lambda: compose_maps(winding(2), fold_map()), 2),
    ], ids=["identity", "rotation", "mobius", "winding3", "radial_stretch2", "spiral", "fold",
            "stretch-then-winding", "winding-then-fold"])
    def test_map_fields(self, make, degree):
        assert make().degree == degree

    def test_parse_shorthand(self):
        assert parse_map("winding:3").degree == 3
        assert parse_map("radial_stretch:2").label == "radial_stretch:2"
        assert parse_map("identity").label == "identity"
        with pytest.raises(ValueError):
            parse_map("besselflow:2")
        z = np.array([0.3 + 0.1j, -0.5j, -0.2 + 0.6j])
        for spec, cfg in [
            ("identity", {"kind": "identity"}),
            ("winding:3", {"kind": "winding", "k": 3}),
            ("radial_stretch:2", {"kind": "radial_stretch", "k": 2}),
            ("radial-stretch:2", {"kind": "radial_stretch", "k": 2}),
            ("spiral", {"kind": "spiral"}),
            ("fold", {"kind": "fold"}),
            (json.dumps(NON_ROTATION), NON_ROTATION),
            (json.dumps(STRETCH_THEN_WIND), STRETCH_THEN_WIND),
        ]:
            f, g = parse_map(spec), map_from_config(cfg)
            assert (f.label, f.degree) == (g.label, g.degree), spec
            assert np.array_equal(f(z), g(z)), spec

    def test_config_round_trip(self):
        f = map_from_config({"kind": "winding", "k": 3})
        assert f.degree == 3
        comp = map_from_config(
            {"kind": "composition", "parts": [{"kind": "radial_stretch", "k": 2}, {"kind": "winding", "k": 2}]}
        )
        assert comp.degree == 2
        z = np.array([0.4 + 0.2j])
        assert comp(z) == pytest.approx(winding(2)(radial_stretch(2)(z)))

    @pytest.mark.parametrize("spec", [
        {"kind": "winding", "k": 2.5},
        {"kind": "winding", "k": True},
        {"kind": "winding", "k": "2"},
        {"kind": "radial_stretch", "k": float("nan")},
        {"kind": "radial_stretch", "k": float("inf")},
        {"kind": "mobius", "a_re": True, "c_re": 0.0},
        "radial_stretch:nan",
        "radial_stretch:inf",
        "radial_stretch:NaN",
        "radial_stretch:1e999",
        "winding:1_000",
        "winding: 3",
        "winding:4097",
        "winding:1e300",
    ], ids=["k-fraction", "k-boolean", "k-string", "k-nan", "k-infinite", "a-re-boolean",
            "shorthand-nan", "shorthand-inf", "shorthand-json-nan", "shorthand-overflow",
            "shorthand-underscore", "shorthand-space", "winding-above-the-cap", "winding-1e300"])
    def test_numbers_follow_the_json_rule(self, spec):
        # the JSON form and the shorthand meet the one rule of `_io.json_number`
        with pytest.raises(ValueError, match="map.k must be|map.a_re must be"):
            parse_map(spec) if isinstance(spec, str) else map_from_config(spec)

    def test_disk_preserved(self):
        rng = np.random.default_rng(6)
        for f in (winding(3), radial_stretch(2), boundary_spiral_map()):
            z = 0.95 * np.sqrt(rng.uniform(size=50)) * np.exp(2j * math.pi * rng.uniform(size=50))
            w = f(z)
            assert np.all(np.abs(w) < 1.0)
            assert np.all(np.abs(np.abs(w) - np.abs(z)) < 1e-12) or f.label == "radial_stretch:2"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            winding(0)
        with pytest.raises(ValueError):
            radial_stretch(0.5)

    @pytest.mark.parametrize("k", [MAX_COUNT + 1, 10**20, 2.5, math.nan, math.inf])
    def test_winding_refuses_an_order_off_the_whole_numbers_to_the_cap(self, k):
        # the builder itself, called from Python: 10**20 gave 354 non-finite |f_z| on the 33-lattice
        with pytest.raises(ValueError, match=f"winding order must be a whole number in \\[1, {MAX_COUNT}\\]"):
            winding(k)

    def test_distortion_csv(self):
        lines = distortion_sweep(winding(2), 17).to_csv().strip().splitlines()
        assert lines[0] == "re,im,abs_fz,abs_fzbar,K,J"
        assert len(lines) > 100
