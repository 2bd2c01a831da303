import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from modlab.experiments import (
    ConfigError,
    ExperimentConfig,
    VerdictRecord,
    _image_ring,
    distortion_weight_field,
    run_boundary_extension_probe,
    run_experiment,
    run_lower_q_verification,
    run_suite,
)
from modlab.mappings import (
    boundary_spiral_map,
    compose_maps,
    dilatation,
    fold_map,
    identity_map,
    radial_stretch,
    winding,
)
from modlab.diskgeom import euclid_radius, hyp_radius, inside_disk
from modlab.modulus import grid_circles, modulus_discrete, polar_grid
from modlab.quadrature import RingSpec, ScalarField
from oracles import custom_map

RING = {"r_inner": 0.5, "r_outer": 1.5}
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs" / "experiments"


def write_cfg(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def lower_q_cfg(map_spec, n_circles=32, **tol):
    return {
        "id": f"lq_{map_spec['kind']}",
        "kind": "lower_q",
        "ring": RING,
        "map": map_spec,
        "grid": {"n_circles": n_circles, "n_theta": 128, "n_profile": 32},
        "tolerances": tol,
    }


def boundary_cfg(map_spec, expected, q=None):
    cfg = {
        "id": f"b_{map_spec['kind']}",
        "kind": "boundary_ext",
        "map": map_spec,
        "boundary_point_angle": 0.0,
        "expected": expected,
    }
    if q:
        cfg["q_majorant"] = q
    return cfg


def shipped(name):
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


def shipped_settings(name):
    """A shipped config's settings: its keys other than id, kind and map."""
    return {key: value for key, value in shipped(name).items() if key not in ("id", "kind", "map")}


def shipped_with(name, section, key, value):
    """A shipped config with one value of one section replaced."""
    cfg = shipped(name)
    cfg[section][key] = value
    return cfg


def shipped_with_part(name, part):
    """A shipped config whose map is the composition of its map and `part`."""
    cfg = shipped(name)
    cfg["map"] = {"kind": "composition", "parts": [cfg["map"], part]}
    return cfg


class TestConfigLoading:
    def test_missing_field(self, tmp_path):
        path = write_cfg(tmp_path, "bad.json", {"kind": "lower_q"})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("data", [
        pytest.param([1, 2], id="array"),
        pytest.param("lower_q", id="string"),
        pytest.param({**boundary_cfg({"kind": "identity"}, "extends"), "boundary_point_angle": "0.5"},
                     id="angle-a-string"),
        pytest.param({**lower_q_cfg({"kind": "identity"}), "grid": [64, 64]}, id="grid-not-an-object"),
        pytest.param({**boundary_cfg({"kind": "identity"}, "extends"), "q_majorant": 3}, id="q-not-a-string"),
        pytest.param({**lower_q_cfg({"kind": "identity"}), "ring": {"r_outer": 1.5}}, id="ring-missing-key"),
        pytest.param({**lower_q_cfg({"kind": "identity"}), "ring": {"r_inner": 1.5, "r_outer": 0.5}},
                     id="ring-inverted"),
        pytest.param(boundary_cfg({"kind": "identity"}, "maybe"), id="expected-unknown"),
        pytest.param(shipped_with("lower_q_identity", "grid", "n_circles", "x"), id="n-circles-not-a-number"),
        pytest.param(shipped_with("lower_q_identity", "grid", "n_theta", 2), id="n-theta-2"),
        pytest.param(shipped_with("lower_q_identity", "grid", "n_profile", 4), id="n-profile-4"),
        pytest.param(shipped_with("lower_q_identity", "grid", "n_theta", "100000"), id="n-theta-string-over-cap"),
        pytest.param(shipped_with("lower_q_identity", "tolerances", "ratio_max", "x"), id="ratio-max-not-a-number"),
        pytest.param(shipped_with("lower_q_identity", "tolerances", "ratio_min", 10 ** 400),
                     id="ratio-min-overflows"),
        pytest.param(shipped_with("lower_q_identity", "grid", "n_theta", float("inf")), id="n-theta-infinite"),
        pytest.param(shipped_with("lower_q_identity", "grid", "n_circles", 64.5), id="n-circles-fraction"),
        pytest.param(shipped_with("lower_q_identity", "grid", "n_circles", True), id="n-circles-boolean"),
        pytest.param(shipped_with("lower_q_identity", "ring", "r_outer", 10 ** 400), id="ring-overflows"),
        pytest.param(shipped_with("lower_q_winding2", "map", "k", 2.5), id="winding-k-fraction"),
        pytest.param(shipped_with("lower_q_winding2", "map", "k", True), id="winding-k-boolean"),
        pytest.param(shipped_with("lower_q_winding2", "map", "k", "2"), id="winding-k-string"),
        pytest.param(shipped_with("lower_q_radial_stretch2", "map", "k", float("nan")), id="radial-stretch-k-nan"),
        pytest.param(shipped_with("boundary_mobius", "map", "c_re", True), id="mobius-c-re-boolean"),
        pytest.param({**boundary_cfg({"kind": "identity"}, "extends"), "boundary_point_angle": float("nan")},
                     id="angle-nan"),
        pytest.param(boundary_cfg({"kind": "identity"}, "extends", q="const:nan"), id="q-const-nan"),
        pytest.param(boundary_cfg({"kind": "identity"}, "extends", q="const:1e999"), id="q-const-overflows"),
    ])
    def test_mistyped_config(self, tmp_path, data):
        path = write_cfg(tmp_path, "bad.json", data)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("data, key", [
        pytest.param({**shipped("lower_q_identity"), "tolerance": {"ratio_min": 2.0}}, "tolerance",
                     id="lower-q-top-level"),
        pytest.param({**shipped("boundary_mobius"), "boundary_point_angel": 0.5}, "boundary_point_angel",
                     id="boundary-ext-top-level"),
        pytest.param({**shipped("lower_q_identity"), "expected": "extends"}, "expected",
                     id="lower-q-reads-no-expected"),
        pytest.param({**shipped("boundary_mobius"), "grid": {"n_circles": 8}}, "grid",
                     id="boundary-ext-reads-no-grid"),
        pytest.param({**shipped("lower_q_identity"), "q_majorant": "const:1"}, "q_majorant",
                     id="lower-q-reads-no-majorant"),
        pytest.param(shipped_with("lower_q_identity", "ring", "r_middle", 1.0), "r_middle", id="ring"),
        pytest.param(shipped_with("lower_q_identity", "grid", "n_circle", 8), "n_circle", id="grid"),
        pytest.param(shipped_with("lower_q_identity", "tolerances", "ratio_mn", 2.0), "ratio_mn", id="tolerances"),
        pytest.param(shipped_with("lower_q_identity", "tolerances", "solver_tol", 1e-6), "solver_tol",
                     id="removed-solver-tol"),
        pytest.param({**shipped("boundary_mobius"), "paths": {"n_steps": 14, "delta0": 0.3, "beta": 0.3}}, "paths",
                     id="removed-paths"),
        pytest.param({**shipped("boundary_mobius"), "tolerances": {"contract_abs": 0.02}}, "tolerances",
                     id="removed-boundary-tolerances"),
        pytest.param(shipped_with("boundary_mobius", "map", "a_imag", 0.5), "a_imag", id="mobius-a-imag"),
        pytest.param(shipped_with_part("lower_q_winding2", {"kind": "winding", "k": 2, "j": 1}), "j",
                     id="composition-part"),
        pytest.param(shipped_with_part("boundary_mobius", {**shipped("boundary_mobius")["map"], "a_imag": 0.5}),
                     "a_imag", id="composition-part-a-imag"),
    ])
    def test_unknown_key_is_refused(self, tmp_path, data, key):
        # a key the reader does not read would leave its value at the default: it is refused by name
        with pytest.raises(ConfigError, match=f"unknown key '{key}'; known keys: "):
            ExperimentConfig.from_json(write_cfg(tmp_path, "bad.json", data))

    def test_optional_and_whole_float_values_load(self, tmp_path):
        # a null ratio_max means no upper bound; a count written as 64.0 is the int 64
        cfg = shipped_with("lower_q_identity", "tolerances", "ratio_max", None)
        cfg["grid"]["n_circles"] = 64.0
        loaded = ExperimentConfig.from_json(write_cfg(tmp_path, "ok.json", cfg))
        _, edges, radii, *_, ratio_max = loaded.params
        assert len(radii) == 64 and len(edges) == 65
        assert ratio_max is None

    @pytest.mark.parametrize("name, field", [
        ("lower_q_identity", "grid"),
        ("lower_q_identity", "ring"),
        ("lower_q_identity", "tolerances"),
    ])
    @pytest.mark.parametrize("value", ["x", [0.5, 1.5], 3])
    def test_object_field_not_an_object(self, tmp_path, name, field, value):
        # a shipped config with one object-valued field replaced fails at load, not in the run
        cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        cfg[field] = value
        path = write_cfg(tmp_path, f"{name}.json", cfg)
        with pytest.raises(ConfigError, match=f"{field} must be a JSON object"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("eid", ["../escaped", "a/b", "a\\b", "a\0b", "", ".", "..", 7, ["a"], None],
                             ids=["parent-dir", "slash", "backslash", "nul", "empty", "dot", "dot-dot",
                                  "number", "list", "null"])
    def test_id_must_be_a_plain_file_name(self, eid):
        # the id names the run's output files, so it may not leave the output directory
        cfg = json.loads((CONFIG_DIR / "boundary_mobius.json").read_text())
        with pytest.raises(ConfigError, match="id must be a plain file name"):
            ExperimentConfig(experiment_id=eid, kind=cfg["kind"], map_spec=cfg["map"])

    def test_unknown_kind(self, tmp_path):
        path = write_cfg(tmp_path, "bad.json", {"id": "x", "kind": "quantize", "map": {"kind": "identity"}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    def test_unknown_map_resolves_at_load(self, tmp_path):
        cfg = lower_q_cfg({"kind": "mystery"})
        path = write_cfg(tmp_path, "bad.json", cfg)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    def test_resolution_cap(self, tmp_path):
        cfg = lower_q_cfg({"kind": "identity"})
        cfg["grid"]["n_theta"] = 100_000
        path = write_cfg(tmp_path, "big.json", cfg)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("map_spec, reason", [
        (shipped("boundary_mobius")["map"], "fixes 0 radially"),  # moves 0
        ({"kind": "fold"}, "fold is not sense-preserving"),  # |fold(z)| = |z|, but J < 0 on x < 0
        # |g(R)| rises and both parts keep orientation, but g(|w| = R) is not centred at 0; 8 evenly
        # spaced angles alias under w = z^8 (and |g| is even in w for c on the imaginary axis)
        ({"kind": "composition", "parts": [{"kind": "winding", "k": 8},
                                           {"kind": "mobius", "a_re": 1.0, "c_re": 0.3}]}, "fixes 0 radially"),
        ({"kind": "composition", "parts": [{"kind": "winding", "k": 4},
                                           {"kind": "mobius", "a_re": 1.0, "c_re": 0.0, "c_im": 0.3}]},
         "fixes 0 radially"),
    ], ids=["boundary_mobius", "fold", "winding8-then-mobius", "winding4-then-imaginary-mobius"])
    def test_lower_q_map_must_fix_origin_radially(self, tmp_path, map_spec, reason):
        path = write_cfg(tmp_path, "lq.json", {**shipped("lower_q_identity"), "map": map_spec})
        with pytest.raises(ConfigError, match=reason):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("map_spec", [
        {"kind": "identity"},
        {"kind": "mobius", "a_re": 0.6, "a_im": 0.8, "c_re": 0.0},
        {"kind": "radial_stretch", "k": 2},
        {"kind": "winding", "k": 3},
        {"kind": "composition", "parts": [{"kind": "radial_stretch", "k": 2}, {"kind": "winding", "k": 2}]},
        {"kind": "spiral"},
        {"kind": "composition", "parts": [{"kind": "spiral"}, {"kind": "winding", "k": 2}]},
    ], ids=["identity", "rotation", "radial_stretch2", "winding3", "stretch-then-winding", "spiral",
            "spiral-then-winding2"])
    def test_lower_q_measures_that_f_fixes_origin_radially(self, map_spec):
        # no map declares it: the load measures |f| on the band edge and center circles of the shipped ring
        assert len(ExperimentConfig(experiment_id="radial", kind="lower_q", map_spec=map_spec,
                                    settings=shipped_settings("lower_q_identity")).params[2]) == 64

    @pytest.mark.parametrize("map_spec", [{"kind": "identity"}, {"kind": "winding", "k": 2}],
                             ids=["identity", "winding2"])
    def test_lower_q_ring_may_not_start_at_the_origin(self, map_spec):
        # the LHS circles start at the first band center, the RHS at r_outer * 1e-6: at r_inner 0 the
        # identity read ratio 0.4364, a failing verdict with every certificate holding
        settings = {**shipped_settings("lower_q_identity"), "ring": {"r_inner": 0.0, "r_outer": 1.5}}
        with pytest.raises(ConfigError, match=r"lower_q needs ring.r_inner > 0"):
            ExperimentConfig(experiment_id="origin", kind="lower_q", map_spec=map_spec, settings=settings)

    @pytest.mark.parametrize("ratio_min, ratio_max", [(0.95, 0.9), (1.0, 1.0 - 1e-12)])
    def test_lower_q_band_may_not_be_empty(self, ratio_min, ratio_max):
        # no ratio lies in an empty band: the config is refused before the whole experiment runs
        settings = {**shipped_settings("lower_q_identity"),
                    "tolerances": {"ratio_min": ratio_min, "ratio_max": ratio_max}}
        with pytest.raises(ConfigError, match=f"tolerances.ratio_max {ratio_max} is below tolerances.ratio_min"):
            ExperimentConfig(experiment_id="empty", kind="lower_q", map_spec={"kind": "identity"}, settings=settings)

    def test_lower_q_band_may_be_one_point(self):
        settings = {**shipped_settings("lower_q_identity"), "tolerances": {"ratio_min": 1.0, "ratio_max": 1.0}}
        cfg = ExperimentConfig(experiment_id="point", kind="lower_q", map_spec={"kind": "identity"}, settings=settings)
        assert cfg.params[-2:] == (1.0, 1.0)

    @pytest.mark.parametrize("section, key, value, reason", [
        ("ring", "r_inner", 0.0, "lower_q needs ring.r_inner > 0"),
        ("tolerances", "ratio_max", 0.9, "tolerances.ratio_max 0.9 is below tolerances.ratio_min 0.95"),
    ], ids=["origin", "empty-band"])
    def test_refusals_are_suite_config_errors(self, tmp_path, section, key, value, reason):
        write_cfg(tmp_path, "lower_q_identity.json", shipped_with("lower_q_identity", section, key, value))
        out = tmp_path / "results"
        assert run_suite(tmp_path, out) == 1
        [record] = json.loads((out / "suite_report.json").read_text())["records"]
        assert record["status"] == "config_error" and reason in record["error"]

    def test_lower_q_ring_inside_the_degree_circle(self, tmp_path):
        # the degree certificate sweeps |z| = 0.999, hyperbolic radius about 7.6004
        cfg = json.loads((CONFIG_DIR / "lower_q_winding2.json").read_text())
        cfg["ring"] = {"r_inner": 7.0, "r_outer": 7.6}
        assert ExperimentConfig(experiment_id="inside", kind="lower_q", map_spec=cfg["map"],
                                settings={"ring": cfg["ring"]}).params[0].r_outer == 7.6
        cfg["ring"] = {"r_inner": 7.0, "r_outer": 8.0}
        write_cfg(tmp_path, "lower_q_winding2.json", cfg)
        out = tmp_path / "results"
        assert run_suite(tmp_path, out) == 1
        [record] = json.loads((out / "suite_report.json").read_text())["records"]
        assert record["status"] == "config_error"
        assert "Euclidean 0.99932" in record["error"] and "|z| = 0.999 " in record["error"]

    def test_direct_config_is_checked_when_built(self):
        # built without from_json, a config makes the same checks and raises
        mobius = json.loads((CONFIG_DIR / "boundary_mobius.json").read_text())["map"]
        identity = {"kind": "identity"}
        for kind, map_spec, settings, reason in (
            ("lower_q", mobius, {"ring": RING, "grid": {"n_circles": 8, "n_theta": 32}}, "fixes 0 radially"),
            ("lower_q", identity, {}, "needs a ring"),
            ("lower_q", identity, {"ring": {"r_inner": 1.5, "r_outer": 0.5}}, "r_inner < r_outer"),
            ("boundary_ext", identity, {"expected": "maybe"}, "'maybe'"),
            ("boundary_ext", identity, {"tolerances": {"contract_ratio": 0.1}},
             "boundary_ext config has unknown key 'tolerances'"),
            ("lower_q", identity, {"ring": RING, "expected": "extends"}, "lower_q config has unknown key 'expected'"),
            ("lower_q", identity, {"ring": RING, "tolerances": {"solver_tol": 1e-6}},
             "tolerances has unknown key 'solver_tol'"),
            ("lower_q", identity, {"ring": RING, "grid": {"n_circle": 8}}, "grid has unknown key 'n_circle'"),
            ("lower_q", identity, [RING], "lower_q config must be a JSON object"),
            ("quantize", identity, {}, "unknown experiment kind 'quantize'; known kinds: boundary_ext, lower_q"),
            (["lower_q"], identity, {}, "unknown experiment kind ['lower_q']"),
        ):
            with pytest.raises(ConfigError) as info:
                ExperimentConfig(experiment_id="direct", kind=kind, map_spec=map_spec, settings=settings)
            assert reason in str(info.value)

    def test_specs_are_parsed_once(self, monkeypatch):
        # the load parses the map and the field; the run uses what the config kept
        from modlab import experiments

        calls = []
        for name in ("map_from_config", "parse_field"):
            parse = getattr(experiments, name)
            monkeypatch.setattr(experiments, name,
                                lambda spec, _parse=parse, _name=name: calls.append(_name) or _parse(spec))
        rec = run_experiment(ExperimentConfig.from_json(CONFIG_DIR / "boundary_mobius.json"))
        assert rec.passed
        assert sorted(calls) == ["map_from_config", "parse_field"]

    def test_path_constants_meet_the_disk_rule(self):
        # the deepest probe point, 1 - delta0 * 2**-(n_steps - 1), passes the one disk rule
        from modlab import experiments

        deepest = 1.0 - experiments._PATH_DELTA0 * 0.5 ** (experiments._PATH_N_STEPS - 1)
        assert deepest == 1.0 - 0.3 * 2.0 ** -13
        assert inside_disk(deepest, "the deepest path point") == deepest

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)


class TestDistortionWeightField:
    def test_identity_gives_constant(self):
        Q = distortion_weight_field(identity_map(), 1.0)
        z = np.array([0.2 + 0.1j, -0.4j])
        assert np.allclose(Q.evaluate_array(z), 1.0)

    def test_winding_scales_by_degree_times_k(self):
        Q = distortion_weight_field(winding(2), 2.0)
        z = np.array([0.3 + 0.2j])
        assert Q.evaluate_array(z)[0] == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("f, points", [
        (fold_map(), [0.5j, 0j, 0.3 + 0.2j, -0.4 - 0.1j]),  # J = 0 on the imaginary axis
        (radial_stretch(2), [0j, 0.3 + 0.2j]),  # f_z = f_zbar = 0 at the origin
        (winding(3), [0.1 - 0.6j, -0.5 + 0.5j]),
        (boundary_spiral_map(), [0.2 + 0.7j, -0.6 + 0.1j]),  # J = 1
        (custom_map(lambda z: np.zeros_like(z), label="zero"), [0.2, -0.1j]),  # K = 1
        (compose_maps(radial_stretch(2), winding(2)), [0.3 - 0.4j]),
    ], ids=["fold", "radial_stretch", "winding", "spiral", "zero", "composition"])
    def test_equals_scaled_dilatation(self, f, points):
        z = np.array(points, dtype=complex)
        values = distortion_weight_field(f, 3.0).evaluate_array(z)
        assert list(values) == [3.0 * k for k in dilatation(f, z)]


class TestImageRing:
    """The image ring lower_q measures at load, and f(Σ) and the image grid its run builds
    from it: the circles Σ at the ring's band centers, the source grid's band edges carried by f."""

    RING = RingSpec(0.5, 1.5)
    MAPS = [identity_map(), winding(2), radial_stretch(2), radial_stretch(3),
            compose_maps(radial_stretch(2), winding(3))]
    MAP_IDS = ["identity", "winding2", "radial_stretch2", "radial_stretch3", "composition"]

    @staticmethod
    def _image_radius(f, r):
        """|f(R)| at the Euclidean radius R of the hyperbolic radius r, one point at a time."""
        return abs(complex(f(np.array([euclid_radius(r)], dtype=complex))[0]))

    def _source(self, n_circles, n_theta):
        """(Σ, its radii): the circles at the ring's band centers on the ring's grid."""
        radii = [euclid_radius(r) for r in self.RING.band_centers(n_circles)]
        return grid_circles(polar_grid(self.RING.band_edges(n_circles), n_theta), radii), radii

    def _image(self, f, n_circles, n_theta):
        """(f(Σ), its radii, its grid, the image ring's hyperbolic radii), as
        `run_lower_q_verification` builds them."""
        edges, radii = _image_ring(f, self.RING, n_circles)
        dom = polar_grid(edges, n_theta)
        return grid_circles(dom, radii, multiplicity=f.degree), radii, dom, (edges[0], edges[-1])

    @pytest.mark.parametrize("f", MAPS, ids=MAP_IDS)
    def test_returns_the_angle_zero_column_the_check_measured(self, f):
        # f is evaluated on the band radii once: the image ring is read off the radial check's values
        calls = []
        spy = dataclasses.replace(f, evaluate=lambda z: calls.append(np.array(z)) or f.evaluate(z))
        edges, radii = _image_ring(spy, self.RING, 6)
        measured = calls[0].reshape(13, 8)  # e0, c0, e1, ..., e6 at 8 angles, the first 0
        source = np.empty(13)
        source[0::2], source[1::2] = self.RING.band_edges(6), self.RING.band_centers(6)
        assert np.array_equal(measured[:, 0], [euclid_radius(r) for r in source])
        column = np.abs(f(measured[:, 0])).tolist()
        assert radii == column[1::2] and edges == [hyp_radius(R) for R in column[0::2]]

    def test_identity_images_equal_the_source(self):
        # bit for bit: |f(R)| = |R + 0i| = R, so lower_q_identity keeps its numbers
        assert _image_ring(identity_map(), self.RING, 8)[1] == [euclid_radius(r) for r in self.RING.band_centers(8)]
        image, radii, dom, image_ring = self._image(identity_map(), 8, 64)
        source, source_radii = self._source(8, 64)
        assert image.multiplicities == source.multiplicities == (1,) * 8
        assert radii == source_radii
        for name in ("indptr", "indices", "euclidean", "hyperbolic"):
            assert np.array_equal(getattr(image, name), getattr(source, name))
        assert image_ring == pytest.approx((0.5, 1.5), rel=1e-15)
        assert np.allclose(dom.centers, polar_grid(self.RING.band_edges(8), 64).centers, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("k", [2, 3])
    def test_winding_keeps_radii_and_multiplies_multiplicity(self, k):
        image, radii, _, image_ring = self._image(winding(k), 8, 64)
        assert image.multiplicities == (k,) * 8
        assert np.allclose(radii, self._source(8, 64)[1], rtol=1e-15, atol=0.0)
        assert image_ring == pytest.approx((0.5, 1.5), rel=1e-15)

    @pytest.mark.parametrize("f", MAPS, ids=MAP_IDS)
    @pytest.mark.parametrize("n_circles", [6, 16])
    def test_grid_is_the_source_grid_carried_by_f(self, f, n_circles):
        image, radii, dom, image_ring = self._image(f, n_circles, 64)
        carried = [self._image_radius(f, r) for r in self.RING.band_edges(n_circles)]
        assert len(dom.geometry["R_edges"]) == n_circles + 1 and len(dom.geometry["theta_edges"]) == 65
        assert dom.geometry["R_edges"] == pytest.approx(carried, rel=4e-16, abs=0.0)
        assert image_ring == (hyp_radius(carried[0]), hyp_radius(carried[-1]))
        R_edges = dom.geometry["R_edges"]
        for i, (r, radius) in enumerate(zip(self.RING.band_centers(n_circles), radii)):
            assert radius == pytest.approx(self._image_radius(f, r), rel=1e-15, abs=0.0)
            assert R_edges[i] < radius < R_edges[i + 1]  # inside its own band
        # so circle i meets exactly the cells of band i
        assert np.array_equal(image.indices, np.arange(n_circles * 64))
        assert image.multiplicities == (f.degree,) * n_circles

    def test_radial_stretch_squares_euclid_radii(self):
        # z|z| takes |z| = R to |w| = R^2, hyperbolic radius 2 atanh(R^2)
        _, radii, dom, image_ring = self._image(radial_stretch(2), 6, 64)
        for r, radius in zip(self.RING.band_centers(6), radii):
            R = math.tanh(0.5 * r)
            assert hyp_radius(radius) == pytest.approx(2 * math.atanh(R * R), rel=1e-12)
            assert radius == pytest.approx(R * R, rel=1e-15, abs=0.0)
        assert dom.geometry["R_edges"] == pytest.approx(np.tanh(0.5 * self.RING.band_edges(6)) ** 2, rel=1e-15)
        assert image_ring == pytest.approx([2 * math.atanh(math.tanh(0.5 * r) ** 2) for r in (0.5, 1.5)], rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    def test_multiplicity_k_image_has_modulus_base_over_k_squared(self, k):
        # winding:k runs each circle k times on the same grid: each curve's closed form scales by 1/k^2
        base = modulus_discrete(*self._image(identity_map(), 12, 64)[::2], tol=1e-7).value
        value = modulus_discrete(*self._image(winding(k), 12, 64)[::2], tol=1e-7).value
        assert value == pytest.approx(base / k**2, rel=1e-12)


class TestLowerQ:
    def test_identity_ratio_one(self, tmp_path):
        path = write_cfg(tmp_path, "id.json", lower_q_cfg({"kind": "identity"}, ratio_min=0.95, ratio_max=1.05))
        rec = run_lower_q_verification(ExperimentConfig.from_json(path))
        assert rec.status == "ok"
        assert rec.ratio == pytest.approx(1.0, abs=0.05)
        assert rec.passed

    def test_winding2_multiplicity_squared(self, tmp_path):
        path = write_cfg(tmp_path, "w2.json", lower_q_cfg({"kind": "winding", "k": 2}, ratio_min=0.95, ratio_max=1.05))
        rec = run_lower_q_verification(ExperimentConfig.from_json(path))
        assert rec.ratio == pytest.approx(1.0, abs=0.05)
        # LHS is a quarter of the unweighted circle-family modulus of the ring
        base = (math.log(math.tanh(0.75)) - math.log(math.tanh(0.25))) / (2 * math.pi)
        assert rec.lhs == pytest.approx(base / 4, rel=0.02)
        assert rec.rhs == pytest.approx(base / 4, rel=0.02)
        assert rec.provenance["degree_sampled"]["supremum"] == 2

    def test_radial_stretch2_lhs_is_the_image_ring_closed_form(self):
        # the circles of the image ring (R1', R2') = (R1^2, R2^2) have modulus log(R2'/R1') / 2 pi
        rec = run_lower_q_verification(ExperimentConfig.from_json(CONFIG_DIR / "lower_q_radial_stretch2.json"))
        exact = (math.log(math.tanh(0.75) ** 2) - math.log(math.tanh(0.25) ** 2)) / (2 * math.pi)
        assert abs(rec.lhs / exact - 1) < 3e-5
        assert abs(rec.ratio / 4 - 1) < 1e-4

    def test_radial_stretch_one_sided(self, tmp_path):
        path = write_cfg(tmp_path, "rs.json", lower_q_cfg({"kind": "radial_stretch", "k": 2}))
        rec = run_lower_q_verification(ExperimentConfig.from_json(path))
        assert rec.passed
        assert rec.ratio >= 0.95
        # image-ring closed form vs halved reciprocal integral
        base = (math.log(math.tanh(0.75)) - math.log(math.tanh(0.25))) / (2 * math.pi)
        assert rec.lhs == pytest.approx(2 * base, rel=0.02)
        assert rec.rhs == pytest.approx(base / 2, rel=0.02)

    def test_f_is_evaluated_on_the_band_radii_once(self, monkeypatch):
        # the load's radial check measures the image ring, and the run builds f(Σ) from it, not from f again
        from modlab import experiments

        calls = []

        def spied(spec, _parse=experiments.map_from_config):
            f = _parse(spec)
            return dataclasses.replace(f, evaluate=lambda z: calls.append(np.array(z)) or f.evaluate(z))

        monkeypatch.setattr(experiments, "map_from_config", spied)
        settings = {**shipped_settings("lower_q_winding2"), "grid": {"n_circles": 8, "n_theta": 32}}
        rec = run_lower_q_verification(ExperimentConfig(experiment_id="once", kind="lower_q", settings=settings,
                                                        map_spec=shipped("lower_q_winding2")["map"]))
        assert rec.passed
        centers = [euclid_radius(r) for r in RingSpec(0.5, 1.5).band_centers(8)]
        assert sum(bool(np.isin(centers, z).all()) for z in calls) == 1

    def test_spiral_maps_each_circle_onto_itself(self):
        # |spiral(z)| = |z|: the image circles are the identity's, so the lhs is lower_q_identity's
        settings = shipped_settings("lower_q_identity")
        del settings["tolerances"]["ratio_max"]
        spiral = ExperimentConfig(experiment_id="lower_q_spiral", kind="lower_q", map_spec={"kind": "spiral"},
                                  settings=settings)
        rec = run_lower_q_verification(spiral)
        assert rec.passed and rec.error is None and rec.ratio >= 1.0
        identity = run_lower_q_verification(ExperimentConfig.from_json(CONFIG_DIR / "lower_q_identity.json"))
        assert rec.lhs == pytest.approx(identity.lhs, rel=1e-14)

    def test_ratio_stable_under_refinement(self, tmp_path):
        ratios = []
        for n in (24, 48):
            cfg = lower_q_cfg({"kind": "identity"}, n_circles=n)
            cfg["id"] = f"ref_{n}"
            path = write_cfg(tmp_path, f"ref_{n}.json", cfg)
            ratios.append(run_lower_q_verification(ExperimentConfig.from_json(path)).ratio)
        assert abs(ratios[1] - ratios[0]) < 0.02
        assert abs(ratios[1] - 1.0) < 0.02

    def test_provenance_traceability(self, tmp_path):
        path = write_cfg(tmp_path, "id.json", lower_q_cfg({"kind": "identity"}))
        rec = run_lower_q_verification(ExperimentConfig.from_json(path))
        prov = rec.provenance
        assert prov["rhs"]["module"].startswith("quadrature.")
        assert prov["lhs"]["module"].startswith("modulus.")
        assert prov["degree_sampled"]["module"].startswith("mappings.")
        assert prov["lhs"]["converged"]
        # circles at band centers share no cell: the LHS is exact
        assert prov["lhs"]["stop_reason"] == "closed_form"
        assert prov["lhs"]["duality_gap"] == 0.0 and prov["lhs"]["iterations"] == 0

    @pytest.mark.parametrize("name", ["lower_q_identity", "lower_q_radial_stretch2", "lower_q_winding2"])
    def test_shipped_configs_solve_in_closed_form(self, name):
        rec = run_lower_q_verification(ExperimentConfig.from_json(CONFIG_DIR / f"{name}.json"))
        assert rec.passed and rec.error is None
        assert rec.provenance["lhs"]["stop_reason"] == "closed_form"
        assert rec.provenance["lhs"]["duality_gap"] == 0.0

    @pytest.mark.parametrize("name", ["lower_q_identity", "lower_q_radial_stretch2", "lower_q_winding2"])
    def test_shipped_rhs_refinement_delta(self, name):
        rec = run_lower_q_verification(ExperimentConfig.from_json(CONFIG_DIR / f"{name}.json"))
        assert rec.provenance["rhs"]["n_samples"] == 32
        assert rec.provenance["rhs"]["refinement_delta"] / rec.rhs < 1e-10

    def test_identity_rhs_is_the_closed_form(self):
        # K = 1 and N = 1: the RHS is the ring's integral of dr / (2 pi sinh r)
        rec = run_lower_q_verification(ExperimentConfig.from_json(CONFIG_DIR / "lower_q_identity.json"))
        exact = math.log(math.tanh(0.75) / math.tanh(0.25)) / (2 * math.pi)
        assert rec.rhs == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_unresolved_rhs_fails_the_verdict(self, tmp_path, monkeypatch):
        from modlab import experiments

        def jump_weight(f, n_factor):  # N * K_f with K doubled beyond r = 1
            return ScalarField(lambda z: n_factor * np.where(np.abs(z) < math.tanh(0.5), 1.0, 2.0),
                               label="jump")

        monkeypatch.setattr(experiments, "distortion_weight_field", jump_weight)
        path = write_cfg(tmp_path, "id.json", lower_q_cfg({"kind": "identity"}, ratio_min=0.95))
        rec = run_lower_q_verification(ExperimentConfig.from_json(path))
        assert rec.status == "ok" and rec.ratio >= 0.95  # the ratio alone would pass
        assert rec.provenance["lhs"]["converged"]
        assert rec.provenance["rhs"]["refinement_delta"] / rec.rhs > 1e-6
        assert not rec.passed
        assert "refinement_delta" in rec.error

    def test_uncertified_solve_fails_the_verdict(self, tmp_path, monkeypatch):
        from modlab import experiments

        solve = experiments.modulus_discrete
        monkeypatch.setattr(experiments, "modulus_discrete",
                            lambda *a, **kw: dataclasses.replace(solve(*a, **kw), stop_reason="max_iter"))
        path = write_cfg(tmp_path, "id.json", lower_q_cfg({"kind": "identity"}, ratio_min=0.95, ratio_max=1.05))
        rec = run_lower_q_verification(ExperimentConfig.from_json(path))
        assert rec.status == "ok" and 0.95 <= rec.ratio <= 1.05  # the ratio alone would pass
        assert not rec.passed
        assert rec.provenance["lhs"]["stop_reason"] == "max_iter"
        assert not rec.provenance["lhs"]["converged"]
        assert "not certified" in rec.error and "max_iter" in rec.error


    @pytest.mark.parametrize("change", [{"supremum": 2}, {"incomplete": True}],
                             ids=["supremum-off-degree", "incomplete"])
    def test_uncertified_degree_fails_the_verdict(self, tmp_path, monkeypatch, change):
        from modlab import experiments

        count = experiments.multiplicity
        monkeypatch.setattr(experiments, "multiplicity",
                            lambda *a, **kw: dataclasses.replace(count(*a, **kw), **change))
        path = write_cfg(tmp_path, "id.json", lower_q_cfg({"kind": "identity"}, ratio_min=0.95, ratio_max=1.05))
        rec = run_lower_q_verification(ExperimentConfig.from_json(path))
        assert rec.status == "ok" and 0.95 <= rec.ratio <= 1.05  # the ratio alone would pass
        assert rec.provenance["lhs"]["converged"]
        assert not rec.passed
        assert "sampled degree not certified" in rec.error

    def test_every_failing_certificate_is_named(self, monkeypatch):
        # two certificates fail in one run: the verdict names both, in the order they are checked
        from modlab import experiments

        count = experiments.multiplicity
        monkeypatch.setattr(experiments, "_RHS_DELTA_MAX", 0.0)
        monkeypatch.setattr(experiments, "multiplicity",
                            lambda *a, **kw: dataclasses.replace(count(*a, **kw), incomplete=True))
        rec = run_lower_q_verification(ExperimentConfig.from_json(CONFIG_DIR / "lower_q_identity.json"))
        delta = rec.provenance["rhs"]["refinement_delta"]
        assert rec.status == "ok" and rec.provenance["lhs"]["converged"] and delta > 0.0
        assert not rec.passed
        assert rec.error == (
            "sampled degree not certified: supremum 1 against analytic degree 1, incomplete True; "
            f"rhs quadrature not converged: refinement_delta {delta!r} between 32 and 16 nodes exceeds 0 * rhs")

    def test_out_of_band_ratio_fails_without_an_error(self, tmp_path):
        # every certificate holds, but the ratio lies above ratio_max: no certificate to name
        path = write_cfg(tmp_path, "id.json", lower_q_cfg({"kind": "identity"}, ratio_min=0.5, ratio_max=0.9))
        rec = run_lower_q_verification(ExperimentConfig.from_json(path))
        assert rec.status == "ok" and rec.ratio > 0.9
        assert not rec.passed
        assert rec.error is None


class TestBoundaryProbe:
    def test_mobius_extends(self, tmp_path):
        a = 1.0 / math.sqrt(1 - 0.09)
        spec = {"kind": "mobius", "a_re": a, "a_im": 0.0, "c_re": 0.3 * a, "c_im": 0.0}
        path = write_cfg(tmp_path, "m.json", boundary_cfg(spec, "extends", q="const:1"))
        rec = run_boundary_extension_probe(ExperimentConfig.from_json(path))
        assert rec.passed
        assert rec.provenance["observed"] == "extends"
        assert rec.provenance["q_majorant_divergence"] == "diverges"
        diam = rec.provenance["tail_diameters"]
        assert all(a >= b - 1e-15 for a, b in zip(diam, diam[1:]))

    def test_winding3_extends(self, tmp_path):
        path = write_cfg(tmp_path, "w.json", boundary_cfg({"kind": "winding", "k": 3}, "extends", q="const:3"))
        rec = run_boundary_extension_probe(ExperimentConfig.from_json(path))
        assert rec.passed
        assert rec.lhs < 0.02

    def test_spiral_has_no_limit(self, tmp_path):
        path = write_cfg(tmp_path, "s.json", boundary_cfg({"kind": "spiral"}, "no_limit"))
        rec = run_boundary_extension_probe(ExperimentConfig.from_json(path))
        assert rec.passed
        assert rec.provenance["observed"] == "no_limit"
        assert rec.lhs > 0.02  # the image tail keeps a macroscopic diameter


class TestSuite:
    def test_empty_directory(self, tmp_path):
        out = tmp_path / "results"
        assert run_suite(tmp_path, out) == 0
        report = json.loads((out / "suite_report.json").read_text())
        assert report["n_experiments"] == 0

    def test_malformed_config_isolation(self, tmp_path):
        write_cfg(tmp_path, "a_good.json", boundary_cfg({"kind": "winding", "k": 3}, "extends"))
        (tmp_path / "b_bad.json").write_text("{broken")
        out = tmp_path / "results"
        code = run_suite(tmp_path, out)
        assert code == 1
        report = json.loads((out / "suite_report.json").read_text())
        statuses = {r["experiment_id"]: r["status"] for r in report["records"]}
        assert statuses["b_winding"] == "ok"
        assert statuses["b_bad"] == "config_error"

    def test_clashing_ids_are_config_errors(self, tmp_path):
        # a repeated id, or a suite output's name, would overwrite an earlier file
        shipped = json.loads((CONFIG_DIR / "boundary_mobius.json").read_text())
        for name, eid in (("a", "same"), ("b", "same"), ("c", "suite_report")):
            write_cfg(tmp_path, f"{name}.json", {**shipped, "id": eid})
        out = tmp_path / "results"
        assert run_suite(tmp_path, out) == 1
        records = json.loads((out / "suite_report.json").read_text())["records"]
        assert [(r["experiment_id"], r["status"]) for r in records] == \
            [("same", "ok"), ("b", "config_error"), ("c", "config_error")]
        assert "'same' is taken" in records[1]["error"]
        assert "'suite_report' is taken" in records[2]["error"]
        assert json.loads((out / "same.json").read_text())["status"] == "ok"
        assert sorted(p.name for p in out.glob("*.json")) == \
            ["b.json", "c.json", "same.json", "suite_report.json"]

    def test_malformed_config_named_by_a_free_stem(self, tmp_path):
        # the file stem of same.json is the id of the earlier record from a.json
        shipped = json.loads((CONFIG_DIR / "boundary_mobius.json").read_text())
        write_cfg(tmp_path, "a.json", {**shipped, "id": "same"})
        (tmp_path / "same.json").write_text("{broken")
        out = tmp_path / "results"
        assert run_suite(tmp_path, out) == 1
        records = json.loads((out / "suite_report.json").read_text())["records"]
        assert [(r["experiment_id"], r["status"]) for r in records] == \
            [("same", "ok"), ("same-2", "config_error")]
        assert json.loads((out / "same.json").read_text())["status"] == "ok"
        assert json.loads((out / "same-2.json").read_text())["status"] == "config_error"

    def test_malformed_config_named_like_the_report(self, tmp_path):
        (tmp_path / "suite_report.json").write_text("{broken")
        out = tmp_path / "results"
        assert run_suite(tmp_path, out) == 1
        report = json.loads((out / "suite_report.json").read_text())
        assert report["n_experiments"] == 1
        assert [(r["experiment_id"], r["status"]) for r in report["records"]] == \
            [("suite_report-2", "config_error")]
        assert sorted(p.name for p in out.iterdir()) == \
            ["suite_report-2.json", "suite_report.json", "suite_summary.csv"]

    def test_failing_experiment_flips_exit(self, tmp_path):
        cfg = boundary_cfg({"kind": "spiral"}, "extends")  # wrong expectation
        write_cfg(tmp_path, "s.json", cfg)
        assert run_suite(tmp_path, tmp_path / "results") == 1

    def test_determinism(self, tmp_path):
        write_cfg(tmp_path, "id.json", lower_q_cfg({"kind": "identity"}, n_circles=16))
        write_cfg(tmp_path, "b.json", boundary_cfg({"kind": "winding", "k": 2}, "extends"))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_suite(tmp_path, out1) == 0
        assert run_suite(tmp_path, out2) == 0

        def strip_meta(text):
            data = json.loads(text)
            if isinstance(data, dict):
                data.pop("meta", None)
                for rec in data.get("records", []):
                    rec.pop("meta", None)
            return json.dumps(data, sort_keys=True)

        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            a, b = (out1 / name).read_text(), (out2 / name).read_text()
            if name.endswith(".json"):
                assert strip_meta(a) == strip_meta(b), name
            else:
                assert a == b, name  # CSV and SVG artifacts are byte-identical

    def test_run_experiment_dispatch(self, tmp_path):
        path = write_cfg(tmp_path, "b.json", boundary_cfg({"kind": "winding", "k": 2}, "extends"))
        rec = run_experiment(ExperimentConfig.from_json(path))
        assert rec.kind == "boundary_ext"


class TestVerdictRecord:
    def test_json_dict_is_its_fields(self):
        # every field but the runtime, which goes to meta, and the provenance as it is, not a copy
        rec = VerdictRecord(experiment_id="x", kind="lower_q", status="ok", provenance={"radii": np.arange(2.0)})
        data = rec.to_json_dict(with_meta=False)
        assert set(data) == {f.name for f in dataclasses.fields(rec)} - {"runtime_seconds"} | {"schema_version"}
        assert data["provenance"] is rec.provenance
        assert set(rec.to_json_dict()["meta"]) == {"timestamp", "runtime_seconds"}

    def test_json_round_trip(self, tmp_path):
        rec = VerdictRecord(experiment_id="x", kind="lower_q", status="ok",
                            lhs=1.0, rhs=2.0, ratio=0.5, passed=False)
        rec.write(tmp_path / "x.json")
        data = json.loads((tmp_path / "x.json").read_text())
        assert data["ratio"] == 0.5
        assert "timestamp" in data["meta"]
