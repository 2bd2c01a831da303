import dataclasses
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import modlab
from modlab.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRingModulus:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "ring-modulus", "--r1", "0.5", "--r2", "1.5",
                               "--grid", "40x96")
        assert code == 0
        data = json.loads(out)
        assert data["schema_version"] == 1
        assert data["exact"] == pytest.approx(6.59352, abs=1e-4)
        assert data["relative_error"] < 0.05
        # rays through sector centers share no cell: the solve is exact
        assert data["stop_reason"] == "closed_form" and data["duality_gap"] == 0.0

    def test_uncertified_solve_fails(self, capsys, monkeypatch):
        from modlab import cli

        solve = cli.modulus_discrete
        monkeypatch.setattr(cli, "modulus_discrete",
                            lambda *a, **kw: dataclasses.replace(solve(*a, **kw), stop_reason="max_iter"))
        code, out, _ = run_cli(capsys, "ring-modulus", "--r1", "0.5", "--r2", "1.5",
                               "--grid", "40x96")
        data = json.loads(out)
        assert code == 1 and data["relative_error"] < 0.05
        assert data["stop_reason"] == "max_iter" and not data["converged"]

    def test_heatmap_file(self, capsys, tmp_path):
        from modlab import cli
        from modlab.modulus import grid_rays, modulus_discrete, polar_grid
        from modlab.quadrature import RingSpec

        path = tmp_path / "rho.svg"
        code, _, _ = run_cli(capsys, "ring-modulus", "--r1", "0.5", "--r2", "1.5", "--grid", "6x12",
                             "--heatmap-file", str(path))
        dom = polar_grid(RingSpec(0.5, 1.5).band_edges(6), 12)
        rho = modulus_discrete(grid_rays(dom), dom, metric="hyperbolic", tol=cli._RING_TOL).extremal.rho
        text = path.read_text()
        assert code == 0 and text.startswith("<svg")
        assert ">extremal density, ring (0.5, 1.5)</text>" in text
        assert text.count("<path") == np.count_nonzero(rho > 0) > 0

    def test_bad_grid_spec(self, capsys):
        code, _, err = run_cli(capsys, "ring-modulus", "--r1", "0.5", "--r2", "1.5",
                               "--grid", "banana")
        assert code == 2
        assert "config error" in err


class TestCircleFamily:
    def test_unit_field(self, capsys):
        code, out, _ = run_cli(capsys, "circle-family", "--r1", "0.5", "--r2", "1.5",
                               "--q", "const:1", "--n-circles", "32")
        assert code == 0
        data = json.loads(out)
        assert data["discrete"] == pytest.approx(data["reference"], rel=0.02)

    def test_unknown_field(self, capsys):
        code, _, err = run_cli(capsys, "circle-family", "--r1", "0.5", "--r2", "1.5",
                               "--q", "gamma:7")
        assert code == 2


class TestQnorm:
    def test_csv_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "qnorm", "--q", "const:1", "--r1", "0.5",
                               "--r2", "1.5", "--samples", "8", "--out", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,qnorm"
        r, v = map(float, lines[1].split(","))
        assert v == pytest.approx(2 * math.pi * math.sinh(r), rel=1e-9)

    @pytest.mark.parametrize("out", ["csv", "json"])
    def test_stdout_equals_out_file(self, capsys, tmp_path, out):
        argv = ("qnorm", "--q", "inv-r", "--r1", "0.5", "--r2", "1.5", "--samples", "8", "--out", out)
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        out_file = tmp_path / f"prof.{out}"
        code, printed, _ = run_cli(capsys, *argv, "--out-file", str(out_file))
        assert code == 0 and printed == ""
        assert out_file.read_bytes() == stdout.encode()

    def test_json_file(self, capsys, tmp_path):
        out_file = tmp_path / "prof.json"
        code, _, _ = run_cli(capsys, "qnorm", "--q", "const:1", "--r1", "0.5",
                             "--r2", "1.5", "--samples", "8", "--out", "json",
                             "--out-file", str(out_file))
        assert code == 0
        data = json.loads(out_file.read_text())
        assert len(data["radii"]) == 8


class TestCriteriaCommands:
    def test_fmo_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "fmo", "--q", "inv-r", "--eps-count", "8")
        assert code == 0
        assert json.loads(out)["verdict"] == "not_fmo"

    def test_fmo_refuses_a_non_integrable_field(self, capsys):
        code, out, err = run_cli(capsys, "fmo", "--q", "inv-r2")
        assert code == 2 and out == ""
        assert err.startswith("field refused: inv-r2 is not integrable")

    def test_fmo_non_finite_center(self, capsys):
        code, _, err = run_cli(capsys, "fmo", "--q", "const:1", "--center", "nan")
        assert code == 2
        assert "finite" in err

    def test_divergence_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "divergence", "--q", "const:1", "--r2", "1.5")
        assert code == 0
        assert json.loads(out)["verdict"] == "diverges"

    @pytest.mark.parametrize("argv", [
        ("qnorm", "--q", "const:nan", "--r1", "0.5", "--r2", "1.5"),
        ("qnorm", "--q", "const:inf", "--r1", "0.5", "--r2", "1.5"),
        ("qnorm", "--q", "const:1e999", "--r1", "0.5", "--r2", "1.5"),
        ("fmo", "--q", "const:nan"),
        ("divergence", "--q", "const:nan", "--r2", "1.5"),
    ], ids=["qnorm-nan", "qnorm-inf", "qnorm-overflow", "fmo-nan", "divergence-nan"])
    def test_const_field_must_be_finite(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "finite c > 0" in err


class TestDirichlet:
    def test_svg_written(self, capsys, tmp_path):
        out_file = tmp_path / "dom.svg"
        code, out, _ = run_cli(capsys, "dirichlet", "--group",
                               str(CONFIG_DIR / "groups" / "cyclic.json"),
                               "--out-file", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
        assert "(2 of 16 half-planes kept)" in text  # the generator and its inverse

    @pytest.mark.parametrize("change, field", [
        (lambda grp: grp["generators"][0].pop("a_im"), "a_im"),
        (lambda grp: grp.update(max_word_length=2.7), "max_word_length"),
        (lambda grp: grp.update(max_word_lenght=8), "max_word_lenght"),
        (lambda grp: grp["generators"][0].update(b_re=0.0), "b_re"),
    ], ids=["generator-without-a-im", "word-length-fraction", "word-length-misspelled",
            "generator-unknown-key"])
    def test_malformed_group_is_a_config_error(self, capsys, tmp_path, change, field):
        group = json.loads((CONFIG_DIR / "groups" / "cyclic.json").read_text())
        change(group)
        (tmp_path / "group.json").write_text(json.dumps(group))
        code, _, err = run_cli(capsys, "dirichlet", "--group", str(tmp_path / "group.json"),
                               "--out-file", str(tmp_path / "dom.svg"))
        assert code == 2
        assert err.startswith("config error") and field in err
        assert not (tmp_path / "dom.svg").exists()

    @pytest.mark.parametrize("text", [None, "{nope"], ids=["missing", "not-json"])
    def test_unreadable_group_is_a_config_error(self, capsys, tmp_path, text):
        if text is not None:
            (tmp_path / "nope.json").write_text(text)
        code, _, err = run_cli(capsys, "dirichlet", "--group", str(tmp_path / "nope.json"),
                               "--out-file", str(tmp_path / "dom.svg"))
        assert code == 2
        assert err.startswith("config error") and "nope.json" in err
        assert not (tmp_path / "dom.svg").exists()


class TestDistortion:
    def test_csv_and_summary(self, capsys, tmp_path):
        out_file = tmp_path / "d.csv"
        code, out, _ = run_cli(capsys, "distortion", "--map", "winding:3",
                               "--grid", "17", "--out", "csv", "--out-file", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("re,im,abs_fz,abs_fzbar,K,J")
        summary = json.loads(out.splitlines()[-1] if out.strip().startswith("{") else out[out.index("{"):])
        assert summary["finite_distortion"]["passed"]

    def test_fold_fails_on_its_fold_line(self, capsys):
        code, out, _ = run_cli(capsys, "distortion", "--map", "fold", "--out", "none")
        report = json.loads(out)["finite_distortion"]
        assert code == 0 and report["n_violations"] == 33 and not report["passed"]

    def test_unknown_map(self, capsys):
        code, _, err = run_cli(capsys, "distortion", "--map", "teleport:9")
        assert code == 2

    @pytest.mark.parametrize("spec, key", [
        ("identity:3", "k"),
        ('{"kind": "mobius", "a_re": 1.0, "c_re": 0.0, "a_imag": 0.5}', "a_imag"),
    ], ids=["identity-with-k", "mobius-a-imag"])
    def test_map_key_its_kind_does_not_read(self, capsys, spec, key):
        code, out, err = run_cli(capsys, "distortion", "--map", spec, "--out", "none")
        assert code == 2 and out == ""
        assert err.startswith("config error") and f"unknown key {key!r}" in err


@pytest.mark.parametrize("argv, flag, reason", [
    (("ring-modulus", "--r1", "0.5", "--r2", "1.5", "--grid", "4097x4"), "--grid", "4096"),
    (("ring-modulus", "--r1", "0.5", "--r2", "1.5", "--grid", "4x4097"), "--grid", "4096"),
    (("circle-family", "--r1", "0.5", "--r2", "1.5", "--q", "const:1", "--n-circles", "4097"),
     "--n-circles", "4096"),
    (("qnorm", "--q", "const:1", "--r1", "0.5", "--r2", "1.5", "--samples", "4097"), "--samples", "4096"),
    (("fmo", "--q", "const:1", "--eps-count", "4097"), "--eps-count", "4096"),
    (("distortion", "--map", "winding:3", "--grid", "4097", "--out", "none"), "--grid", "4096"),
    (("distortion", "--map", "winding:1e300", "--out", "none"), "map.k", "4096"),
    (("ring-modulus", "--r1", "0.5", "--r2", "1.5", "--grid", "1_0x3_0"), "--grid", "whole number"),
    (("ring-modulus", "--r1", "0.5", "--r2", "1.5", "--grid", "10x 30"), "--grid", "whole number"),
    (("ring-modulus", "--r1", "0.5", "--r2", "1.5", "--grid", "10"), "--grid", "200x600"),
    (("circle-family", "--r1", "0.5", "--r2", "1.5", "--q", "const:1", "--n-circles", "3_2"),
     "--n-circles", "whole number"),
    (("qnorm", "--q", "const:1", "--r1", "0.5", "--r2", "1.5", "--samples", " 8"), "--samples", "whole number"),
    (("fmo", "--q", "const:1", "--eps-count", "8.5"), "--eps-count", "whole number"),
    (("distortion", "--map", "winding:3", "--grid", "3_3", "--out", "none"), "--grid", "whole number"),
    (("ring-modulus", "--r1", "0.5", "--r2", "1.5", "--grid", "0x30"), "--grid", "[1, 4096], not 0"),
    (("ring-modulus", "--r1", "0.5", "--r2", "1.5", "--grid", "5x2"), "--grid", "[4, 4096], not 2"),
    (("circle-family", "--r1", "0.5", "--r2", "1.5", "--q", "const:1", "--n-circles", "2"),
     "--n-circles", "[4, 4096], not 2"),
    (("qnorm", "--q", "const:1", "--r1", "0.5", "--r2", "1.5", "--samples", "-1"), "--samples", "[4, 4096], not -1"),
    (("fmo", "--q", "const:1", "--eps-count", "2"), "--eps-count", "[3, 4096], not 2"),
    (("distortion", "--map", "winding:3", "--grid", "3", "--out", "none"), "--grid", "[16, 4096], not 3"),
], ids=["ring-rings", "ring-sectors", "circle-family", "qnorm", "fmo", "distortion", "winding-order",
        "ring-underscores", "ring-space", "ring-one-count", "circle-family-underscore", "qnorm-space",
        "fmo-fraction", "distortion-underscore", "ring-no-rings", "ring-two-sectors", "circle-family-two",
        "qnorm-negative", "fmo-two", "distortion-three"])
def test_count_off_the_config_rule_is_refused(capsys, argv, flag, reason):
    # the rule, lower bound and cap of config grid counts; a typo such as --grid 20000x60000
    # would ask for ~1e9 cells
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("config error") and flag in err and reason in err


@pytest.mark.parametrize("argv", [
    ("ring-modulus", "--grid", "1x4"),
    ("circle-family", "--q", "const:1", "--n-circles", "4"),
    ("qnorm", "--q", "const:1", "--samples", "4"),
    ("fmo", "--q", "const:1", "--eps-count", "3"),
    ("distortion", "--map", "winding:3", "--grid", "16", "--out", "none"),
], ids=["ring-modulus", "circle-family", "qnorm", "fmo", "distortion"])
def test_count_at_its_lower_bound_runs(capsys, argv):
    radii = ("--r1", "0.5", "--r2", "1.5") if argv[0] in ("ring-modulus", "circle-family", "qnorm") else ()
    code, out, err = run_cli(capsys, *argv, *radii)
    assert code in (0, 1) and out and "error" not in err  # a coarse grid may miss --agree-tol


FINITE = "must be a finite number"


@pytest.mark.parametrize("argv, flag, reason", [
    (("ring-modulus", "--r1", "0.5", "--r2", "1_2", "--grid", "10x30"), "--r2", FINITE),
    (("ring-modulus", "--r1", " 0.5", "--r2", "1.5", "--grid", "10x30"), "--r1", FINITE),
    (("ring-modulus", "--r1", "0.5", "--r2", "1.5", "--grid", "10x30", "--agree-tol", "inf"), "--agree-tol", FINITE),
    (("circle-family", "--r1", "0.5", "--r2", "1.5 ", "--q", "const:1"), "--r2", FINITE),
    (("circle-family", "--r1", "0.5", "--r2", "1.5", "--q", "const:1", "--agree-tol", "Infinity"), "--agree-tol", FINITE),
    (("qnorm", "--q", "const:1", "--r1", "inf", "--r2", "1.5"), "--r1", FINITE),
    (("fmo", "--q", "const:1", "--eps-start", "0_4"), "--eps-start", FINITE),
    (("fmo", "--q", "const:1", "--eps-start", "NaN"), "--eps-start", FINITE),
    (("divergence", "--q", "const:1", "--r1", "0 ", "--r2", "1.5"), "--r1", FINITE),
    (("fmo", "--q", "const:1", "--center", "0.1_5"), "--center", FINITE),
    (("fmo", "--q", "const:1", "--center", " 0.15"), "--center", FINITE),
    (("fmo", "--q", "const:1", "--center", "inf"), "--center", FINITE),
    (("fmo", "--q", "const:1", "--center", "0.1+0.2j"), "--center", FINITE),
    (("fmo", "--q", "const:1", "--center", "[0.1, NaN]"), "--center", FINITE),
    (("ring-modulus", "--r1", "-0.5", "--r2", "1.5", "--grid", "10x30"), "--r1", "must be >= 0, not -0.5"),
    (("qnorm", "--q", "const:1", "--r1", "0.5", "--r2", "-1"), "--r2", "must be >= 0, not -1.0"),
    (("fmo", "--q", "const:1", "--eps-start", "-1"), "--eps-start", "must be > 0, not -1.0"),
    (("fmo", "--q", "const:1", "--eps-start", "0"), "--eps-start", "must be > 0, not 0.0"),
    (("ring-modulus", "--r1", "0.5", "--r2", "1.5", "--grid", "10x30", "--agree-tol", "-1"), "--agree-tol",
     "must be > 0, not -1.0"),
    (("circle-family", "--r1", "0.5", "--r2", "1.5", "--q", "const:1", "--agree-tol", "0"), "--agree-tol",
     "must be > 0, not 0.0"),
    (("ring-modulus", "--r1", "1.5", "--r2", "0.5", "--grid", "10x30"), "--r1",
     "1.5 and --r2 0.5: need 0 <= r_inner < r_outer"),
    (("ring-modulus", "--r1", "0.5", "--r2", "30", "--grid", "10x30"), "--r1",
     "0.5 and --r2 30.0: outer radius too close to the disk boundary"),
    (("circle-family", "--r1", "1.5", "--r2", "0.5", "--q", "const:1"), "--r1",
     "1.5 and --r2 0.5: need 0 <= r_inner < r_outer"),
    (("qnorm", "--q", "const:1", "--r1", "0.5", "--r2", "30"), "--r1",
     "0.5 and --r2 30.0: outer radius too close to the disk boundary"),
    (("divergence", "--q", "const:1", "--r1", "1.5", "--r2", "0.5"), "--r1",
     "1.5 and --r2 0.5: need 0 <= r_inner < r_outer"),
    (("fmo", "--q", "const:1", "--center", "2"), "--center", "must lie strictly inside the unit disk"),
    (("fmo", "--q", "const:1", "--center", "[0.99999999999, 0]"), "--center",
     "must lie strictly inside the unit disk"),
    (("fmo", "--q", "const:1", "--eps-start", "50"), "--eps-start",
     "50.0 and --eps-count 12: circle reaches the disk boundary"),
    (("fmo", "--q", "const:1", "--eps-start", "1e-4", "--eps-count", "12"), "--eps-start",
     "0.0001 and --eps-count 12: need at least 3 epsilons"),
    (("divergence", "--q", "const:1", "--r1", "1.4", "--r2", "1.5"), "--r1",
     "1.4 and --r2 1.5: epsilon sequence too short; widen the ring"),
], ids=["ring-underscore", "ring-space", "ring-inf-tol", "circle-family-space", "circle-family-infinity-tol",
        "qnorm-inf", "fmo-underscore", "fmo-nan", "divergence-space", "fmo-center-underscore", "fmo-center-space",
        "fmo-center-inf", "fmo-center-complex", "fmo-center-nan-part", "ring-negative-r1", "qnorm-negative-r2",
        "fmo-negative-eps", "fmo-zero-eps", "ring-negative-tol", "circle-family-zero-tol", "ring-reversed",
        "ring-past-rim", "circle-family-reversed", "qnorm-past-rim", "divergence-reversed", "fmo-center-outside",
        "fmo-center-near-rim", "fmo-eps-past-rim", "fmo-eps-at-floor", "divergence-thin-ring"])
def test_number_off_the_config_rule_is_refused(capsys, argv, flag, reason):
    # float() would read "1_2" as 12, and "inf" as a tolerance every solve meets; a radius
    # below 0 or a tolerance at 0 is refused by its flag, not by the library or the verdict,
    # and a value the library refuses is refused with the flags that spell it
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"config error: {flag} {reason}")


def test_radius_at_its_lower_bound_runs(capsys):
    code, out, err = run_cli(capsys, "divergence", "--q", "const:1", "--r1", "0", "--r2", "1.5")
    assert code == 0 and json.loads(out)["verdict"] == "diverges" and err == ""


def test_center_pair_is_a_point_off_the_axis(capsys):
    from modlab.criteria import default_epsilon_sequence, fmo_check
    from modlab.fields import parse_field

    code, out, err = run_cli(capsys, "fmo", "--q", "inv-r", "--center", "[0.1, 0.2]", "--eps-count", "4")
    want = fmo_check(parse_field("inv-r"), epsilons=default_epsilon_sequence(0.4, 4), center=0.1 + 0.2j)
    assert code == 0 and err == ""
    assert json.loads(out)["means"] == want.means.tolist()


def test_number_spellings_of_json_run(capsys):
    # an int, an exponent and a negative exponent are JSON numbers
    code, out, _ = run_cli(capsys, "ring-modulus", "--r1", "5e-1", "--r2", "1", "--grid", "20x60",
                           "--agree-tol", "1E-1")
    assert code == 0 and json.loads(out)["grid"] == [20, 60]


def test_count_at_the_config_cap_runs(capsys):
    code, out, _ = run_cli(capsys, "qnorm", "--q", "const:1", "--r1", "0.5", "--r2", "1.5",
                           "--samples", "4096", "--out", "csv")
    assert code == 0 and len(out.splitlines()) == 4097


class TestVerifyAndSuite:
    def test_verify_lower_q(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", "--config",
                               str(CONFIG_DIR / "experiments" / "lower_q_winding2.json"),
                               "--out-dir", str(tmp_path))
        assert code == 0
        data = json.loads(out)
        assert data["passed"]
        assert (tmp_path / "lower_q_winding2.json").exists()

    def test_verify_takes_no_kind(self, capsys):
        # the config names its kind; the positional that restated it is gone
        with pytest.raises(SystemExit) as info:
            main(["verify", "lower-q", "--config",
                  str(CONFIG_DIR / "experiments" / "lower_q_winding2.json")])
        assert info.value.code == 2
        assert "unrecognized arguments: lower-q" in capsys.readouterr().err

    def test_verify_refuses_mistyped_config(self, capsys, tmp_path):
        cfg = json.loads((CONFIG_DIR / "experiments" / "lower_q_winding2.json").read_text())
        cfg["map"]["k"] = 2.5
        (tmp_path / "lower_q_winding2.json").write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "verify", "--config",
                                 str(tmp_path / "lower_q_winding2.json"))
        assert code == 2 and out == ""
        assert "map.k must be a whole number" in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("name, change, key", [
        ("lower_q_identity", lambda cfg: cfg["grid"].update(n_circle=8), "n_circle"),
        ("lower_q_identity", lambda cfg: cfg.update(tolerance={"ratio_min": 2.0}), "tolerance"),
        ("lower_q_identity", lambda cfg: cfg["tolerances"].update(solver_tol=1e-6), "solver_tol"),
        ("boundary_mobius", lambda cfg: cfg.update(paths={"n_steps": 14}), "paths"),
        ("boundary_mobius", lambda cfg: cfg["map"].update(a_imag=0.5), "a_imag"),
    ], ids=["grid-n-circle", "top-level-tolerance", "removed-solver-tol", "removed-paths", "mobius-a-imag"])
    def test_verify_refuses_an_unknown_key(self, capsys, tmp_path, name, change, key):
        cfg = json.loads((CONFIG_DIR / "experiments" / f"{name}.json").read_text())
        change(cfg)
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "verify", "--config", str(tmp_path / f"{name}.json"))
        assert code == 2 and out == ""
        assert err.startswith("config error") and f"unknown key {key!r}" in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("section, key, value", [("ring", "r_inner", 0.0), ("tolerances", "ratio_max", 0.9)],
                             ids=["ring-from-origin", "empty-band"])
    def test_verify_refuses_a_lower_q_that_cannot_pass(self, capsys, tmp_path, section, key, value):
        # a ring from r = 0 compares different truncations, an empty band holds no ratio: refused at load
        cfg = json.loads((CONFIG_DIR / "experiments" / "lower_q_identity.json").read_text())
        cfg[section][key] = value
        (tmp_path / "lower_q_identity.json").write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "verify", "--config", str(tmp_path / "lower_q_identity.json"))
        assert code == 2 and out == ""
        assert err.startswith("config error") and f"{section}.{key}" in err
        assert not (tmp_path / "results").exists()

    def test_verify_missing_config(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "--config",
                               str(tmp_path / "nope.json"))
        assert code == 2

    def test_suite_missing_dir(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "suite", str(tmp_path / "absent"))
        assert code == 2

    def test_suite_empty_dir(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "suite", str(tmp_path), "--out-dir",
                             str(tmp_path / "results"))
        assert code == 0
        report = json.loads((tmp_path / "results" / "suite_report.json").read_text())
        assert report["records"] == []

    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    def test_suite_refuses_the_config_dir_as_out_dir(self, capsys, tmp_path, spelling):
        configs = tmp_path / "cfg"
        configs.mkdir()
        shipped = (CONFIG_DIR / "experiments" / "boundary_mobius.json").read_bytes()
        (configs / "boundary_mobius.json").write_bytes(shipped)
        out_dir = configs if spelling == "same" else tmp_path / "cfg" / ".." / "cfg"
        code, _, err = run_cli(capsys, "suite", str(configs), "--out-dir", str(out_dir))
        assert code == 2 and "is the config directory" in err
        assert sorted(p.name for p in configs.iterdir()) == ["boundary_mobius.json"]
        assert (configs / "boundary_mobius.json").read_bytes() == shipped

    def test_suite_isolates_bad_config(self, capsys, tmp_path):
        good = json.loads((CONFIG_DIR / "experiments" / "boundary_winding3.json").read_text())
        (tmp_path / "good.json").write_text(json.dumps(good))
        (tmp_path / "bad.json").write_text("{nope")
        for name, map_spec in (("unknown_map", {"kind": "mystery"}), ("missing_k", {"kind": "winding"})):
            (tmp_path / f"{name}.json").write_text(json.dumps({**good, "map": map_spec}))
        code, _, _ = run_cli(capsys, "suite", str(tmp_path), "--out-dir",
                             str(tmp_path / "results"))
        assert code == 1
        report = json.loads((tmp_path / "results" / "suite_report.json").read_text())
        statuses = {r["experiment_id"]: r["status"] for r in report["records"]}
        assert statuses["boundary_winding3"] == "ok"
        assert statuses["bad"] == "config_error"
        assert statuses["unknown_map"] == statuses["missing_k"] == "config_error"

    @pytest.mark.parametrize("bad", [
        "[1, 2]", {"boundary_point_angle": "0.5"}, {"map": {"kind": "winding", "k": 2.5}},
        {"boundary_point_angel": 0.5}, {"tolerances": {"contract_abs": 0.02}},
    ], ids=["top-level-array", "angle-a-string", "winding-k-fraction", "angle-misspelled",
            "removed-tolerances"])
    def test_suite_isolates_mistyped_config(self, capsys, tmp_path, bad):
        good = (CONFIG_DIR / "experiments" / "boundary_mobius.json").read_text()
        (tmp_path / "boundary_mobius.json").write_text(good)
        if not isinstance(bad, str):  # the good config with the bad values
            bad = json.dumps({**json.loads(good), "id": "bad", **bad})
        (tmp_path / "bad.json").write_text(bad)
        code, _, _ = run_cli(capsys, "suite", str(tmp_path), "--out-dir",
                             str(tmp_path / "results"))
        assert code == 1
        report = json.loads((tmp_path / "results" / "suite_report.json").read_text())
        assert [(r["experiment_id"], r["status"], r["passed"]) for r in report["records"]] == [
            ("bad", "config_error", False), ("boundary_mobius", "ok", True)]


    def test_suite_refuses_a_misspelled_grid_key(self, capsys, tmp_path):
        # grid.n_circle is no key: run on its defaults, the verdict would pass on 64 circles
        cfg = json.loads((CONFIG_DIR / "experiments" / "lower_q_identity.json").read_text())
        cfg["grid"]["n_circle"] = cfg["grid"].pop("n_circles")
        (tmp_path / "lower_q_identity.json").write_text(json.dumps(cfg))
        code, _, _ = run_cli(capsys, "suite", str(tmp_path), "--out-dir", str(tmp_path / "results"))
        assert code == 1
        [record] = json.loads((tmp_path / "results" / "suite_report.json").read_text())["records"]
        assert (record["experiment_id"], record["status"]) == ("lower_q_identity", "config_error")
        assert "grid has unknown key 'n_circle'" in record["error"]

    @pytest.mark.parametrize("eid", ["../escaped", 7, ["a"]], ids=["parent-dir", "number", "list"])
    def test_suite_refuses_an_id_that_is_no_file_name(self, capsys, tmp_path, eid):
        cfg = json.loads((CONFIG_DIR / "experiments" / "boundary_mobius.json").read_text())
        configs, out_dir = tmp_path / "configs", tmp_path / "out" / "inner"
        configs.mkdir()
        (configs / "escaped.json").write_text(json.dumps({**cfg, "id": eid}))
        code, _, _ = run_cli(capsys, "suite", str(configs), "--out-dir", str(out_dir))
        assert code == 1
        report = json.loads((out_dir / "suite_report.json").read_text())
        [record] = report["records"]
        assert (record["experiment_id"], record["status"]) == ("escaped", "config_error")
        assert "id must be a plain file name" in record["error"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["inner"]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "escaped.json", "suite_report.json", "suite_summary.csv"]


def test_closed_form_runs_load_no_scipy(tmp_path):
    """Only the iterative solve, for curves that share cells, imports scipy: start-up, the
    closed-form solve, ring-modulus and the shipped suite never do."""
    script = textwrap.dedent(f"""
        import sys
        import modlab, modlab.cli
        from modlab.modulus import grid_rays, modulus_discrete, polar_grid
        from modlab.quadrature import RingSpec

        dom = polar_grid(RingSpec(0.5, 1.5).band_edges(8), 16)
        assert modulus_discrete(grid_rays(dom), dom).stop_reason == "closed_form"
        assert modlab.cli.main(["ring-modulus", "--r1", "0.5", "--r2", "1.5", "--grid", "20x60"]) == 0
        assert modlab.cli.main(["suite", {str(CONFIG_DIR / "experiments")!r}, "--out-dir", {str(tmp_path)!r}]) == 0
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
        assert not loaded, loaded
    """)
    src = str(Path(modlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(modlab.__path__)))
def test_all_names_resolve(name):
    """`from modlab.<module> import *` cannot break on a stale `__all__` entry."""
    module = importlib.import_module(f"modlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing
