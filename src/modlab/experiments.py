"""End-to-end verification experiments and the suite runner.

Two experiment kinds, both driven by JSON configs:

* lower_q: the modulus of the pushed-forward ring circle family (LHS) against
  the reciprocal radial integral of the weight N * K_f (RHS). The theory
  guarantees LHS >= c * RHS with an unspecified constant, so the record
  reports the calibration ratio LHS/RHS and passes on ratio >= ratio_min
  (with an optional two-sided band for maps where the ratio should be 1).

* boundary_ext: Cauchy-type probe of continuous extension at a boundary
  point. Points approach the boundary along several paths; the record tracks
  the Euclidean diameter of the image tails (the chart gauge in which a
  continuous extension to the closed disk is equivalent to contraction) and
  compares the observed behavior with the configured expectation.

Every number in a record is traceable through its provenance block; records
are deterministic given config + seed, with volatile data (timestamp,
runtime) confined to the `meta` block.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._io import write_csv, write_json
from .criteria import divergence_check
from .fields import parse_field
from .mappings import (
    SampleMap,
    dilatation,
    map_from_config,
    multiplicity,
    pushforward_polylines,
)
from .modulus import (
    circle_family,
    modulus_discrete,
    polar_grid_from_band_centers,
    rasterize_family,
)
from .quadrature import RingSpec, ScalarField, qnorm_profile, ring_reciprocal_integral
from .svgplot import line_plot_svg, write_svg

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "VerdictRecord",
    "distortion_weight_field",
    "run_lower_q_verification",
    "run_boundary_extension_probe",
    "run_experiment",
    "run_suite",
]


class ConfigError(ValueError):
    """An experiment config is malformed or references something unknown."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    kind: str  # "lower_q" | "boundary_ext"
    map_spec: dict
    ring: dict = None
    grid: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)
    boundary_point_angle: float = 0.0
    q_majorant: str = None
    expected: str = None  # boundary_ext: "extends" | "no_limit"
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str = None

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            kind = data["kind"]
            if kind not in ("lower_q", "boundary_ext"):
                raise ConfigError(f"unknown experiment kind {kind!r}")
            cfg = cls(
                experiment_id=data["id"],
                kind=kind,
                map_spec=data["map"],
                ring=data.get("ring"),
                grid=data.get("grid", {}),
                paths=data.get("paths", {}),
                boundary_point_angle=float(data.get("boundary_point_angle", 0.0)),
                q_majorant=data.get("q_majorant"),
                expected=data.get("expected"),
                tolerances=data.get("tolerances", {}),
                seed=int(data.get("seed", 0)),
                out_dir=data.get("out_dir"),
            )
        except KeyError as exc:
            raise ConfigError(f"config {path} missing field {exc}") from exc
        if kind == "lower_q" and cfg.ring is None:
            raise ConfigError(f"config {path}: lower_q needs a ring")
        # resolve references eagerly so bad specs fail at load time
        try:
            map_from_config(cfg.map_spec)
            if cfg.q_majorant is not None:
                parse_field(cfg.q_majorant)
        except ValueError as exc:
            raise ConfigError(f"config {path}: {exc}") from exc
        resolutions = [v for v in cfg.grid.values() if isinstance(v, (int, float))]
        if any(v > 4096 for v in resolutions):
            raise ConfigError(f"config {path}: grid resolution exceeds the 4096 cap")
        return cfg


@dataclass
class VerdictRecord:
    experiment_id: str
    kind: str
    status: str  # "ok" | "error" | "config_error"
    lhs: float = None
    rhs: float = None
    ratio: float = None
    passed: bool = False
    tolerance: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    error: str = None
    runtime_seconds: float = 0.0

    def to_json_dict(self, with_meta: bool = True) -> dict:
        data = {
            "schema_version": 1,
            "experiment_id": self.experiment_id,
            "kind": self.kind,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "provenance": self.provenance,
            "error": self.error,
        }
        if with_meta:
            data["meta"] = {
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "runtime_seconds": self.runtime_seconds,
            }
        return data

    def write(self, path) -> None:
        write_json(self.to_json_dict(), path)


def distortion_weight_field(f: SampleMap, n_factor: float) -> ScalarField:
    """The weight n_factor * K_f(z) as a chart field, from analytic Wirtinger
    data when available and central differences otherwise; inf where J = 0."""

    def evaluate(z):
        return n_factor * dilatation(f, np.atleast_1d(np.asarray(z, dtype=complex)))

    return ScalarField(evaluate, label=f"{n_factor:g}*K[{f.label}]")


def run_lower_q_verification(cfg: ExperimentConfig) -> VerdictRecord:
    """LHS = discrete modulus of the pushed-forward circle family;
    RHS = reciprocal radial integral with weight N(f) * K_f on the source ring."""
    t0 = time.perf_counter()
    f = map_from_config(cfg.map_spec)
    ring = RingSpec(float(cfg.ring["r_inner"]), float(cfg.ring["r_outer"]))
    n_circles = int(cfg.grid.get("n_circles", 64))
    n_theta = int(cfg.grid.get("n_theta", 256))
    n_profile = int(cfg.grid.get("n_profile", 512))
    tol = float(cfg.tolerances.get("solver_tol", 1e-6))

    degree = f.degree
    spot_targets = [0.25 * math.tanh(0.5 * ring.r_outer) * np.exp(2j * math.pi * j / 3)
                    for j in range(3)]
    spot = multiplicity(f, spot_targets, seed_grid=24)
    weight = distortion_weight_field(f, float(degree))
    profile = qnorm_profile(weight, ring, n_samples=n_profile, n_angular=n_theta)
    rhs = ring_reciprocal_integral(profile)

    source = circle_family(ring, n_circles, n_vertices=4 * n_theta)
    image = pushforward_polylines(f, source)
    r1_img = 2.0 * math.atanh(abs(f.apply(complex(math.tanh(0.5 * ring.r_inner), 0.0))))
    r2_img = 2.0 * math.atanh(abs(f.apply(complex(math.tanh(0.5 * ring.r_outer), 0.0))))
    dom_img = polar_grid_from_band_centers(image.circle_radii, r1_img, r2_img, n_theta)
    fam = rasterize_family(image, dom_img)
    result = modulus_discrete(fam, dom_img, metric="hyperbolic", tol=tol)
    lhs = result.value

    ratio = lhs / rhs
    ratio_min = float(cfg.tolerances.get("ratio_min", 0.95))
    ratio_max = cfg.tolerances.get("ratio_max")
    passed = ratio >= ratio_min and (ratio_max is None or ratio <= float(ratio_max))
    record = VerdictRecord(
        experiment_id=cfg.experiment_id,
        kind="lower_q",
        status="ok",
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        passed=bool(passed),
        tolerance={"ratio_min": ratio_min, "ratio_max": ratio_max},
        provenance={
            "map": cfg.map_spec,
            "ring": {"r_inner": ring.r_inner, "r_outer": ring.r_outer},
            "image_ring": {"r_inner": r1_img, "r_outer": r2_img},
            "degree_analytic": degree,
            "degree_sampled": {
                "module": "mappings.multiplicity",
                "targets": [[t.real, t.imag] for t in spot.targets],
                "counts": list(spot.counts),
                "supremum": spot.supremum,
            },
            "rhs": {
                "module": "quadrature.qnorm_profile + ring_reciprocal_integral",
                "weight": weight.label,
                "n_samples": n_profile,
                "n_angular": n_theta,
                "profile_radii": [float(r) for r in profile.radii[:: max(1, n_profile // 64)]],
                "profile_qnorm": [float(v) for v in profile.values[:: max(1, n_profile // 64)]],
            },
            "lhs": {
                "module": "modulus.modulus_discrete",
                "n_circles": n_circles,
                "n_theta": n_theta,
                "multiplicities": list(fam.multiplicities[:4]) + (["..."] if len(fam) > 4 else []),
                "iterations": result.iterations,
                "max_constraint_violation": result.max_constraint_violation,
                "duality_gap": result.duality_gap,
                "converged": result.converged,
            },
        },
    )
    record.runtime_seconds = time.perf_counter() - t0
    return record


def run_boundary_extension_probe(cfg: ExperimentConfig) -> VerdictRecord:
    """Tail-diameter Cauchy probe of continuous extension at a boundary point."""
    t0 = time.perf_counter()
    f = map_from_config(cfg.map_spec)
    zeta = np.exp(1j * cfg.boundary_point_angle)
    n_steps = int(cfg.paths.get("n_steps", 14))
    delta0 = float(cfg.paths.get("delta0", 0.3))
    beta = float(cfg.paths.get("beta", 0.3))
    deltas = delta0 * 0.5 ** np.arange(n_steps)

    # three approach paths: radial plus two tilted spirals closing onto zeta
    path_points = []
    for b in (0.0, beta, -beta):
        pts = (1.0 - deltas) * zeta * np.exp(1j * b * deltas)
        path_points.append(f._apply(pts.astype(complex)))
    images = np.stack(path_points)  # (3, n_steps)

    # tail diameters need at least two depth indices: a single-index tail sees
    # only the common rotation of the paths and misses along-path drift
    residuals = []
    for k in range(n_steps - 1):
        tail = images[:, k:].ravel()
        diam = float(np.max(np.abs(tail[:, None] - tail[None, :])))
        residuals.append(diam)
    residuals = np.array(residuals)

    majorant_verdict = None
    if cfg.q_majorant is not None:
        majorant_verdict = divergence_check(
            parse_field(cfg.q_majorant), RingSpec(0.0, 0.5)
        ).verdict

    contract_abs = float(cfg.tolerances.get("contract_abs", 0.02))
    contract_ratio = float(cfg.tolerances.get("contract_ratio", 0.1))
    start = max(residuals[0], 1e-300)
    contracted = residuals[-1] <= contract_abs and residuals[-1] / start <= contract_ratio
    observed = "extends" if contracted else "no_limit"
    expected = cfg.expected or "extends"
    record = VerdictRecord(
        experiment_id=cfg.experiment_id,
        kind="boundary_ext",
        status="ok",
        lhs=float(residuals[-1]),
        rhs=float(residuals[0]),
        ratio=float(residuals[-1] / start),
        passed=bool(observed == expected),
        tolerance={"contract_abs": contract_abs, "contract_ratio": contract_ratio},
        provenance={
            "map": cfg.map_spec,
            "boundary_point": [float(zeta.real), float(zeta.imag)],
            "deltas": list(map(float, deltas[: len(residuals)])),
            "tail_diameters": list(map(float, residuals)),
            "q_majorant": cfg.q_majorant,
            "q_majorant_divergence": majorant_verdict,
            "observed": observed,
            "expected": expected,
            "gauge": "euclidean chart distance (tail diameter over all paths)",
        },
    )
    record.runtime_seconds = time.perf_counter() - t0
    return record


def run_experiment(cfg: ExperimentConfig) -> VerdictRecord:
    if cfg.kind == "lower_q":
        return run_lower_q_verification(cfg)
    if cfg.kind == "boundary_ext":
        return run_boundary_extension_probe(cfg)
    raise ConfigError(f"unknown experiment kind {cfg.kind!r}")


def _write_artifacts(record: VerdictRecord, out_dir: Path) -> None:
    rid = record.experiment_id
    record.write(out_dir / f"{rid}.json")
    if record.status != "ok":
        return
    if record.kind == "boundary_ext":
        deltas = record.provenance["deltas"]
        diam = record.provenance["tail_diameters"]
        svg = line_plot_svg(
            [("tail diameter", deltas, [max(d, 1e-16) for d in diam])],
            title=f"{rid}: image tail diameter",
            xlabel="delta", ylabel="diameter", logx=True, logy=True,
        )
        write_svg(svg, out_dir / f"{rid}.svg")
    elif record.kind == "lower_q":
        radii = record.provenance["rhs"]["profile_radii"]
        qnorm = record.provenance["rhs"]["profile_qnorm"]
        svg = line_plot_svg(
            [("||Q||(r)", radii, qnorm)],
            title=f"{rid}: circle norm of the distortion weight",
            xlabel="r", ylabel="||Q||",
        )
        write_svg(svg, out_dir / f"{rid}.svg")


def run_suite(config_dir, out_dir=None) -> int:
    """Run every *.json experiment in a directory.

    One failing or malformed experiment does not stop the others. Writes
    per-experiment records plus suite_report.json and suite_summary.csv.
    Returns 0 only if every experiment ran and passed.
    """
    config_dir = Path(config_dir)
    out_dir = Path(out_dir) if out_dir is not None else config_dir / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for path in sorted(config_dir.glob("*.json")):
        try:
            cfg = ExperimentConfig.from_json(path)
        except ConfigError as exc:
            records.append(VerdictRecord(
                experiment_id=path.stem, kind="unknown", status="config_error",
                error=str(exc),
            ))
            continue
        try:
            records.append(run_experiment(cfg))
        except Exception as exc:  # isolation: record and continue
            records.append(VerdictRecord(
                experiment_id=cfg.experiment_id, kind=cfg.kind, status="error",
                error=f"{type(exc).__name__}: {exc}",
            ))

    for record in records:
        try:
            _write_artifacts(record, out_dir)
        except Exception as exc:  # a plotting failure must not sink the suite
            record.status = "error"
            record.error = f"artifact write failed: {type(exc).__name__}: {exc}"
    summary = {
        "schema_version": 1,
        "n_experiments": len(records),
        "n_passed": sum(1 for r in records if r.status == "ok" and r.passed),
        "records": [r.to_json_dict(with_meta=False) for r in records],
    }
    write_json(summary, out_dir / "suite_report.json")
    write_csv(out_dir / "suite_summary.csv",
              ("experiment_id", "kind", "status", "lhs", "rhs", "ratio", "passed"),
              ((r.experiment_id, r.kind, r.status, r.lhs, r.rhs, r.ratio, int(r.passed))
               for r in records))
    all_ok = all(r.status == "ok" and r.passed for r in records)
    return 0 if all_ok else 1
