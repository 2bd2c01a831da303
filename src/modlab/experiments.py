"""End-to-end verification experiments and the suite runner.

Two experiment kinds, both driven by JSON configs:

* lower_q: the modulus of the pushed-forward ring circle family (LHS) against
  the reciprocal radial integral of the weight N * K_f (RHS). The theory
  guarantees LHS >= c * RHS with an unspecified constant, so the record
  reports the calibration ratio LHS/RHS, in band when ratio >= ratio_min
  (with an optional two-sided band for maps where the ratio should be 1).
  Its certificates: the solve, the sampled degree and the RHS refinement.

* boundary_ext: Cauchy-type probe of continuous extension at a boundary
  point. Points approach the boundary along several paths; the record tracks
  the Euclidean diameter of the image tails (the chart gauge in which a
  continuous extension to the closed disk is equivalent to contraction) and
  compares the observed behavior with the configured expectation.

Every per-kind decision is one row of `_KINDS`: the keys a kind reads, their
reader, the run and the plot. Every run ends in `_record`, the one gate and
the one record builder: a record passes when it is in band and all its
certificates hold, its `error` names every certificate that fails, and it
carries the run's time. lower_q measures f on its band radii once, at load
(`_image_ring`): the values that admit f are the image ring the run uses.

Every number in a record is traceable through its provenance block; records
are deterministic given the config, with volatile data (timestamp, runtime)
confined to the `meta` block. A config is checked when it is built, so a run
never meets a malformed one.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._io import MAX_COUNT, json_number, json_object, write_csv, write_json
from .criteria import divergence_check
from .diskgeom import euclid_radius, hyp_radius
from .fields import parse_field
from .mappings import (
    _DEGREE_RADIUS,
    SampleMap,
    _cabs,
    _refuse_sense_reversing,
    dilatation,
    map_from_config,
    multiplicity,
)
from .modulus import grid_circles, modulus_discrete, polar_grid
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


_RADIAL_TOL = 1e-12  # the largest spread of |f| on a band circle |z| = R, relative to |f(R)|
_RHS_DELTA_MAX = 1e-6  # largest refinement delta / rhs of a passing lower_q verdict
_SOLVER_TOL = 1e-6  # the relative duality gap of the lower_q modulus solve
# the boundary probe's paths: n_steps points each, at |z| = 1 - delta0 * 2**-k,
# k < n_steps, one radial and two tilted by +-beta; the deepest is 1 - 0.3 * 2**-13
_PATH_N_STEPS, _PATH_DELTA0, _PATH_BETA = 14, 0.3, 0.3
_CONTRACT_ABS, _CONTRACT_RATIO = 0.02, 0.1  # a tail diameter below both has contracted


class ConfigError(ValueError):
    """An experiment config is malformed or references something unknown."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked once, when built (a ConfigError says why it
    cannot run). `settings` holds the config's keys other than id, kind and
    map; the kind's row of `_KINDS` names the keys it reads and parses them
    into `params`, kept for the run with the parsed map."""

    experiment_id: str
    kind: str
    map_spec: dict
    settings: dict = field(default_factory=dict)
    sample_map: SampleMap = field(init=False, compare=False, repr=False)
    params: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        eid = self.experiment_id  # names the run's output files
        if not isinstance(eid, str) or eid in ("", ".", "..") or any(c in eid for c in "/\\\0"):
            raise ConfigError(f"id must be a plain file name, not {eid!r}")
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; known kinds: {', '.join(sorted(_KINDS))}")
        keys, read, _, _ = _KINDS[self.kind]
        try:
            settings = json_object(self.settings, f"{self.kind} config", keys)
            f = map_from_config(self.map_spec)
            params = read(settings, f)
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:  # ConfigError included
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "sample_map", f)
        object.__setattr__(self, "params", params)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """Read and build a config; every failure is a ConfigError naming the path."""
        try:
            data = json.loads(Path(path).read_text())
            eid, kind, map_spec = data["id"], data["kind"], data["map"]
            return cls(experiment_id=eid, kind=kind, map_spec=map_spec,
                       settings={key: value for key, value in data.items() if key not in ("id", "kind", "map")})
        except KeyError as exc:
            raise ConfigError(f"config {path} missing field {exc}") from exc
        except (OSError, TypeError, ValueError) as exc:  # unreadable, not JSON or not an object; ConfigError
            raise ConfigError(f"config {path}: {exc}") from exc


def _section(value, name: str, known) -> dict:
    """An optional config section: {} when absent (None), else by `json_object`."""
    return {} if value is None else json_object(value, name, known)


def _grid_count(grid: dict, key: str, default: int, low: int) -> int:
    """grid[key], or the default when absent, as an int in [low, MAX_COUNT]."""
    count = json_number(grid.get(key, default), f"grid.{key}", whole=True)
    if not low <= count <= MAX_COUNT:
        raise ConfigError(f"grid.{key} must lie in [{low}, {MAX_COUNT}], not {count}")
    return count


def _read_lower_q(settings: dict, f: SampleMap) -> tuple:
    """(ring, image band edges, image circle radii, n_theta, n_profile,
    ratio_min, ratio_max) of a lower_q experiment, the image ring by
    `_image_ring`, or a ConfigError why it cannot run."""
    if settings.get("ring") is None:
        raise ConfigError("lower_q needs a ring")
    ring = json_object(settings["ring"], "ring", ("r_inner", "r_outer"))
    ring = RingSpec(*(json_number(ring.get(key), f"ring.{key}") for key in ("r_inner", "r_outer")))
    if ring.r_inner == 0.0:
        # the circles start at the first band center, the RHS at r_outer * 1e-6: for a K bounded
        # near 0 the two truncations differ without bound, and the ratio means nothing
        raise ConfigError("lower_q needs ring.r_inner > 0: its LHS circles start at the first band center "
                          "but its RHS integral starts at r_outer * 1e-6, so their ratio compares different rings")
    if euclid_radius(ring.r_outer) >= _DEGREE_RADIUS:
        raise ConfigError(f"ring.r_outer {ring.r_outer} (Euclidean {euclid_radius(ring.r_outer)}) must lie inside "
                          f"the degree certificate's circle |z| = {_DEGREE_RADIUS} (r = {hyp_radius(_DEGREE_RADIUS)})")
    grid = _section(settings.get("grid"), "grid", ("n_circles", "n_theta", "n_profile"))
    n_circles = _grid_count(grid, "n_circles", 64, 1)
    n_theta = _grid_count(grid, "n_theta", 256, 16)  # also the angular samples of the RHS profile
    n_profile = _grid_count(grid, "n_profile", 32, 8)  # Gauss-Legendre nodes of the RHS
    tolerances = _section(settings.get("tolerances"), "tolerances", ("ratio_min", "ratio_max"))
    ratio_min = json_number(tolerances.get("ratio_min", 0.95), "tolerances.ratio_min")
    ratio_max = json_number(tolerances.get("ratio_max"), "tolerances.ratio_max", optional=True)
    if ratio_max is not None and ratio_max < ratio_min:
        raise ConfigError(f"tolerances.ratio_max {ratio_max} is below tolerances.ratio_min {ratio_min}: "
                          "no ratio is in band")
    return (ring, *_image_ring(f, ring, n_circles), n_theta, n_profile, ratio_min, ratio_max)


def _image_ring(f: SampleMap, ring: RingSpec, n_circles: int) -> tuple:
    """(the image band edges as hyperbolic radii, the image circle radii) of
    the ring's n_circles bands under f, or a ConfigError unless f fixes 0
    radially there. |f| is measured once, on the circles |z| = R at the band
    edges and centers, interleaved e0, c0, e1, ..., e_n, at 8 multiples of the
    golden angle (no integer winding order k sends them all to one point, as
    e^{ik 2πj/8} does for k a multiple of 8). On each circle |f| must spread by
    at most _RADIAL_TOL * |f(R)|, |f(R)| must rise strictly with R, and J >= 0
    there and on the distortion lattice. Such an f takes |z| = R to the circle
    |w| = |f(R)|, run f.degree times, so the angle-0 column is the image ring:
    the source grid carried by f (even rows), each image circle (odd rows)
    inside its own band."""
    r = np.empty(2 * n_circles + 1)
    r[0::2], r[1::2] = ring.band_edges(n_circles), ring.band_centers(n_circles)
    R = np.array([euclid_radius(x) for x in r])
    z = (R[:, None] * np.exp(1j * math.pi * (3.0 - math.sqrt(5.0)) * np.arange(8))).ravel()
    w = _cabs(f(z)).reshape(len(R), 8)
    spread = w.max(axis=1) - w.min(axis=1)
    if np.any(spread > _RADIAL_TOL * w[:, 0]) or not np.all(np.diff(w[:, 0]) > 0.0):
        raise ConfigError(f"lower_q needs a map that fixes 0 radially, but on the band circles |z| = R "
                          f"|{f.label}| spreads by up to {spread.max():.3g} or does not rise strictly with R")
    _refuse_sense_reversing(f, z)
    image = w[:, 0].tolist()  # angle 0: z = R exactly
    return [hyp_radius(x) for x in image[0::2]], image[1::2]


def _read_boundary_ext(settings: dict, f: SampleMap) -> tuple:
    """(boundary_point_angle, expected, q_majorant spec, its parsed field) of a
    boundary_ext experiment, or a ConfigError why it cannot run."""
    angle = json_number(settings.get("boundary_point_angle"), "boundary_point_angle", optional=True) or 0.0
    expected = settings.get("expected")
    if expected not in (None, "extends", "no_limit"):
        raise ConfigError(f"expected must be 'extends' or 'no_limit', not {expected!r}")
    q_spec = settings.get("q_majorant")
    return angle, expected or "extends", q_spec, None if q_spec is None else parse_field(q_spec)


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
        # shallow: `asdict` would deep-copy the provenance only for the writer to read it
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        runtime_seconds = data.pop("runtime_seconds")
        data["schema_version"] = 1
        if with_meta:
            data["meta"] = {"timestamp": datetime.now(timezone.utc).isoformat(), "runtime_seconds": runtime_seconds}
        return data

    def write(self, path) -> None:
        write_json(self.to_json_dict(), path)


def distortion_weight_field(f: SampleMap, n_factor: float) -> ScalarField:
    """The weight n_factor * K_f(z) as a chart field, from the map's analytic
    Wirtinger data; inf where J = 0."""

    return ScalarField(lambda z: n_factor * dilatation(f, z), label=f"{n_factor:g}*K[{f.label}]")


def _record(cfg: ExperimentConfig, t0: float, lhs, rhs, ratio, in_band, certificates, tolerance: dict,
            provenance: dict) -> VerdictRecord:
    """The record of a run of cfg begun at perf_counter t0, the one gate of
    every verdict: it passes when its figure is in band and every
    certificate, a (holds, reason) pair, holds; `error` joins the reason of
    every certificate that fails by "; ", None when none fails."""
    failing = [reason for holds, reason in certificates if not holds]
    return VerdictRecord(experiment_id=cfg.experiment_id, kind=cfg.kind, status="ok", lhs=lhs, rhs=rhs, ratio=ratio,
                         passed=bool(in_band) and not failing, tolerance=tolerance, provenance=provenance,
                         error="; ".join(failing) or None, runtime_seconds=time.perf_counter() - t0)


def run_lower_q_verification(cfg: ExperimentConfig) -> VerdictRecord:
    """LHS = discrete modulus of the image circle family f(Σ);
    RHS = reciprocal radial integral with weight N(f) * K_f on the source ring,
    by Gauss-Legendre in log r at n_profile nodes. The RHS at n_profile // 2
    nodes gives the refinement delta |Q_n - Q_{n/2}|; above _RHS_DELTA_MAX
    relative to the RHS it fails the verdict. N is the analytic degree; the
    verdict fails unless `multiplicity` certifies it as the degree of f at
    three spot targets."""
    t0 = time.perf_counter()
    f = cfg.sample_map
    ring, edges, radii, n_theta, n_profile, ratio_min, ratio_max = cfg.params
    degree = f.degree
    spot_targets = [0.25 * euclid_radius(ring.r_outer) * np.exp(2j * math.pi * j / 3)
                    for j in range(3)]
    spot = multiplicity(f, spot_targets)
    weight = distortion_weight_field(f, float(degree))
    profile = qnorm_profile(weight, ring, n_samples=n_profile, n_angular=n_theta)
    rhs = ring_reciprocal_integral(profile)
    # the same rule at half the nodes: a weight that is not smooth in r shows here
    rhs_delta = abs(rhs - ring_reciprocal_integral(
        qnorm_profile(weight, ring, n_samples=n_profile // 2, n_angular=n_theta)))

    dom_img = polar_grid(edges, n_theta)
    fam = grid_circles(dom_img, radii, multiplicity=degree)
    result = modulus_discrete(fam, dom_img, metric="hyperbolic", tol=_SOLVER_TOL)
    lhs = result.value

    ratio = lhs / rhs
    in_band = ratio >= ratio_min and (ratio_max is None or ratio <= ratio_max)
    # a ratio proves nothing without a certified LHS, the weight N assumes the
    # analytic degree, and the RHS must be resolved by its quadrature (not NaN)
    certificates = (
        (result.converged, f"modulus solve not certified: stop_reason {result.stop_reason!r}, "
                           f"duality gap {result.duality_gap!r}"),
        (not spot.incomplete and spot.supremum == degree,
         f"sampled degree not certified: supremum {spot.supremum} against analytic "
         f"degree {degree}, incomplete {spot.incomplete}"),
        (rhs_delta <= _RHS_DELTA_MAX * rhs,
         f"rhs quadrature not converged: refinement_delta {rhs_delta!r} between "
         f"{n_profile} and {n_profile // 2} nodes exceeds {_RHS_DELTA_MAX:g} * rhs"),
    )
    provenance = {
        "map": cfg.map_spec,
        "ring": {"r_inner": ring.r_inner, "r_outer": ring.r_outer},
        "image_ring": {"r_inner": edges[0], "r_outer": edges[-1]},
        "degree_analytic": degree,
        "degree_sampled": {
            "module": "mappings.multiplicity",
            "targets": [[t.real, t.imag] for t in spot.targets],
            "counts": list(spot.counts),
            "supremum": spot.supremum,
            "incomplete": spot.incomplete,
            "samples": spot.samples,
            # known to about 1e-16 rad, hundreds of its ulps, as atan2 differs
            # by an ulp between builds: ten digits give every host one record
            "max_step": float(f"{spot.max_step:.10g}"),
            "min_distance": list(spot.min_distance),
        },
        "rhs": {
            "module": "quadrature.qnorm_profile + ring_reciprocal_integral",
            "weight": weight.label,
            "n_samples": n_profile,
            "n_angular": n_theta,
            "refinement_delta": rhs_delta,
            "profile_radii": profile.radii[:: max(1, n_profile // 64)],
            "profile_qnorm": profile.values[:: max(1, n_profile // 64)],
        },
        "lhs": {
            "module": "modulus.modulus_discrete",
            "n_circles": len(radii),
            "n_theta": n_theta,
            "multiplicities": list(fam.multiplicities[:4]) + (["..."] if len(fam) > 4 else []),
            "iterations": result.iterations,
            "max_constraint_violation": result.max_constraint_violation,
            "duality_gap": result.duality_gap,
            "stop_reason": result.stop_reason,
            "converged": result.converged,
        },
    }
    return _record(cfg, t0, lhs, rhs, ratio, in_band, certificates,
                   {"ratio_min": ratio_min, "ratio_max": ratio_max}, provenance)


def run_boundary_extension_probe(cfg: ExperimentConfig) -> VerdictRecord:
    """Tail-diameter Cauchy probe of continuous extension at a boundary point."""
    t0 = time.perf_counter()
    angle, expected, q_spec, majorant = cfg.params
    zeta = np.exp(1j * angle)
    deltas = _PATH_DELTA0 * 0.5 ** np.arange(_PATH_N_STEPS)

    # three approach paths: radial plus two tilted spirals closing onto zeta
    path_points = []
    for b in (0.0, _PATH_BETA, -_PATH_BETA):
        pts = (1.0 - deltas) * zeta * np.exp(1j * b * deltas)
        path_points.append(cfg.sample_map(pts))
    images = np.stack(path_points)  # (3, _PATH_N_STEPS)

    # tail diameters need at least two depth indices: a single-index tail sees
    # only the common rotation of the paths and misses along-path drift
    residuals = []
    for k in range(_PATH_N_STEPS - 1):
        tail = images[:, k:].ravel()
        diam = float(np.max(np.abs(tail[:, None] - tail[None, :])))
        residuals.append(diam)
    residuals = np.array(residuals)

    majorant_verdict = None if majorant is None else divergence_check(majorant, RingSpec(0.0, 0.5)).verdict

    start = max(residuals[0], 1e-300)
    contracted = residuals[-1] <= _CONTRACT_ABS and residuals[-1] / start <= _CONTRACT_RATIO
    observed = "extends" if contracted else "no_limit"
    provenance = {
        "map": cfg.map_spec,
        "boundary_point": [zeta.real, zeta.imag],
        "deltas": deltas[: len(residuals)],
        "tail_diameters": residuals,
        "q_majorant": q_spec,
        "q_majorant_divergence": majorant_verdict,
        "observed": observed,
        "expected": expected,
        "gauge": "euclidean chart distance (tail diameter over all paths)",
    }
    return _record(cfg, t0, float(residuals[-1]), float(residuals[0]), float(residuals[-1] / start),
                   observed == expected, (), {"contract_abs": _CONTRACT_ABS, "contract_ratio": _CONTRACT_RATIO},
                   provenance)


def _plot_lower_q(record: VerdictRecord) -> str:
    rhs = record.provenance["rhs"]
    return line_plot_svg([("||Q||(r)", rhs["profile_radii"], rhs["profile_qnorm"])], xlabel="r", ylabel="||Q||",
                         title=f"{record.experiment_id}: circle norm of the distortion weight")


def _plot_boundary_ext(record: VerdictRecord) -> str:
    diam = [max(d, 1e-16) for d in record.provenance["tail_diameters"]]
    return line_plot_svg([("tail diameter", record.provenance["deltas"], diam)], xlabel="delta", ylabel="diameter",
                         title=f"{record.experiment_id}: image tail diameter", logx=True, logy=True)


# every per-kind decision: kind -> (the config keys it reads besides id, kind and map,
# the reader of those keys into params, the run, the plot of its record); the runs
# are looked up by name at call time, so a wrapper set on the module sees each call
_KINDS = {
    "lower_q": (("ring", "grid", "tolerances"), _read_lower_q,
                lambda cfg: run_lower_q_verification(cfg), _plot_lower_q),
    "boundary_ext": (("boundary_point_angle", "expected", "q_majorant"), _read_boundary_ext,
                     lambda cfg: run_boundary_extension_probe(cfg), _plot_boundary_ext),
}


def run_experiment(cfg: ExperimentConfig) -> VerdictRecord:
    return _KINDS[cfg.kind][2](cfg)


def _write_artifacts(record: VerdictRecord, out_dir: Path) -> None:
    record.write(out_dir / f"{record.experiment_id}.json")
    if record.status == "ok":
        write_svg(_KINDS[record.kind][3](record), out_dir / f"{record.experiment_id}.svg")


def run_suite(config_dir, out_dir=None) -> int:
    """Run every *.json experiment in a directory.

    One failing or malformed experiment does not stop the others. Writes
    per-experiment records plus suite_report.json and suite_summary.csv.
    Configs run in file-name order; a config whose id names an earlier
    record or a suite output file is a config_error, and a config_error
    record is named by its file stem, suffixed -2, -3, ... where that is
    taken, so no output file is written twice. An output directory that is
    the config directory is refused (ConfigError) before anything is written.
    Returns 0 only if every experiment ran and passed.
    """
    config_dir = Path(config_dir)
    out_dir = Path(out_dir) if out_dir is not None else config_dir / "results"
    if out_dir.resolve() == config_dir.resolve():
        raise ConfigError(f"output directory {out_dir} is the config directory {config_dir}: "
                          "the records would overwrite the configs")
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    taken = {"suite_report", "suite_summary"}  # output file stems already claimed
    for path in sorted(config_dir.glob("*.json")):
        try:
            cfg = ExperimentConfig.from_json(path)
            if cfg.experiment_id in taken:
                raise ConfigError(f"config {path}: id {cfg.experiment_id!r} is taken by an "
                                  "earlier record or a suite output file")
        except ConfigError as exc:
            stem, k = path.stem, 1
            while stem in taken:
                k += 1
                stem = f"{path.stem}-{k}"
            records.append(VerdictRecord(
                experiment_id=stem, kind="unknown", status="config_error",
                error=str(exc),
            ))
            taken.add(stem)
            continue
        taken.add(cfg.experiment_id)
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
