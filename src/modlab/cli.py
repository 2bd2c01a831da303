"""Command-line interface.

Subcommands cover the ring modulus, the weighted circle-family modulus,
radial Q-norm profiles, FMO and divergence verdicts, Dirichlet-domain
rendering, distortion sweeps, single experiment verification and the suite
runner. Exit codes: 0 pass, 1 any failure, 2 config/usage error or a field
that `fmo` refuses as not integrable.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ._io import MAX_COUNT, json_number, json_text, spec_argument
from .criteria import NotIntegrableError, default_epsilon_sequence, divergence_check, fmo_check
from .diskgeom import mobius_apply
from .experiments import ExperimentConfig, run_experiment, run_suite
from .fields import parse_field
from .fuchsian import build_dirichlet_domain, dirichlet_boundary, enumerate_elements, load_group
from .mappings import distortion_sweep, finite_distortion_check, parse_map
from .modulus import (
    circle_family_modulus,
    density_to_svg,
    grid_rays,
    modulus_discrete,
    polar_grid,
    ring_modulus_exact,
)
from .quadrature import RingSpec, qnorm_profile
from .svgplot import disk_scene_svg, line_plot_svg, write_svg

SCHEMA_VERSION = 1
_RING_TOL = 1e-5  # ring-modulus solver tolerance; its rays meet no common cell, so the solve is closed form


def _write(text: str, out_file=None) -> None:
    """The one output path: to the file when given, else to stdout, the same bytes."""
    if out_file:
        Path(out_file).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(data: dict, out_file=None) -> None:
    _write(json_text({"schema_version": SCHEMA_VERSION, **data}), out_file)


def _count(text: str, flag: str) -> int:
    """A count given on the command line, read as a config count is: the JSON
    number its text spells (`spec_argument`), a whole one (`json_number`, so
    "1_0" and " 8" are refused by the flag's name), at most the cap."""
    value = json_number(spec_argument(text), flag, whole=True)
    if value > MAX_COUNT:
        raise ValueError(f"{flag} must be at most {MAX_COUNT}, not {value}")
    return value


def _parse_grid(spec: str):
    n_r, x, n_theta = spec.lower().partition("x")
    if not x:
        raise ValueError(f"--grid must look like 200x600, not {spec!r}")
    return _count(n_r, "--grid"), _count(n_theta, "--grid")


def _cmd_ring_modulus(args) -> int:
    ring = RingSpec(args.r1, args.r2)
    n_r, n_theta = _parse_grid(args.grid)
    exact = ring_modulus_exact(ring)
    dom = polar_grid(ring.band_edges(n_r), n_theta)
    fam = grid_rays(dom)
    res = modulus_discrete(fam, dom, metric=args.metric, tol=_RING_TOL)
    rel = abs(res.value - exact) / exact
    if args.heatmap_file:
        density_to_svg(dom, res.extremal, args.heatmap_file,
                       title=f"extremal density, ring ({args.r1}, {args.r2})")
    _emit({
        "exact": exact,
        "discrete": res.value,
        "relative_error": rel,
        "metric": args.metric,
        "grid": [n_r, n_theta],
        "iterations": res.iterations,
        "converged": res.converged,
        "stop_reason": res.stop_reason,
        "duality_gap": res.duality_gap,
    }, args.out_file)
    return 0 if res.converged and rel <= args.agree_tol else 1


def _cmd_circle_family(args) -> int:
    ring = RingSpec(args.r1, args.r2)
    n_circles = _count(args.n_circles, "--n-circles")
    value, reference = circle_family_modulus(ring, parse_field(args.q), n_circles=n_circles)
    rel = abs(value - reference) / reference
    _emit({
        "discrete": value,
        "reference": reference,
        "relative_gap": rel,
        "n_circles": n_circles,
        "q": args.q,
    }, args.out_file)
    return 0 if rel <= args.agree_tol else 1


def _cmd_qnorm(args) -> int:
    ring = RingSpec(args.r1, args.r2)
    prof = qnorm_profile(parse_field(args.q), ring, n_samples=_count(args.samples, "--samples"))
    if args.out == "csv":
        _write(prof.to_csv(), args.out_file)
    else:
        _emit(prof.to_json(), args.out_file)
    return 0


def _cmd_fmo(args) -> int:
    eps = default_epsilon_sequence(args.eps_start, _count(args.eps_count, "--eps-count"))
    field = parse_field(args.q)
    try:
        rep = fmo_check(field, epsilons=eps, center=complex(args.center))
    except NotIntegrableError as exc:  # a valid spec, refused for what the field is
        print(f"field refused: {exc}", file=sys.stderr)
        return 2
    if args.svg_file:
        osc = np.maximum(rep.oscillations, 1e-300)
        write_svg(line_plot_svg(
            [("oscillation", rep.epsilons, osc)],
            title=f"mean oscillation of {args.q} (verdict: {rep.verdict})",
            xlabel="epsilon", ylabel="oscillation", logx=True, logy=True,
        ), args.svg_file)
    _emit(asdict(rep), args.out_file)
    return 0


def _cmd_divergence(args) -> int:
    rep = divergence_check(parse_field(args.q), RingSpec(args.r1, args.r2))
    if args.svg_file:
        write_svg(line_plot_svg(
            [("partial integral", rep.epsilons, np.maximum(rep.partial_integrals, 1e-300))],
            title=f"reciprocal ring integral of {args.q} (verdict: {rep.verdict})",
            xlabel="epsilon", ylabel="integral", logx=True,
        ), args.svg_file)
    _emit(asdict(rep), args.out_file)
    return 0


def _cmd_dirichlet(args) -> int:
    group = load_group(args.group)
    elements = enumerate_elements(group)
    dom = build_dirichlet_domain(group, elements=elements)
    boundary = dirichlet_boundary(dom, np.linspace(0.0, 2 * math.pi, 721))
    outline = boundary * np.minimum(1.0, 0.999 / np.abs(boundary))  # drawn inside the rim
    orbit = mobius_apply(elements, 0j)
    dots = [[w, w * (1 + 1e-9) + 1e-3] for w in orbit]  # tiny strokes mark orbit points
    svg = disk_scene_svg(
        [outline] + dots,
        title=f"Dirichlet domain about 0 ({len(dom.constraints)} of {len(elements)} half-planes kept)",
    )
    out_file = args.out_file or "dirichlet.svg"
    write_svg(svg, out_file)
    print(out_file)
    return 0


def _cmd_distortion(args) -> int:
    grid = _count(args.grid, "--grid")
    sweep = distortion_sweep(parse_map(args.map), grid)
    rep = finite_distortion_check(sweep)
    if args.out == "csv":
        out_file = args.out_file or "distortion.csv"
        _write(sweep.to_csv(), out_file)
        print(out_file)
    summary = {
        "map": args.map,
        "grid": grid,
        "finite_distortion": {
            "n_points": rep.n_points,
            "n_violations": rep.n_violations,
            "passed": rep.passed,
        },
    }
    _emit(summary)
    return 0


def _cmd_verify(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)  # a ConfigError is a ValueError: main exits 2
    record = run_experiment(cfg)
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.config).parent / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    record.write(out_dir / f"{record.experiment_id}.json")
    _emit(record.to_json_dict(with_meta=False))
    return 0 if record.passed else 1


def _cmd_suite(args) -> int:
    config_dir = Path(args.config_dir)
    if not config_dir.is_dir():
        print(f"config error: {config_dir} is not a directory", file=sys.stderr)
        return 2
    return run_suite(config_dir, args.out_dir)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modlab",
        description="Moduli of curve families on the hyperbolic disk: solvers, criteria, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring-modulus", help="discrete vs exact ring modulus")
    p.add_argument("--r1", type=float, required=True, help="inner hyperbolic radius")
    p.add_argument("--r2", type=float, required=True, help="outer hyperbolic radius")
    p.add_argument("--grid", default="100x300", help="polar grid NRxNT")
    p.add_argument("--metric", choices=["hyperbolic", "euclidean"], default="hyperbolic")
    p.add_argument("--agree-tol", type=float, default=0.05)
    p.add_argument("--out-file")
    p.add_argument("--heatmap-file", help="write the extremal density as an SVG heatmap")
    p.set_defaults(func=_cmd_ring_modulus)

    p = sub.add_parser("circle-family", help="weighted circle-family modulus vs radial reference")
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--q", required=True, help="field spec, e.g. const:1")
    p.add_argument("--n-circles", default="64")
    p.add_argument("--agree-tol", type=float, default=0.05)
    p.add_argument("--out-file")
    p.set_defaults(func=_cmd_circle_family)

    p = sub.add_parser("qnorm", help="radial profile of the circle norm of Q")
    p.add_argument("--q", required=True)
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--samples", default="64", help="Gauss-Legendre nodes in log r, at least 4")
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p.add_argument("--out-file")
    p.set_defaults(func=_cmd_qnorm)

    p = sub.add_parser("fmo", help="finite-mean-oscillation verdict at a point")
    p.add_argument("--q", required=True)
    p.add_argument("--center", default="0")
    p.add_argument("--eps-start", type=float, default=0.4)
    p.add_argument("--eps-count", default="12")
    p.add_argument("--out-file")
    p.add_argument("--svg-file", help="write a log-log oscillation plot")
    p.set_defaults(func=_cmd_fmo)

    p = sub.add_parser("divergence", help="divergence verdict for the reciprocal ring integral")
    p.add_argument("--q", required=True)
    p.add_argument("--r1", type=float, default=0.0)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--out-file")
    p.add_argument("--svg-file", help="write a partial-integral plot")
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("dirichlet", help="render the Dirichlet domain of a group")
    p.add_argument("--group", required=True, help="group definition JSON")
    p.add_argument("--out-file")
    p.set_defaults(func=_cmd_dirichlet)

    p = sub.add_parser("distortion", help="distortion sweep of a sample map")
    p.add_argument("--map", required=True, help="map spec, e.g. winding:3")
    p.add_argument("--grid", default="33")
    p.add_argument("--out", choices=["csv", "none"], default="csv")
    p.add_argument("--out-file")
    p.set_defaults(func=_cmd_distortion)

    p = sub.add_parser("verify", help="run one verification experiment, of the config's kind")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("suite", help="run every experiment config in a directory")
    p.add_argument("config_dir")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failed
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
