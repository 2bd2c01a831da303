"""Span tracing of modlab's public functions, done from outside the library.

`Tracer.install` replaces each traced function with a wrapper on every
binding a caller can resolve: the defining module, and every other
`modlab.*` module that bound the same object with `from .x import name`
(for example `modlab.experiments.rasterize_family`). Nothing inside `src/`
is changed; `Tracer.uninstall` restores the originals.

A wrapper records a span only while an op is open (`begin_op`/`end_op`),
so set-up and correctness checks stay untraced. Each span holds its name,
start, end, parent span and op id. Spans stay in memory and are written
once, by `write`, when the run ends.

Tiny hot helpers such as `hyp_distance` and `mobius_apply` are not wrapped:
their call counts would make the tracing cost larger than their work.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time


def _nnz(family) -> int:
    """Nonzero incidences of a rasterized family: its per-curve cell arrays."""
    return sum(len(curve[0]) for curve in family.curves)


def _vertices(family) -> int:
    return sum(len(poly) for poly in family.polylines)


def _solve_counts(result):
    yield "modulus.iterations", result.iterations
    yield "modulus.unconverged", 0 if result.converged else 1
    yield "gap_rel", (result.value - result.dual_value) / result.value


def _profile_samples(profile):
    yield "quadrature.samples", len(profile.radii) * profile.quadrature_n


# module -> {public function: counts it yields from its result, or None}
TRACED = {
    "cli": {"main": None},
    "experiments": {
        "run_suite": None,
        "run_experiment": None,
        "run_lower_q_verification": None,
        "run_boundary_extension_probe": None,
    },
    "modulus": {
        "polar_grid": None,
        "polar_grid_from_band_centers": None,
        "cartesian_grid": None,
        "circle_family": lambda fam: [("diskgeom.vertices", _vertices(fam))],
        "radial_connecting_family": lambda fam: [("diskgeom.vertices", _vertices(fam))],
        "rasterize_family": lambda fam: [("modulus.nnz", _nnz(fam))],
        "modulus_discrete": _solve_counts,
    },
    "mappings": {
        "pushforward_polylines": lambda fam: [("diskgeom.vertices", _vertices(fam))],
        "multiplicity": None,
    },
    "quadrature": {"qnorm_profile": _profile_samples},
    "criteria": {"divergence_check": None},
    "fuchsian": {
        "enumerate_elements": lambda els: [("fuchsian.elements", len(els))],
        "build_dirichlet_domain": lambda dom: [("fuchsian.constraints", len(dom.constraints))],
        "dirichlet_membership": None,
        "project_to_fundamental": None,
        "injectivity_radius": None,
    },
    "svgplot": {"line_plot_svg": None, "polar_heatmap_svg": None, "write_svg": None},
}

# per-layer self-time metrics (seconds per op): metric -> span names summed
SELF_TIME = {
    "modulus.rasterize_family.s": ("modulus.rasterize_family",),
    "modulus.build_family.s": ("modulus.circle_family", "modulus.radial_connecting_family"),
    "modulus.grid.s": ("modulus.polar_grid", "modulus.polar_grid_from_band_centers",
                       "modulus.cartesian_grid"),
    "modulus.modulus_discrete.s": ("modulus.modulus_discrete",),
    "mappings.pushforward_polylines.s": ("mappings.pushforward_polylines",),
    "mappings.multiplicity.s": ("mappings.multiplicity",),
    "quadrature.qnorm_profile.s": ("quadrature.qnorm_profile",),
    "criteria.divergence_check.s": ("criteria.divergence_check",),
    "fuchsian.enumerate_elements.s": ("fuchsian.enumerate_elements",),
    "fuchsian.build_dirichlet_domain.s": ("fuchsian.build_dirichlet_domain",),
    "fuchsian.injectivity_radius.s": ("fuchsian.injectivity_radius",),
    "experiments.self.s": tuple(f"experiments.{name}" for name in TRACED["experiments"]),
    "svgplot.s": tuple(f"svgplot.{name}" for name in TRACED["svgplot"]),
    "cli.self.s": ("cli.main",),
}

# self seconds per call
PER_CALL = {
    "fuchsian.dirichlet_membership.s_per_call": "fuchsian.dirichlet_membership",
    "fuchsian.project_to_fundamental.s_per_call": "fuchsian.project_to_fundamental",
}

# work counts per op; they must repeat exactly between runs of one seed
COUNTS = ("modulus.nnz", "modulus.iterations", "modulus.unconverged", "diskgeom.vertices",
          "quadrature.samples", "fuchsian.elements", "fuchsian.constraints")


def unit(metric: str) -> str:
    if metric in COUNTS:
        return "count"
    if metric.endswith("s_per_call"):
        return "s/call"
    if metric.endswith("s_per_iteration"):
        return "s/iter"
    return "s"


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.counts: list = []  # (op id, count name, value)
        self.op = None
        self._stack: list = []
        self._patches: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "modlab" or name.startswith("modlab."))]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"modlab.{module_name}"]
            for func_name, counter in functions.items():
                original = getattr(home, func_name, None)
                if original is None:
                    print(f"trace: modlab.{module_name}.{func_name} not found; "
                          "its time counts toward its caller", file=sys.stderr)
                    continue
                wrapper = self._wrap(f"{module_name}.{func_name}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None, self._stack[-1], self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counts.extend((span[4], key, value) for key, value in counter(result))
            return result

        return wrapper

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._stack = [len(self.spans)]
        self.spans.append(["op", time.perf_counter(), None, None, op_id])
        self.op = op_id

    def end_op(self) -> None:
        self.spans[self._stack[0]][2] = time.perf_counter()
        self.op = None

    # -- results ---------------------------------------------------------------

    def gaps(self) -> list:
        """Relative duality gap of every traced solve."""
        return [v for _, k, v in self.counts if k == "gap_rel"]

    def self_times(self) -> dict:
        """Total self seconds per span name: duration minus direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict = {}
        for span, seconds in zip(self.spans, own):
            totals[span[0]] = totals.get(span[0], 0.0) + seconds
        return totals

    def metrics(self, n_ops: int, count_ops: int) -> dict:
        """Per-layer metrics. Times are per op over all `n_ops` ops; counts are
        per op over the first `count_ops` ops, a fixed prefix of the seeded
        op sequence, so they repeat exactly."""
        totals = self.self_times()
        calls: dict = {}
        for span in self.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        out = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(totals.get(n, 0.0) for n in names) / n_ops
        for metric, name in PER_CALL.items():
            out[metric] = totals.get(name, 0.0) / calls[name] if name in calls else 0.0
        all_iterations = sum(v for _, k, v in self.counts if k == "modulus.iterations")
        solve_s = totals.get("modulus.modulus_discrete", 0.0)
        out["modulus.s_per_iteration"] = solve_s / all_iterations if all_iterations else 0.0
        for metric in COUNTS:
            total = sum(v for op, k, v in self.counts if k == metric and op < count_ops)
            out[metric] = total / count_ops
        op_times = [s[2] - s[1] for s in self.spans if s[0] == "op"]
        out["trace.op_s.p50"] = statistics.median(op_times)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
