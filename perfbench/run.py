"""modlab benchmark: time to a verified result on one workload.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 34 --trace 0

Workloads (see workloads.py): suite, ring, overlap, surface; BENCHMARK.json
gates all but ring (see README.md). One process, one thread, closed loop:
the next op starts when the previous one returns, and ops start until
`--seconds` have passed since the first one. Every op's output is checked;
a failed check or an op that raises counts as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones:

    setup_s      median of seven fresh interpreters importing modlab (with
                 numpy and scipy), plus the median of seven workload set-ups
                 (inputs, and the overlap rasterization)
    op_s.p50     median seconds per op
    peak_rss_mb  peak resident memory of the process

With `--trace 1` the public functions of each modlab module are wrapped
(spans.py) and the per-layer metrics are reported instead; the spans are
written to `.perfbench_run/spans/`. The line before the result,
`details: {...}`, adds the sample count, `op_s.tail` (the highest
nearest-rank percentile with at least ten samples above it, never below the
median; see `tail`) with its percentile, accuracy (`rel_err`, `gap_rel`),
`fail_ratio` and the software versions. The tail is not among the
end-to-end metrics because on a shared two-core host its run-to-run spread
exceeds any regression bound. The exit
code is 0 when every check passed, 1 when one failed and 2 when the
checkout lacks modlab's sources or configs.
"""

import os

# BLAS and OpenMP pools are pinned to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("suite", "ring", "overlap", "surface")


def tail(samples):
    """(label, value): the highest nearest-rank percentile with at least ten
    samples above it, but never below the median. Below 20 samples no
    percentile above the median has ten samples beyond it, so the tail is
    the median: a maximum of a few samples measures noise, not the program."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return "p50", statistics.median(ordered)
    p = math.floor(100 * (n - 10) / n)
    return f"p{p}", ordered[math.ceil(p * n / 100) - 1]


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing modlab, numpy and scipy."""
    code = "import modlab, modlab.cli"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, to test the harness in seconds")
    return parser.parse_args(argv)


def measure(workload, seconds: float, tracer):
    """Closed loop over seeded ops; returns (samples, failed, accuracy).

    Ops start until `seconds` have passed since the first, and at least
    `workload.count_ops` run when traced, so the counts cover a fixed prefix
    of the op sequence. Accuracy values are the worst seen over the checks.
    """
    min_ops = workload.count_ops if tracer else 1
    samples, accuracy, failed = [], {}, 0
    t_start = time.perf_counter()
    while len(samples) < min_ops or time.perf_counter() - t_start < seconds:
        inp = workload.draw()
        if tracer:
            tracer.begin_op(len(samples))
        t0 = time.perf_counter()
        try:
            out = workload.op(inp)
            error = None
        except Exception as exc:  # an op that raises is a failed op
            error = exc
        samples.append(time.perf_counter() - t0)
        if tracer:
            tracer.end_op()
        ok = False
        if error is None:
            try:
                ok, acc = workload.check(inp, out)
            except Exception as exc:  # output missing or malformed
                error = exc
            else:
                for key, value in acc.items():
                    accuracy[key] = max(accuracy.get(key, value), value)
        if error is not None and failed == 0:
            traceback.print_exception(error, file=sys.stderr)
        failed += not ok
    if tracer and tracer.gaps():
        accuracy["gap_rel"] = max(accuracy.get("gap_rel", 0.0), *tracer.gaps())
    return samples, failed, accuracy


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "modlab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no modlab sources (src/modlab) and configs",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import modlab
    if not Path(modlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported modlab from {modlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads
    import_s = None if args.trace else import_seconds()

    run_dir = ROOT / ".perfbench_run"
    work_dir = run_dir / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workload = None  # one set-up alive at a time, as in a single run
            shutil.rmtree(work_dir)
            work_dir.mkdir()
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, work_dir)
            setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.install()
        samples, failed, accuracy = measure(workload, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(samples)
    tail_label, tail_s = tail(samples)
    if tracer:
        metrics = tracer.metrics(attempted, workload.count_ops)
        units = {name: spans.unit(name) for name in metrics}
        spans_dir = run_dir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        size = "-smoke" if args.smoke else ""
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}{size}.jsonl")
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "op_s.p50": statistics.median(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "op_s.p50": "s", "peak_rss_mb": "MB"}

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "n_ops": attempted, "op_s.tail": tail_s, "tail": tail_label,
        "fail_ratio": failed / attempted,
        "import_s": import_s, "setup_runs_s": setup_times,
        "rel_err": accuracy.get("rel_err"), "gap_rel": accuracy.get("gap_rel"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
    }
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"op_s.tail = {tail_s!r} s ({tail_label} of {attempted} ops)")
    print("details: " + json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
