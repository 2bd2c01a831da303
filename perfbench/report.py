"""Print every end-to-end metric of every workload, by name and unit.

    python3 perfbench/report.py [--seed 1] [--seconds 34]

For each workload, `ring` included although BENCHMARK.json does not gate
it, this runs `run.py` twice, untraced and traced, one after
the other, and prints setup_s, op_s.p50 with its sample count, op_s.tail with
its percentile, rel_err, gap_rel (from the traced run, which sees every
solve), fail_ratio, peak_rss_mb and the tracing overhead (traced minus
untraced op_s.p50), followed by the nonzero per-layer metrics. It exits
nonzero if any run's correctness checks failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")
WORKLOADS = ("suite", "ring", "overlap", "surface")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=RUN.parent.parent)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("details: "):
        sys.exit(f"{' '.join(cmd)} printed no result (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2][len("details: "):])
    return result


def _fmt(value, unit="") -> str:
    return "n/a" if value is None else f"{value:.4g}{unit}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34)
    args = parser.parse_args(argv)

    results = {}
    for workload in WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        results[workload] = {"untraced": plain, "traced": traced}

    env = results[WORKLOADS[0]]["untraced"]["details"]
    print(f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}; seed {args.seed}, {args.seconds:g} s per run")
    ok = True
    for workload, pair in results.items():
        plain, traced = pair["untraced"], pair["traced"]
        m, d = plain["metrics"], plain["details"]
        ok = ok and plain["correct"] and traced["correct"]
        overhead = traced["metrics"]["trace.op_s.p50"]["value"] - m["op_s.p50"]["value"]
        rel_err = d["rel_err"]
        gap_rel = traced["details"]["gap_rel"]
        print(f"\n{workload}")
        print(f"  setup_s      {_fmt(m['setup_s']['value'], ' s')}")
        print(f"  op_s.p50     {_fmt(m['op_s.p50']['value'], ' s')}  (n={d['n_ops']})")
        print(f"  op_s.tail    {_fmt(d['op_s.tail'], ' s')}  ({d['tail']}, n={d['n_ops']})")
        print(f"  rel_err      {_fmt(rel_err)}")
        print(f"  gap_rel      {_fmt(gap_rel)}")
        print(f"  fail_ratio   {_fmt(d['fail_ratio'])}  ({plain['failed']}/{plain['attempted']} untraced, "
              f"{traced['failed']}/{traced['attempted']} traced)")
        print(f"  peak_rss_mb  {_fmt(m['peak_rss_mb']['value'], ' MB')}")
        print(f"  trace overhead on op_s.p50  {_fmt(overhead, ' s')}")
        for name, metric in traced["metrics"].items():
            if metric["value"]:
                print(f"    {name:44s} {metric['value']:.4g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
