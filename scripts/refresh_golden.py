#!/usr/bin/env python3
"""Rewrite the golden outputs in tests/golden/ and print each value that moved.

The golden files pin the numbers the code computes, each with its `meta`
block removed:
- the six records of `modlab suite configs/experiments` and its
  suite_summary.csv;
- the record of `modlab ring-modulus --r1 0.5 --r2 1.5 --grid 200x600`;
- the stdout of `modlab verify` on lower_q_identity.json and boundary_mobius.json.

tests/test_acceptance.py compares a fresh run against them: keys, strings,
counts and booleans exactly, each float to within 4 units in the last place.
Run this script only when a change moves a golden value on purpose, and list
the values it prints in CHANGES.md.

Usage: PYTHONPATH=src python scripts/refresh_golden.py
"""

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from modlab._io import json_text
from modlab.cli import main as cli_main
from modlab.experiments import run_suite

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
CONFIG_DIR = ROOT / "configs" / "experiments"
COMMANDS = {
    "ring_modulus_200x600.json": ["ring-modulus", "--r1", "0.5", "--r2", "1.5", "--grid", "200x600"],
    "verify_lower_q_identity.json": ["verify", "--config", str(CONFIG_DIR / "lower_q_identity.json")],
    "verify_boundary_mobius.json": ["verify", "--config", str(CONFIG_DIR / "boundary_mobius.json")],
}


def _golden_text(data) -> str:
    """A record without its `meta` block, in the one JSON format of `_io.json_text`."""
    data.pop("meta", None)
    return json_text(data)


def outputs(suite_dir) -> dict:
    """{golden file name: text} from the suite run already written to suite_dir
    and from one run of each command in COMMANDS."""
    suite_dir = Path(suite_dir)
    texts = {path.name: _golden_text(json.loads(path.read_text()))
             for path in sorted(suite_dir.glob("*.json")) if path.name != "suite_report.json"}
    texts["suite_summary.csv"] = (suite_dir / "suite_summary.csv").read_text()
    with tempfile.TemporaryDirectory() as records:
        for name, argv in COMMANDS.items():
            if argv[0] == "verify":
                argv = [*argv, "--out-dir", records]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_main(argv)
            if code != 0:
                raise RuntimeError(f"modlab {' '.join(argv)} exited {code}")
            texts[name] = _golden_text(json.loads(stdout.getvalue()))
    return texts


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(name: str, text: str):
    """A golden file's values: JSON as loaded, a CSV as rows of int, float or str cells."""
    if name.endswith(".csv"):
        return [[_cell(cell) for cell in row] for row in csv.reader(io.StringIO(text))]
    return json.loads(text)


def moved(old, new, ulps: int = 0, where: str = ""):
    """(where, old, new) for each value of `new` that differs from `old`: keys,
    strings, counts and booleans exactly, a float by more than `ulps` units in
    the last place of the old value."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            yield where, sorted(old), sorted(new)
            return
        for key in old:
            yield from moved(old[key], new[key], ulps, f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield where, f"{len(old)} items", f"{len(new)} items"
            return
        for i, (a, b) in enumerate(zip(old, new)):
            yield from moved(a, b, ulps, f"{where}[{i}]")
    elif type(old) is float and type(new) is float:
        if not (old == new or (np.isnan(old) and np.isnan(new))
                or abs(new - old) <= ulps * abs(np.spacing(old))):
            yield where, old, new
    elif type(old) is not type(new) or old != new:
        yield where, old, new


def main() -> int:
    with tempfile.TemporaryDirectory() as suite_dir:
        run_suite(CONFIG_DIR, suite_dir)
        texts = outputs(suite_dir)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    n_moved = 0
    for name, text in texts.items():
        path = GOLDEN_DIR / name
        if path.exists():
            for where, old, new in moved(parse(name, path.read_text()), parse(name, text)):
                print(f"{name}{where}: {old!r} -> {new!r}")
                n_moved += 1
        else:
            print(f"{name}: new")
        path.write_text(text)
    for path in sorted(GOLDEN_DIR.iterdir()):
        if path.name not in texts:
            print(f"{path.name}: no longer produced, removed")
            path.unlink()
    print(f"{len(texts)} golden files written, {n_moved} values moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
