#!/usr/bin/env python3
"""Distortion report for the sample-map catalog.

For each map: dilatation spot checks, the finite-distortion grid verdict, the
certified multiplicity bound on five targets (or the reason the map is
refused), and a CSV sweep of the derivative data.

Usage: python scripts/distortion_report.py [out_dir]
"""

import math
import sys
from pathlib import Path

import numpy as np

from modlab.mappings import (
    NotSensePreservingError,
    dilatation,
    distortion_sweep,
    finite_distortion_check,
    fold_map,
    identity_map,
    multiplicity,
    radial_stretch,
    winding,
)

MAPS = [identity_map(), winding(2), winding(3), radial_stretch(2), fold_map()]


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results/distortion")
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(0)
    targets = [0.5 * np.exp(1j * rng.uniform(0, 6.28)) for _ in range(5)]
    print(f"{'map':<18} {'K(0.4+0.1j)':>12} {'finite dist.':>13} {'N (5 targets)':>14}")
    for f in MAPS:
        k = float(dilatation(f, np.array([0.4 + 0.1j]))[0])
        k_str = "inf" if math.isinf(k) else f"{k:.4f}"
        sweep = distortion_sweep(f, 33)
        fd = finite_distortion_check(sweep)
        try:
            rep = multiplicity(f, targets)
            n_str = f"{rep.supremum}" + (" (incomplete)" if rep.incomplete else "")
        except NotSensePreservingError as exc:
            n_str = f"refused: {exc}"
        print(f"{f.label:<18} {k_str:>12} {str(fd.passed):>13} {n_str:>14}")
        safe = f.label.replace(":", "_").replace("(", "").replace(")", "")
        (out_dir / f"{safe}.csv").write_text(sweep.to_csv())
    print(f"CSV sweeps in {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
