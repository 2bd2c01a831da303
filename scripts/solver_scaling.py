#!/usr/bin/env python3
"""How the overlapping-family solve scales with the number of curves.

For each chord count, a fresh Python process builds the overlap family (chords
across [-0.5, 0.5]^2, each bent inside [-0.02, 0.02]^2, on 64x64 cells; seed 1,
one weight draw in [0.5, 2]) and times its first `modulus_discrete` solve at
`tol` 1e-6, the scipy import included, with one BLAS thread. It reports the
active-set passes, the working-set rounds, the final working set |W|, the
final face, the time, the peak resident memory of the process and the
relative gap. The rounds and sizes are read from outside the solver, by
wrapping `modulus._extended` (one call per round) and `modulus._face_solve`
(one call per pass).

Usage: python scripts/solver_scaling.py [n_chords ...]   (default: 512 2048 4096)

The exit code is 1 when a solve stops uncertified.
"""

import json
import os
import resource
import subprocess
import sys
import time

HALF, BEND, N_CELLS = 0.5, 0.02, 64


def measure(n_chords: int) -> dict:
    """One solve of n_chords overlap chords in this process."""
    import numpy as np

    from modlab import modulus
    from modlab.diskgeom import Polyline

    rng = np.random.default_rng(1)
    dom = modulus.cartesian_grid(((-HALF, HALF), (-HALF, HALF)), N_CELLS, N_CELLS)
    left, right = rng.uniform(-HALF, HALF, (2, n_chords))
    bends = rng.uniform(-BEND, BEND, (n_chords, 2))
    chords = tuple(Polyline((complex(-HALF, y0), complex(bx, by), complex(HALF, y1)))
                   for y0, (bx, by), y1 in zip(left, bends, right))
    family = modulus.rasterize_family(modulus.PolylineFamily(chords, kind="connecting"), dom)
    weights = rng.uniform(0.5, 2.0, dom.n_cells)

    working_sets, faces = [], []
    extended, face_solve = modulus._extended, modulus._face_solve

    def extended_spy(H, B_W):
        working_sets.append(B_W.shape[0])
        return extended(H, B_W)

    def face_solve_spy(H_FF, mu, c_F):
        faces.append(len(H_FF))
        return face_solve(H_FF, mu, c_F)

    modulus._extended, modulus._face_solve = extended_spy, face_solve_spy
    t0 = time.perf_counter()
    res = modulus.modulus_discrete(family, dom, tol=1e-6, weights=weights)
    seconds = time.perf_counter() - t0
    return {
        "chords": n_chords,
        "passes": res.iterations,
        "rounds": len(working_sets),
        "working_set": working_sets[-1] if working_sets else 0,
        "final_face": faces[-1] if faces else 0,
        "seconds": seconds,
        "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
        "gap_rel": res.duality_gap / res.value,
        "stop_reason": res.stop_reason,
    }


def main(argv) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(measure(int(argv[1]))))
        return 0
    counts = [int(a) for a in argv] or [512, 2048, 4096]
    certified = True
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    print(f"{'chords':>6} {'passes':>6} {'rounds':>6} {'|W|':>5} {'face':>5} "
          f"{'seconds':>8} {'peak MB':>8} {'gap':>8}  stop")
    for n in counts:
        out = subprocess.run([sys.executable, __file__, "--one", str(n)], env=env,
                             capture_output=True, text=True, check=True)
        row = json.loads(out.stdout)
        print(f"{row['chords']:>6} {row['passes']:>6} {row['rounds']:>6} {row['working_set']:>5} "
              f"{row['final_face']:>5} {row['seconds']:>8.3f} {row['peak_mb']:>8.1f} "
              f"{row['gap_rel']:>8.1e}  {row['stop_reason']}")
        certified &= row["stop_reason"] == "gap"
    return 0 if certified else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
