#!/usr/bin/env python3
"""Grid-refinement study of the discrete ring modulus against the closed form.

Prints a convergence table for the connecting family of the canonical ring
and writes an error plot plus the finest extremal density heatmap.

Usage: python scripts/ring_convergence_study.py [out_dir]
"""

import sys
import time
from pathlib import Path

from modlab.modulus import grid_rays, modulus_discrete, polar_grid, ring_modulus_exact
from modlab.quadrature import RingSpec
from modlab.svgplot import line_plot_svg, polar_heatmap_svg, write_svg

RING = RingSpec(0.5, 1.5)
LEVELS = [(25, 75), (50, 150), (100, 300), (200, 600)]


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results/ring_convergence")
    out_dir.mkdir(parents=True, exist_ok=True)
    exact = ring_modulus_exact(RING)
    print(f"exact ring modulus: {exact:.6f}")
    print(f"{'grid':>10} {'value':>12} {'rel error':>12} {'seconds':>8}")
    sizes, errors = [], []
    last = None
    for n_r, n_theta in LEVELS:
        t0 = time.perf_counter()
        dom = polar_grid(RING.band_edges(n_r), n_theta)
        fam = grid_rays(dom)
        res = modulus_discrete(fam, dom, metric="hyperbolic", tol=1e-6)
        dt = time.perf_counter() - t0
        rel = abs(res.value - exact) / exact
        print(f"{n_r:>4}x{n_theta:<5} {res.value:>12.6f} {rel:>12.3e} {dt:>8.2f}")
        sizes.append(n_r)
        errors.append(max(rel, 1e-16))
        last = (dom, res)
    write_svg(
        line_plot_svg([("relative error", sizes, errors)],
                      title="ring modulus convergence", xlabel="radial cells",
                      ylabel="relative error", logx=True, logy=True),
        out_dir / "convergence.svg",
    )
    dom, res = last
    write_svg(polar_heatmap_svg(dom, res.extremal.rho, title="extremal density of the connecting family"),
              out_dir / "extremal_density.svg")
    print(f"plots in {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
