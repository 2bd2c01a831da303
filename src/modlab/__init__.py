"""Numerics for curve-family moduli on hyperbolic surfaces.

Modules: Poincaré-disk geometry (`diskgeom`), Fuchsian groups (`fuchsian`),
surface quadrature in a normal chart (`quadrature`), the discrete
extremal-length solver (`modulus`), sample branched mappings with distortion
analysis (`mappings`), analytic criteria on weights (`criteria`), the weight
catalog (`fields`), deterministic SVG output (`svgplot`), and orchestrated
verification experiments with a `modlab` CLI (`experiments`, `cli`). Each
name is imported from its module: `from modlab.modulus import polar_grid`.
"""

__version__ = "0.1.0"
