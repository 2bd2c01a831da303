"""Numerics for curve-family moduli on hyperbolic surfaces.

Modules: Poincaré-disk geometry (`diskgeom`), Fuchsian groups (`fuchsian`),
surface quadrature in a normal chart (`quadrature`), the discrete
extremal-length solver (`modulus`), sample branched mappings with distortion
analysis (`mappings`), analytic criteria on weights (`criteria`), the weight
catalog (`fields`), deterministic SVG output (`svgplot`), and orchestrated
verification experiments with a `modlab` CLI (`experiments`, `cli`).
"""

from .diskgeom import (
    MobiusAutomorphism,
    Polyline,
    euclid_radius,
    hyp_distance,
    hyp_radius,
    mobius_apply,
    mobius_compose,
    mobius_invert,
    mobius_to_zero,
)
from .fuchsian import (
    DirichletDomain,
    FuchsianGroup,
    build_dirichlet_domain,
    dirichlet_membership,
    enumerate_elements,
    injectivity_radius,
    load_group,
    project_to_fundamental,
)
from .quadrature import (
    RadialProfile,
    RingSpec,
    ScalarField,
    ball_integral,
    circle_integral,
    circle_integrals,
    qnorm_profile,
    ring_reciprocal_integral,
)
from .modulus import (
    CurveFamily,
    DensityField,
    DiscretizedDomain,
    ModulusResult,
    PolylineFamily,
    circle_family_modulus,
    modulus_discrete,
    ring_modulus_exact,
    weighted_infimum,
)
from .mappings import (
    SampleMap,
    dilatation,
    distortion_sweep,
    finite_distortion_check,
    multiplicity,
    wirtinger,
)
from .criteria import (
    divergence_check,
    eta_inequality_check,
    fmo_check,
)
from .fields import parse_field
from .experiments import run_boundary_extension_probe, run_lower_q_verification, run_suite

__version__ = "0.1.0"
