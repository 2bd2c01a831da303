"""Fixed catalog of weight fields selectable from the CLI and config files.

Spec strings:
    const:<c>     constant c, a JSON number, finite and > 0
    log-inv-r     log(1/|z|)            (positive on the whole disk)
    inv-r         1/|z|
    inv-r2        1/|z|^2
    radial:<id>   radial in the hyperbolic distance s = h(0, z):
                      h      -> s
                      inv-h  -> 1/s
Every spec but const:<c> is one row of `_CATALOG`, and its label is its spec.
There is deliberately no expression parser beyond this list.
"""

from __future__ import annotations

import numpy as np

from ._io import json_number, spec_argument
from .quadrature import ScalarField

__all__ = ["parse_field", "FIELD_SPECS"]

_EPS = 1e-300


def _hyp_radius_of(z: np.ndarray) -> np.ndarray:
    return 2.0 * np.arctanh(np.clip(np.abs(np.asarray(z, dtype=complex)), 0.0, 1.0 - 1e-12))


# spec -> (evaluator of a complex array, singular point or None)
_CATALOG = {
    "log-inv-r": (lambda z: np.log(1.0 / np.maximum(np.abs(z), _EPS)), 0j),
    "inv-r": (lambda z: 1.0 / np.maximum(np.abs(z), _EPS), 0j),
    "inv-r2": (lambda z: 1.0 / np.maximum(np.abs(z), _EPS) ** 2, 0j),
    "radial:h": (_hyp_radius_of, None),
    "radial:inv-h": (lambda z: 1.0 / np.maximum(_hyp_radius_of(z), _EPS), 0j),
}

FIELD_SPECS = ("const:<c>", *_CATALOG)


def parse_field(spec: str) -> ScalarField:
    """Build the ScalarField named by a catalog spec string."""
    spec = spec.strip()
    if spec.startswith("const:"):
        arg = spec[len("const:"):]
        try:
            c = json_number(spec_argument(arg), "const:<c>")
            if not c > 0.0:
                raise ValueError
        except ValueError:
            raise ValueError(f"const field needs a finite c > 0 written as a JSON number, not {arg!r}") from None
        return ScalarField(lambda z: np.full_like(np.abs(np.asarray(z, dtype=complex)), c, dtype=float),
                           label=f"const:{c:g}")
    if spec not in _CATALOG:
        raise ValueError(f"unknown field spec {spec!r}; known: {FIELD_SPECS}")
    evaluator, singular_point = _CATALOG[spec]
    return ScalarField(evaluator, label=spec, singular_point=singular_point)
