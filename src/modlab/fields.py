"""Fixed catalog of weight fields selectable from the CLI and config files.

Spec strings:
    const:<c>     constant c, finite and > 0
    log-inv-r     log(1/|z|)            (positive on the whole disk)
    inv-r         1/|z|
    inv-r2        1/|z|^2
    radial:<id>   radial in the hyperbolic distance s = h(0, z):
                      inv-h  -> 1/s
                      h      -> s
There is deliberately no expression parser beyond this list.
"""

from __future__ import annotations

import numpy as np

from .quadrature import ScalarField

__all__ = ["parse_field", "FIELD_SPECS"]

_EPS = 1e-300


def _hyp_radius_of(z: np.ndarray) -> np.ndarray:
    return 2.0 * np.arctanh(np.clip(np.abs(z), 0.0, 1.0 - 1e-12))


def _const(c: float) -> ScalarField:
    if not (c > 0.0 and np.isfinite(c)):
        raise ValueError(f"const field needs a finite c > 0, not {c!r}")
    return ScalarField(lambda z: np.full_like(np.abs(np.asarray(z, dtype=complex)), c, dtype=float),
                       label=f"const:{c:g}")


def _log_inv_r() -> ScalarField:
    return ScalarField(lambda z: np.log(1.0 / np.maximum(np.abs(z), _EPS)),
                       label="log-inv-r", singular_point=0j)


def _inv_r() -> ScalarField:
    return ScalarField(lambda z: 1.0 / np.maximum(np.abs(z), _EPS),
                       label="inv-r", singular_point=0j)


def _inv_r2() -> ScalarField:
    return ScalarField(lambda z: 1.0 / np.maximum(np.abs(z), _EPS) ** 2,
                       label="inv-r2", singular_point=0j)


_RADIAL_CATALOG = {
    "inv-h": (lambda s: 1.0 / np.maximum(s, _EPS), 0j),
    "h": (lambda s: s, None),
}

FIELD_SPECS = ("const:<c>", "log-inv-r", "inv-r", "inv-r2",
               *(f"radial:{k}" for k in sorted(_RADIAL_CATALOG)))


def parse_field(spec: str) -> ScalarField:
    """Build the ScalarField named by a catalog spec string."""
    spec = spec.strip()
    if spec.startswith("const:"):
        return _const(float(spec.split(":", 1)[1]))
    if spec == "log-inv-r":
        return _log_inv_r()
    if spec == "inv-r":
        return _inv_r()
    if spec == "inv-r2":
        return _inv_r2()
    if spec.startswith("radial:"):
        key = spec.split(":", 1)[1]
        if key not in _RADIAL_CATALOG:
            raise ValueError(f"unknown radial field id {key!r}; catalog: {sorted(_RADIAL_CATALOG)}")
        fn, singular = _RADIAL_CATALOG[key]
        return ScalarField(lambda z, _fn=fn: _fn(_hyp_radius_of(np.asarray(z, dtype=complex))),
                           label=spec, singular_point=singular)
    raise ValueError(f"unknown field spec {spec!r}; known: {FIELD_SPECS}")
