"""Reference quantities the tests compare the library against."""

import numpy as np

from modlab.diskgeom import Polyline, _segment_hyp_length


def hyp_length(curve: Polyline) -> float:
    """Hyperbolic arclength of a polyline: the closed-form lengths of its segments, summed."""
    p, q = curve.segments()
    d = q - p
    r, speed = np.hypot(p.real, p.imag), np.hypot(d.real, d.imag)
    return float(np.sum(_segment_hyp_length(p, d, r, speed, 0.0, 1.0)))
