"""Reference quantities the tests compare the library against."""

import numpy as np
import scipy.sparse as sp

from modlab.diskgeom import Polyline, _segment_hyp_length
from modlab.modulus import CurveFamily


def hyp_length(curve: Polyline) -> float:
    """Hyperbolic arclength of a polyline: the closed-form lengths of its segments, summed."""
    p, q = curve.segments()
    d = q - p
    r, speed = np.hypot(p.real, p.imag), np.hypot(d.real, d.imag)
    return float(np.sum(_segment_hyp_length(p, d, r, speed, 0.0, 1.0)))


def incidence_matrix(family: CurveFamily, metric: str) -> sp.csr_matrix:
    """One metric's incidences of a family as a scipy CSR matrix sharing the family's arrays."""
    return sp.csr_matrix((family.lengths(metric), family.indices, family.indptr),
                         shape=(len(family), family.n_cells))
