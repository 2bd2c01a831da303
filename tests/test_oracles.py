"""Checks of the reference quantities in `oracles.py` themselves."""

import numpy as np
import pytest

from modlab.diskgeom import Polyline
from modlab.mappings import identity_map
from modlab.modulus import PolylineFamily, cartesian_grid, rasterize_family
from oracles import incidence_matrix, wirtinger_fd


def test_incidence_matrix_shares_the_family_arrays():
    dom = cartesian_grid(((-0.3, 0.3), (-0.3, 0.3)), 6, 6)
    chords = (Polyline((complex(-0.3, -0.12), complex(0.3, -0.12))),
              Polyline((complex(-0.3, -0.25), complex(0.0, 0.1), complex(0.3, 0.28))))
    fam = rasterize_family(PolylineFamily(chords, kind="connecting"), dom)
    for metric in ("euclidean", "hyperbolic"):
        L = incidence_matrix(fam, metric)
        assert L.shape == (len(fam), 6 * 6)
        for mine, theirs in ((fam.indptr, L.indptr), (fam.indices, L.indices),
                             (fam.lengths(metric), L.data)):
            assert np.shares_memory(mine, theirs)
    with pytest.raises(ValueError, match="metric"):
        incidence_matrix(fam, "Euclidean")
    with pytest.raises(ValueError, match="metric"):
        fam.lengths("hyp")


def test_fd_step_leaves_disk():
    with pytest.raises(ValueError):
        wirtinger_fd(identity_map(), np.array([0.99]), step=0.5)
