"""Shared test configuration.

BLAS thread pinning must happen before numpy is imported anywhere in
the process, otherwise the timing comparisons in the acceptance suite
measure thread-pool scheduling instead of algorithm cost.  pytest
imports conftest before any test module, so this is the one reliable
place to do it.
"""

import dataclasses
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest
import scipy.linalg as sla


@pytest.fixture
def rng():
    """Fresh deterministic generator for tests that just need noise."""
    return np.random.default_rng(1234)


def assert_traces_match(t1, t2):
    """Two step traces agree on every field except wall time."""
    assert len(t1) == len(t2)
    for a, b in zip(t1, t2):
        assert (dataclasses.replace(a, wall_ms=0.0)
                == dataclasses.replace(b, wall_ms=0.0))


def interp_matrix(row_id):
    """t = L2 inv(L1) of a ``linalg.RowID``, which the package never forms.

    ``C[perm[k:]] = t @ C[perm[:k]]`` for the block C it was made from.
    """
    lu = row_id.lu
    k = lu.shape[1]
    return sla.solve_triangular(lu[:k], lu[k:].T, trans="T", lower=True,
                                unit_diagonal=True).T
