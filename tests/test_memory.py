"""Working-set guard: a from-scratch step holds one m x r block at a time.

On ``make_speed_problem``'s 5000 x 1000 snapshots at the C10 settings a
from-scratch step reads a 5000 x 92 column block C (3.7 MB) for its row
pivots. Every run factors C in place for the row ID, so C and its LU
factor are never live together, and its adjoint products read the
sparse sign sketch without a copy; a run that keeps factors reads C
again only when they are used, after the step. The peak is then the
rank-estimation stage's, 6.5 MB, with factors kept or not. With C and
its LU factor both live it is 7.5 MB without factors and 8.6 to 9.6
MB with them; with the sketch operand copied the baseline's
is 8.6 MB; with both, and the sketch and the row ID held through the
step, 9.3 to 9.6 MB. The 7 MB limit fails each of those.

Run on its own with::

    PYTHONPATH=src python -m pytest -q tests/test_memory.py
"""

import gc
import tracemalloc

import pytest

from adacur import (AdaCurConfig, FastConfig, adacur_run, fastadacur_run,
                    make_speed_problem, recompute_baseline_run)

LIMIT_MB = 7.0


def peak_mb(run, seq, cfg):
    """tracemalloc peak of ``run(seq, cfg)`` above what was live before."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(seq, cfg)
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run, q, cfg", [
    (recompute_baseline_run, 2,
     AdaCurConfig(tol=1e-6, err_samples=10, oversample=10, seed=1,
                  store_factors=False)),
    (fastadacur_run, 1,
     FastConfig(tol=1e-6, buffer=10, oversample=10, seed=1,
                store_factors=False)),
    (fastadacur_run, 1,
     FastConfig(tol=1e-6, buffer=10, oversample=10, seed=1)),
    (adacur_run, 2,
     AdaCurConfig(tol=1e-6, err_samples=10, oversample=10, seed=1)),
], ids=["baseline", "fastadacur-first-step", "fastadacur-first-step-factors",
        "adacur-factors"])
def test_from_scratch_step_holds_one_column_block(run, q, cfg):
    # q = 2 includes a snapshot with a sparse term, whose adjoint
    # products must not copy the sketch operand
    peak = peak_mb(run, make_speed_problem(q=q), cfg)
    print(f"{run.__name__} q={q}: peak {peak:.2f} MB")
    assert peak < LIMIT_MB
