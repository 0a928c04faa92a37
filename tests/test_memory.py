"""Working-set guard: a step holds one m x k block at a time.

On ``make_speed_problem``'s 5000 x 1000 snapshots at the C10 settings a
from-scratch step reads a 5000 x 92 column block C (3.7 MB) for its row
pivots. Every run factors C in place for the row ID, so C and its LU
factor are never live together, and its adjoint products read the
sparse sign sketch without a copy; a run that keeps factors reads C
again only when they are used, after the step. The rank estimate
applies its right embedding without keeping its dense form, and frees
each round's scaled sketch before the next grows; fastadacur drops C's
row ID once the rows have grown, before R is read; oversampling writes
its projection straight into the layout its greedy pick factors in
place. The peak is then 4.9 to 5.0 MB, with factors kept or not, set by
the rank estimate's last growth and by fastadacur's row oversampling
beside C's LU factor. With the right embedding's dense form kept it is
6.5 MB, and with C's row ID held through the column growth 5.9 MB; the
5.5 MB limit fails each of those. On their own, the rank estimate peaks
at 4.9 MB (6.5 MB with the dense embedding kept), and the first step's
20-row oversampling at 1.2 MB beside its row ID (2.0 MB with the
pivot-order projection, its gathered copy and a copy for dgeqp3's
workspace query).

Run on its own with::

    PYTHONPATH=src python -m pytest -q tests/test_memory.py
"""

import gc
import tracemalloc

import pytest

from adacur import (AdaCurConfig, FastConfig, adacur_run, estimate_rank,
                    fastadacur_run, make_speed_problem, oversample_rows,
                    rand_pivot_rankest, recompute_baseline_run)
from adacur.driver import _rank_tol

LIMIT_MB = 5.5


def peak_mb(call, *args):
    """tracemalloc peak of ``call(*args)`` above what was live before."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(*args)
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


def test_rank_estimate_keeps_no_dense_embedding():
    # the C10 rank tolerance on the snapshot with a sparse term; the
    # sketch grows to 128 rows, and its last growth sets the peak
    orc = make_speed_problem(q=2).oracle(1)
    tol = _rank_tol(AdaCurConfig(tol=1e-6), orc.shape[1])
    peak = peak_mb(estimate_rank, orc, tol, 1)
    print(f"estimate_rank: peak {peak:.2f} MB")
    assert peak < 5.3


def test_oversampling_forms_no_projection_copy():
    # fastadacur's first step at the C10 settings grows its rows by
    # p = buffer + oversample = 20 on the row ID of the 5000 x 92 C
    orc = make_speed_problem(q=1).oracle(0)
    sel, row_id = rand_pivot_rankest(
        orc, _rank_tol(FastConfig(tol=1e-6), orc.shape[1]), 1)
    peak = peak_mb(oversample_rows, row_id, sel.rows, 20)
    print(f"oversample_rows p=20: peak {peak:.2f} MB")
    assert peak < 1.35
