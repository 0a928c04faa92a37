"""Property tests: invariants the drivers, the rank estimator and the
trace CSV keep on any input.

The driver examples are small random low-rank sequences (at most 24×24,
four steps), so each example runs in milliseconds and the whole module
stays within a few seconds.
"""

import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adacur.driver import (AdaCurConfig, StepTrace, adacur_run,
                           recompute_baseline_run)
from adacur.fast import FastConfig, fastadacur_run
from adacur.fileio import read_trace_csv, write_trace_csv
from adacur.oracles import DenseOracle, ParamMatrixSequence
from adacur.rankest import estimate_rank

DRIVER_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def low_rank_sequences(draw):
    """Matrices of one random shape, each of a random rank (zero allowed)."""
    m, n = draw(st.integers(2, 24)), draw(st.integers(2, 24))
    ranks = draw(st.lists(st.integers(0, min(m, n, 6)), min_size=1,
                          max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return [rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            for r in ranks]


def run_tracked(run, cfg, mats):
    """Results of ``run`` and the oracle each step read."""
    oracles = [DenseOracle(a) for a in mats]
    seq = ParamMatrixSequence(np.arange(len(mats), dtype=float),
                              lambda j: oracles[j], mats[0].shape)
    with warnings.catch_warnings():
        # fastadacur's clamped index sets are expected at these sizes
        warnings.simplefilter("ignore")
        return run(seq, cfg), oracles


def check_step_invariants(res, oracles):
    for (fac, tr), orc in zip(res, oracles):
        m, n = orc.shape
        sel = fac.selection
        assert 0 <= tr.rank == sel.cols.size == sel.rows.size <= min(m, n)
        assert np.intersect1d(sel.rows, sel.extra_rows).size == 0
        assert tr.matvecs >= 0 and tr.entries_read >= 0
        # each step reads only its own snapshot, so its counters are
        # the trace's
        assert tr.matvecs == orc.counters.total_matvecs
        assert tr.entries_read == orc.counters.entries_read


@DRIVER_SETTINGS
@given(mats=low_rank_sequences(), tol=st.sampled_from([1e-8, 1e-4]),
       p=st.integers(0, 3), seed=st.integers(0, 3))
def test_adacur_invariants(mats, tol, p, seed):
    check_step_invariants(*run_tracked(
        adacur_run, AdaCurConfig(tol=tol, oversample=p, seed=seed), mats))


@DRIVER_SETTINGS
@given(mats=low_rank_sequences(), tol=st.sampled_from([1e-8, 1e-4]),
       p=st.integers(0, 3), seed=st.integers(0, 3))
def test_baseline_invariants(mats, tol, p, seed):
    check_step_invariants(*run_tracked(
        recompute_baseline_run,
        AdaCurConfig(tol=tol, oversample=p, seed=seed), mats))


@DRIVER_SETTINGS
@given(mats=low_rank_sequences(), tol=st.sampled_from([1e-8, 1e-4]),
       b=st.integers(0, 4), p=st.integers(0, 3), seed=st.integers(0, 3))
def test_fastadacur_invariants(mats, tol, b, p, seed):
    res, oracles = run_tracked(
        fastadacur_run,
        FastConfig(tol=tol, buffer=b, oversample=p, seed=seed), mats)
    check_step_invariants(res, oracles)
    m = mats[0].shape[0]
    for fac, tr in res:
        if tr.rank:
            assert fac.selection.extra_rows.size == min(p, m - tr.rank)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=st.integers(1, 40), n=st.integers(1, 40), r=st.integers(0, 40),
       scale=st.floats(-12, 12).map(lambda e: 10.0 ** e),
       abs_tol=st.sampled_from([1e-8, 1e-2, 1.0]), seed=st.integers(0, 3))
def test_estimate_rank_counts_sketch(m, n, r, scale, abs_tol, seed):
    # one outcome at any shape and scale: the count of sketched singular
    # values above the tolerance, never more than min(m, n)
    rng = np.random.default_rng(seed)
    a = scale * (rng.standard_normal((m, r)) @ rng.standard_normal((r, n)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_rank(DenseOracle(a), abs_tol, seed)
        again = estimate_rank(DenseOracle(a), abs_tol, seed)
    sig = est.sketch_singular_values
    assert est.rank == np.count_nonzero(sig > abs_tol) <= min(m, n)
    assert again.rank == est.rank
    np.testing.assert_array_equal(again.sketch_singular_values, sig)
    np.testing.assert_array_equal(again.row_sketch, est.row_sketch)


OPTIONAL_FLOATS = st.none() | st.floats()
TRACES = st.builds(
    StepTrace, step=st.integers(), t=st.floats(), rank=st.integers(),
    est_rel_err=OPTIONAL_FLOATS, true_rel_err=OPTIONAL_FLOATS,
    action=st.text(), h1_cum=st.integers(), h2_cum=st.integers(),
    matvecs=st.integers(), wall_ms=st.floats(), entries_read=st.integers())


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(traces=st.lists(TRACES, max_size=4))
def test_trace_csv_round_trip(tmp_path, traces):
    path = tmp_path / "trace.csv"
    write_trace_csv(traces, path)
    back = read_trace_csv(path)
    # repr tells -0.0 from 0.0 and matches NaN with NaN
    assert [repr(tr) for tr in back] == [repr(tr) for tr in traces]
