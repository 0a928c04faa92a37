"""Tests for the certified adaptive CUR driver."""

import warnings

import numpy as np
import pytest

from adacur import driver
from adacur.driver import (
    AdaCurConfig,
    adacur_run,
    recompute_baseline_run,
)
from adacur.errors import InvalidInput, NonFiniteSnapshot, ZeroMatrixSketch
from adacur.fast import FastConfig, fastadacur_run
from adacur.linalg import eps_rank_from_rdiag, lu_pivots, srrqr
from adacur.normest import estimate_cur_error
from adacur.oracles import DenseOracle, ParamMatrixSequence
from adacur.problems import (
    make_adversarial,
    make_schrodinger,
    make_synthetic_expm,
    true_relative_error,
)
from adacur.sketch import derive_seed

from conftest import assert_traces_match
from test_fastadacur import RecordingOracle
from test_golden_traces import PROBLEMS, _sequence


def constant_rank_sequence(m=60, n=50, r=5, q=8, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    return ParamMatrixSequence(np.arange(q, dtype=float),
                               lambda j: DenseOracle(a), (m, n))


class TestConfig:
    def test_tol_range(self):
        with pytest.raises(InvalidInput):
            AdaCurConfig(tol=0.0)
        with pytest.raises(InvalidInput):
            AdaCurConfig(tol=1.5)

    def test_sample_count_positive(self):
        with pytest.raises(InvalidInput):
            AdaCurConfig(tol=1e-6, err_samples=0)

    @pytest.mark.parametrize("name,value", [
        ("err_samples", 2.5), ("oversample", 2.5), ("seed", 1.5),
        ("oversample", "3"), ("err_samples", True), ("seed", False)])
    def test_non_integer_fields_rejected(self, name, value):
        with pytest.raises(InvalidInput, match=name):
            AdaCurConfig(tol=1e-8, **{name: value})

    @pytest.mark.parametrize("name,value", [
        ("escalate_s", None), ("true_error", 2), ("store_factors", "no"),
        ("store_factors", 1)])
    def test_non_bool_flags_rejected(self, name, value):
        with pytest.raises(InvalidInput, match=name):
            AdaCurConfig(tol=1e-6, **{name: value})

    @pytest.mark.parametrize("tol", ["1e-6", None, 1e-6j])
    def test_non_real_tol_rejected(self, tol):
        with pytest.raises(InvalidInput, match="tol"):
            AdaCurConfig(tol=tol)

    def test_numpy_bools_and_floats_accepted(self):
        cfg = AdaCurConfig(tol=np.float32(1e-6), escalate_s=np.bool_(True),
                           true_error=np.bool_(False),
                           store_factors=np.bool_(True))
        assert cfg.escalate_s and cfg.store_factors and not cfg.true_error

    def test_numpy_integers_accepted(self):
        cfg = AdaCurConfig(tol=1e-8, err_samples=np.int64(4),
                           oversample=np.int32(2), seed=np.uint8(3))
        seq = make_synthetic_expm(n=40, q=3, seed=2)
        assert len(adacur_run(seq, cfg)) == 3


class FetchCountingOracle(DenseOracle):
    """Dense oracle that counts its column- and row-block fetches."""

    def __init__(self, a):
        super().__init__(a)
        self.col_fetches = 0
        self.row_fetches = 0

    def _cols(self, idx):
        self.col_fetches += 1
        return super()._cols(idx)

    def _rows(self, idx):
        self.row_fetches += 1
        return super()._rows(idx)


class TestScratchReads:
    def test_baseline_reads_column_block_once_per_step(self):
        rng = np.random.default_rng(4)
        m, n, r = 400, 120, 10
        u = rng.standard_normal((m, r))
        v = rng.standard_normal((r, n))
        oracles = []

        def provider(j):
            oracles.append(FetchCountingOracle(
                u @ (v + 0.01 * j * rng.standard_normal((r, n)))))
            return oracles[-1]

        seq = ParamMatrixSequence(np.arange(4.0), provider, (m, n))
        res = recompute_baseline_run(
            seq, AdaCurConfig(tol=1e-6, oversample=3, store_factors=False))
        for orc, (fac, tr) in zip(oracles, res):
            sel = fac.selection
            assert sel.cols.size == r and sel.extra_rows.size == 3
            assert orc.col_fetches == 1
            assert tr.entries_read == (m * sel.cols.size
                                       + sel.all_rows.size * n)


    def test_minor_mod_reads_c_and_r_once_more(self):
        # the refined selection's factors are fetched once, for the
        # estimate, and handed back: one C and one R read on top of the
        # reused selection's, as on a REUSE step plus one
        base = make_synthetic_expm(n=60, q=11, seed=0)
        oracles = []

        def provider(j):
            oracles.append(FetchCountingOracle(base.oracle(j).array))
            return oracles[-1]

        seq = ParamMatrixSequence(base.params, provider, base.shape)
        res = adacur_run(seq, AdaCurConfig(tol=1e-8, oversample=3, seed=0))
        fetches = {(tr.action, orc.col_fetches, orc.row_fetches)
                   for orc, (_, tr) in zip(oracles[1:], res[1:])}
        assert fetches == {("REUSE", 1, 1), ("MINOR_MOD", 2, 2)}


class TestRefinementOrder:
    def test_cross_ordered_by_one_srrqr_and_lupp(self, monkeypatch):
        # refinement orders its enlarged cross as fastadacur orders its
        # core: one sRRQR of the cross orders the columns and gives the
        # rank, and LUPP of the column-ordered cross orders the rows;
        # with escalation one step here takes three attempts, two failing
        base = make_schrodinger(n=32, q=21, seed=0)
        seq = ParamMatrixSequence(
            base.params, lambda j: RecordingOracle(base.oracle(j).array),
            base.shape)
        cfg = AdaCurConfig(tol=1e-8, oversample=3, seed=0, escalate_s=True)
        refine = driver.refine_indices
        qr_inputs, attempts = [], []

        def counting(a, **kw):
            qr_inputs.append(a)
            return srrqr(a, **kw)

        def recording(oracle, sel, pack, cfg):
            start = len(qr_inputs)
            out = refine(oracle, sel, pack, cfg)
            rows, cols = oracle.reads[-1]  # the cross is read last
            attempts.append((qr_inputs[start:], rows, cols,
                             oracle.array[np.ix_(rows, cols)],
                             out[0].selection))
            return out

        monkeypatch.setattr(driver, "srrqr", counting)
        monkeypatch.setattr(driver, "refine_indices", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # oversampling may shrink
            adacur_run(seq, cfg)
        assert len(attempts) == 5
        for inputs, rows, cols, g, sel in attempts:
            assert len(inputs) == 1
            np.testing.assert_array_equal(inputs[0], g)
            qr = srrqr(g)
            row_order = rows[lu_pivots(g[:, qr.pivots])]
            r, p = sel.cols.size, sel.extra_rows.size
            assert r == eps_rank_from_rdiag(qr.r, driver._rank_tol(cfg, 32))
            np.testing.assert_array_equal(sel.cols, cols[qr.pivots][:r])
            np.testing.assert_array_equal(sel.rows, row_order[:r])
            np.testing.assert_array_equal(sel.extra_rows,
                                          row_order[r:r + p])


class TestConstantSequence:
    def test_reuse_throughout(self):
        seq = constant_rank_sequence()
        res = adacur_run(seq, AdaCurConfig(tol=1e-6, seed=0))
        traces = [t for _, t in res]
        assert traces[0].action == "RECOMPUTE"
        assert all(t.action == "REUSE" for t in traces[1:])
        assert traces[-1].h1_cum == 0 and traces[-1].h2_cum == 0
        assert all(t.rank == 5 for t in traces)

    def test_reuse_keeps_indices(self):
        seq = constant_rank_sequence()
        res = adacur_run(seq, AdaCurConfig(tol=1e-6, seed=0, oversample=3))
        prev = None
        for fac, tr in res:
            if tr.action == "REUSE":
                np.testing.assert_array_equal(fac.selection.rows, prev.rows)
                np.testing.assert_array_equal(fac.selection.cols, prev.cols)
                np.testing.assert_array_equal(fac.selection.extra_rows,
                                              prev.extra_rows)
            prev = fac.selection

    def test_true_error_small(self):
        seq = constant_rank_sequence()
        cfg = AdaCurConfig(tol=1e-6, seed=0, true_error=True)
        res = adacur_run(seq, cfg)
        for _, tr in res:
            assert tr.true_rel_err <= 1e-10

    def test_first_step_not_counted_in_h2(self):
        seq = constant_rank_sequence(q=3)
        res = adacur_run(seq, AdaCurConfig(tol=1e-6, seed=0))
        assert res[0][1].action == "RECOMPUTE"
        assert res[0][1].h2_cum == 0


class TestReuseSkipsLeftFactor:
    def test_no_cur_evaluation_without_factors_or_true_error(self,
                                                             monkeypatch):
        # steps are scored from the sketch and R alone; the m x k left
        # factor is built only for exact errors and stored factors
        calls = []
        real = driver.stable_cur_eval

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(driver, "stable_cur_eval", counting)
        seq = make_synthetic_expm(n=60, q=11, seed=0)
        cfg = AdaCurConfig(tol=1e-8, oversample=3, store_factors=False)
        actions = [tr.action for _, tr in adacur_run(seq, cfg)]
        assert "REUSE" in actions
        assert not calls
        adacur_run(seq, AdaCurConfig(tol=1e-8, oversample=3,
                                     store_factors=False, true_error=True))
        assert len(calls) == len(actions)


class TestFactorLayout:
    def test_cross_consistency_bitwise(self):
        seq = make_synthetic_expm(n=60, q=6, seed=0)
        cfg = AdaCurConfig(tol=1e-6, oversample=4, seed=1)
        for fac, tr in adacur_run(seq, cfg):
            k = fac.selection.cols.size
            assert fac.c.shape == (60, k)
            assert fac.r.shape == (fac.selection.all_rows.size, 60)
            assert fac.u.shape == (fac.selection.all_rows.size, k)
            # U is literally a shared sub-block of both factors
            np.testing.assert_array_equal(fac.u, fac.r[:, fac.selection.cols])
            np.testing.assert_array_equal(fac.c[fac.selection.all_rows],
                                          fac.u)

    def test_selection_sizes(self):
        seq = make_adversarial(seed=0, q=21)
        p = 3
        cfg = AdaCurConfig(tol=1e-4, oversample=p, seed=0)
        for fac, tr in adacur_run(seq, cfg):
            sel = fac.selection
            assert sel.rows.size == tr.rank
            assert sel.cols.size == tr.rank
            if tr.action in ("MINOR_MOD", "RECOMPUTE") and tr.rank > 0:
                assert sel.extra_rows.size == p

    def test_store_factors_off(self):
        seq = constant_rank_sequence(q=4)
        on = adacur_run(seq, AdaCurConfig(tol=1e-6, seed=0))
        off = adacur_run(seq, AdaCurConfig(tol=1e-6, seed=0,
                                           store_factors=False))
        assert_traces_match([t for _, t in on], [t for _, t in off])
        for fac, _ in off:
            assert fac.c is None and fac.u is None and fac.r is None
            assert fac.selection.cols.size == 5
            with pytest.raises(InvalidInput):
                fac.operator()


class TestAdaptivity:
    def test_tolerance_tracked_on_synthetic(self):
        seq = make_synthetic_expm(n=80, q=21, seed=0)
        cfg = AdaCurConfig(tol=1e-6, err_samples=5, oversample=5, seed=0,
                           true_error=True)
        res = adacur_run(seq, cfg)
        worst = max(tr.true_rel_err for _, tr in res)
        assert worst <= 10 * cfg.tol
        # certified steps carry an estimate at or below the tolerance
        for _, tr in res:
            assert tr.est_rel_err is not None
            if tr.action == "REUSE":
                assert tr.est_rel_err <= cfg.tol

    def test_rank_follows_growth(self):
        # the synthetic spectrum rises like e^t, pushing one more
        # singular value over the threshold as t sweeps to 1
        seq = make_synthetic_expm(n=80, q=21, seed=0)
        res = adacur_run(seq, AdaCurConfig(tol=1e-6, oversample=5, seed=0))
        ranks = [tr.rank for _, tr in res]
        assert ranks[-1] >= ranks[0]
        assert max(ranks) > min(ranks)

    def test_escalation_swaps_recompute_for_refinement(self):
        # the adversarial block ramp raises the rank by 10 in one step;
        # a 5-row residual sketch cannot append enough indices, so the
        # plain driver recomputes, while sketch escalation refines
        seq = make_adversarial(seed=0, q=41)
        base = AdaCurConfig(tol=1e-4, err_samples=5, oversample=5, seed=1)
        esc = AdaCurConfig(tol=1e-4, err_samples=5, oversample=5, seed=1,
                           escalate_s=True)
        tr_base = [t for _, t in adacur_run(seq, base)]
        tr_esc = [t for _, t in adacur_run(seq, esc)]
        assert tr_base[-1].h2_cum == 1 and tr_base[-1].h1_cum == 0
        assert tr_esc[-1].h2_cum == 0 and tr_esc[-1].h1_cum == 1

    @pytest.mark.parametrize("run,cfg,actions,ranks,h1,h2", [
        (adacur_run, AdaCurConfig(tol=1e-8, seed=0),
         ["RECOMPUTE", "RECOMPUTE", "REUSE", "RECOMPUTE", "REUSE",
          "RECOMPUTE", "RECOMPUTE"], [6, 0, 0, 6, 6, 0, 6],
         [0] * 7, [0, 1, 1, 2, 2, 3, 4]),
        (recompute_baseline_run, AdaCurConfig(tol=1e-8, seed=0),
         ["RECOMPUTE"] * 7, [6, 0, 0, 6, 6, 0, 6], [0] * 7, list(range(7))),
        (fastadacur_run, FastConfig(tol=1e-8, seed=0),
         ["RECOMPUTE", "TRUNCATE", "TRUNCATE", "EXPAND", "EXPAND",
          "TRUNCATE", "EXPAND"], [6, 0, 0, 5, 6, 0, 5],
         [0, 1, 2, 2, 2, 3, 3], [0, 0, 0, 1, 2, 2, 3]),
    ], ids=["adacur", "baseline", "fastadacur"])
    def test_zero_and_nonzero_steps(self, run, cfg, actions, ranks, h1, h2):
        # a zero sketch on a non-empty selection drops it: RECOMPUTE
        rng = np.random.default_rng(6)
        a = rng.standard_normal((60, 6)) @ rng.standard_normal((6, 45))
        z = np.zeros_like(a)
        mats = [a, z, z, a, 2 * a, z, a]
        seq = ParamMatrixSequence(np.arange(7.0),
                                  lambda j: DenseOracle(mats[j]), (60, 45))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traces = [t for _, t in run(seq, cfg)]
        assert [t.action for t in traces] == actions
        assert [t.rank for t in traces] == ranks
        assert [t.h1_cum for t in traces] == h1
        assert [t.h2_cum for t in traces] == h2

    def test_zero_steps_then_growth(self):
        rng = np.random.default_rng(0)
        a3 = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 30))
        mats = [np.zeros((40, 30)), np.zeros((40, 30)), a3]
        seq = ParamMatrixSequence([0.0, 1.0, 2.0],
                                  lambda j: DenseOracle(mats[j]), (40, 30))
        res = adacur_run(seq, AdaCurConfig(tol=1e-8, seed=0,
                                           true_error=True))
        traces = [t for _, t in res]
        assert [t.rank for t in traces] == [0, 0, 3]
        assert traces[1].action == "REUSE"
        assert traces[2].true_rel_err <= 1e-8


class TestWarningsNameCaller:
    """Package warnings point at the caller's line, not inside adacur."""

    def test_shrinking_oversampling(self):
        seq = make_schrodinger(n=32, q=11, seed=0)
        cfg = AdaCurConfig(tol=1e-10, oversample=3, seed=0, escalate_s=True)
        with pytest.warns(UserWarning, match="shrinking oversampling") as rec:
            adacur_run(seq, cfg)
        shrunk = [w for w in rec if "shrinking" in str(w.message)]
        assert {w.filename for w in shrunk} == {__file__}

    @pytest.mark.parametrize("run, cfg", [
        (adacur_run, AdaCurConfig(tol=1e-8, oversample=5)),
        (recompute_baseline_run, AdaCurConfig(tol=1e-8, oversample=5)),
        (fastadacur_run, FastConfig(tol=1e-8, oversample=5)),
    ], ids=["adacur", "baseline", "fastadacur"])
    def test_rank_tolerance_unresolved(self, run, cfg):
        # a 1e12-scaled rank-5 matrix: rounding noise sits far above the
        # absolute rank tolerance, so the sketch cap is reached
        rng = np.random.default_rng(0)
        a = 1e12 * (rng.standard_normal((300, 5))
                    @ rng.standard_normal((5, 100)))
        seq = ParamMatrixSequence([0.0], lambda j: DenseOracle(a), a.shape)
        with pytest.warns(RuntimeWarning, match="unresolved") as rec:
            run(seq, cfg)
        assert {w.filename for w in rec
                if "unresolved" in str(w.message)} == {__file__}


class TestBookkeeping:
    def test_deterministic(self):
        seq = make_synthetic_expm(n=60, q=11, seed=2)
        cfg = AdaCurConfig(tol=1e-6, oversample=5, seed=7)
        r1 = adacur_run(seq, cfg)
        r2 = adacur_run(seq, cfg)
        assert_traces_match([t for _, t in r1], [t for _, t in r2])
        for (f1, _), (f2, _) in zip(r1, r2):
            np.testing.assert_array_equal(f1.c, f2.c)
            np.testing.assert_array_equal(f1.u, f2.u)
            np.testing.assert_array_equal(f1.r, f2.r)

    def test_counters_and_wall_recorded(self):
        seq = constant_rank_sequence(q=4)
        res = adacur_run(seq, AdaCurConfig(tol=1e-6, seed=0))
        for _, tr in res:
            assert tr.matvecs > 0
            assert tr.entries_read > 0
            assert tr.wall_ms >= 0.0

    @pytest.mark.parametrize("run", [adacur_run, recompute_baseline_run],
                             ids=["adacur", "baseline"])
    def test_partial_trace_on_failure(self, run):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((30, 5)) @ rng.standard_normal((5, 25))

        def provider(j):
            if j == 3:
                raise RuntimeError("snapshot unavailable")
            return DenseOracle(a)

        seq = ParamMatrixSequence(np.arange(6, dtype=float), provider,
                                  (30, 25))
        with pytest.raises(RuntimeError) as info:
            run(seq, AdaCurConfig(tol=1e-6, seed=0))
        assert len(info.value.partial_trace) == 3
        assert [t.step for t in info.value.partial_trace] == [0, 1, 2]

    @pytest.mark.parametrize("place", ["row block", "outside cross"])
    @pytest.mark.parametrize("run", [adacur_run, recompute_baseline_run],
                             ids=["adacur", "baseline"])
    def test_non_finite_snapshot_names_step(self, run, place):
        seq = constant_rank_sequence(q=6)
        a = seq.oracle(0).array
        cfg = AdaCurConfig(tol=1e-6, seed=0)
        sel = run(seq, cfg)[3][0].selection
        free_rows = np.setdiff1d(np.arange(a.shape[0]), sel.all_rows)
        free_cols = np.setdiff1d(np.arange(a.shape[1]), sel.cols)
        bad = a.copy()
        row = sel.rows[0] if place == "row block" else free_rows[0]
        bad[row, free_cols[0]] = np.nan
        sick = ParamMatrixSequence(
            seq.params, lambda j: DenseOracle(bad if j == 3 else a), a.shape)
        with pytest.raises(NonFiniteSnapshot) as info:
            run(sick, cfg)
        assert not isinstance(info.value, InvalidInput)
        assert info.value.step == 3
        assert str(info.value).startswith("step 3: ")
        assert [t.step for t in info.value.partial_trace] == [0, 1, 2]

    def test_empty_sequence_rejected(self):
        with pytest.raises(InvalidInput):
            ParamMatrixSequence([], lambda j: None, (3, 3))

    def test_estimated_error_close_to_truth(self):
        # on REUSE steps the recorded estimate reflects the actual error
        # within the sketch's factor-two band (statistically)
        seq = make_synthetic_expm(n=80, q=11, seed=4)
        cfg = AdaCurConfig(tol=1e-5, oversample=5, seed=3, true_error=True)
        res = adacur_run(seq, cfg)
        checked = 0
        for _, tr in res:
            if tr.action == "REUSE" and tr.true_rel_err > 1e-12:
                assert tr.est_rel_err <= 10 * max(tr.true_rel_err, 1e-12)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("run", [adacur_run, recompute_baseline_run])
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_estimate_is_of_returned_factors(self, problem, run, seed):
        # the recorded estimate is a fresh estimate, at the step's sketch
        # seed, of exactly the factors the step returns
        seq = _sequence(problem)
        cfg = AdaCurConfig(tol=PROBLEMS[problem][1], oversample=3,
                           seed=seed)
        for j, (fac, tr) in enumerate(run(seq, cfg)):
            try:
                want = estimate_cur_error(
                    seq.oracle(j), fac.selection.cols, fac.r,
                    s=cfg.err_samples,
                    seed=derive_seed(cfg.seed, j, 0xE5)).rel_error
            except ZeroMatrixSketch:
                want = 0.0
            assert tr.est_rel_err == want, (j, tr.action)


class TestRecomputeBaseline:
    def test_every_step_from_scratch(self):
        seq = make_synthetic_expm(n=60, q=9, seed=0)
        cfg = AdaCurConfig(tol=1e-6, oversample=5, seed=0)
        res = recompute_baseline_run(seq, cfg)
        traces = [t for _, t in res]
        assert all(t.action == "RECOMPUTE" for t in traces)
        assert all(t.h1_cum == 0 for t in traces)
        assert traces[-1].h2_cum == len(traces) - 1

    def test_same_accuracy_as_adaptive(self):
        seq = make_synthetic_expm(n=60, q=9, seed=0)
        cfg = AdaCurConfig(tol=1e-6, oversample=5, seed=0, true_error=True)
        res = recompute_baseline_run(seq, cfg)
        assert max(t.true_rel_err for _, t in res) <= 10 * cfg.tol
