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
from adacur.errors import InvalidInput, NonFiniteSnapshot
from adacur.fast import FastConfig, fastadacur_run
from adacur.linalg import eps_rank_from_rdiag, lu_pivots, lu_row_id, srrqr
from adacur.normest import estimate_cur_error
from adacur.oracles import DenseOracle, ParamMatrixSequence
from adacur.oversample import oversample_rows_multi
from adacur.problems import (
    make_adversarial,
    make_schrodinger,
    make_speed_problem,
    make_synthetic_expm,
    true_relative_error,
)
from adacur.sketch import derive_seed

from conftest import assert_traces_match
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
        ("true_error", 2), ("true_error", None), ("store_factors", "no"),
        ("store_factors", 1)])
    def test_non_bool_flags_rejected(self, name, value):
        with pytest.raises(InvalidInput, match=name):
            AdaCurConfig(tol=1e-6, **{name: value})

    @pytest.mark.parametrize("tol", ["1e-6", None, 1e-6j])
    def test_non_real_tol_rejected(self, tol):
        with pytest.raises(InvalidInput, match="tol"):
            AdaCurConfig(tol=tol)

    def test_numpy_bools_and_floats_accepted(self):
        cfg = AdaCurConfig(tol=np.float32(1e-6), true_error=np.bool_(False),
                           store_factors=np.bool_(True))
        assert cfg.store_factors and not cfg.true_error

    def test_numpy_integers_accepted(self):
        cfg = AdaCurConfig(tol=1e-8, err_samples=np.int64(4),
                           oversample=np.int32(2), seed=np.uint8(3))
        seq = make_synthetic_expm(n=40, q=3, seed=2)
        assert len(adacur_run(seq, cfg)) == 3


class FetchCountingOracle(DenseOracle):
    """Dense oracle that counts its column-block, row-block and
    submatrix fetches, and records the columns of each column fetch."""

    def __init__(self, a):
        super().__init__(a)
        self.col_fetches = 0
        self.row_fetches = 0
        self.sub_fetches = 0
        self.col_reads = []

    def _submatrix(self, rows, cols):
        self.sub_fetches += 1
        return super()._submatrix(rows, cols)

    def _cols(self, idx):
        self.col_fetches += 1
        self.col_reads.append(idx)
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

    def test_refinement_attempt_reads_one_column_and_one_row_block(
            self, monkeypatch):
        # an attempt reads C+ = A[:, J + J1] and the refined R, and
        # slices its cross out of C+: m |J + J1| + |I'| n entries
        base = make_schrodinger(n=32, q=21, seed=0)
        seq = ParamMatrixSequence(
            base.params, lambda j: FetchCountingOracle(base.oracle(j).array),
            base.shape)
        refine = driver.refine_indices
        reads = []

        def counting(oracle, sel, pack, cfg):
            def tally():
                return np.array([oracle.col_fetches, oracle.row_fetches,
                                 oracle.sub_fetches,
                                 oracle.counters.entries_read])
            before = tally()
            out = refine(oracle, sel, pack, cfg)
            m, n = oracle.shape
            j1 = min(pack.residual_sketch.shape[0], n - sel.cols.size)
            entries = (m * (sel.cols.size + j1)
                       + out[0].selection.all_rows.size * n)
            reads.append((tuple(tally() - before), (1, 1, 0, entries)))
            return out

        monkeypatch.setattr(driver, "refine_indices", counting)
        adacur_run(seq, AdaCurConfig(tol=1e-8, oversample=3, seed=2))
        assert len(reads) == 5
        for got, want in reads:
            assert got == want


def record_refinements(monkeypatch, seq, cfg):
    """Run adacur on ``seq``; per refinement attempt, what it did.

    Each record holds the refined selection and the selection it
    refined, the columns of the attempt's column-block reads, the
    inputs of its ``cpqr`` and ``srrqr`` calls, the rows and the cross
    it handed to ``_order_cross``, and its residual sketch.
    """
    refine, order = driver.refine_indices, driver._order_cross
    calls = {"cpqr": [], "srrqr": [], "order": []}

    def counting(name, fn):
        def wrapped(a, **kw):
            calls[name].append(a)
            return fn(a, **kw)
        return wrapped

    def ordering(rows, cols, g, rank_tol):
        calls["order"].append((rows, g))
        return order(rows, cols, g, rank_tol)

    attempts = []

    def recording(oracle, sel, pack, cfg):
        marks = {k: len(v) for k, v in calls.items()}
        reads = len(oracle.col_reads)
        out = refine(oracle, sel, pack, cfg)
        rec = {k: v[marks[k]:] for k, v in calls.items()}
        rec.update(new=out[0].selection, old=sel, oracle=oracle,
                   col_reads=oracle.col_reads[reads:],
                   residual=pack.residual_sketch)
        attempts.append(rec)
        return out

    monkeypatch.setattr(driver, "cpqr", counting("cpqr", driver.cpqr))
    monkeypatch.setattr(driver, "srrqr", counting("srrqr", srrqr))
    monkeypatch.setattr(driver, "_order_cross", ordering)
    monkeypatch.setattr(driver, "refine_indices", recording)
    adacur_run(seq, cfg)
    return attempts


class TestRefinementOrder:
    def test_cross_ordered_by_one_srrqr_and_lupp(self, monkeypatch):
        # an attempt reads C+ = A[:, J + J1] once, J1 from cpqr of the
        # residual sketch; new rows grow on C+'s row ID, one sRRQR of the
        # cross C+[I + I1] orders the columns and gives the rank, LUPP of
        # the column-ordered cross orders the rows, and the extra rows
        # grow on the row ID of the kept columns; one step here takes
        # three attempts, two failing
        base = make_schrodinger(n=32, q=21, seed=0)
        seq = ParamMatrixSequence(
            base.params,
            lambda j: FetchCountingOracle(base.oracle(j).array),
            base.shape)
        cfg = AdaCurConfig(tol=1e-8, oversample=3, seed=2)
        attempts = record_refinements(monkeypatch, seq, cfg)
        assert len(attempts) == 5
        assert [len(a["new"].extra_rows) for a in attempts] == [3] * 5
        for at in attempts:
            a, old, new = at["oracle"].array, at["old"], at["new"]
            m, n = a.shape
            unchosen = np.setdiff1d(np.arange(n), old.cols)
            assert len(at["cpqr"]) == 1 and len(at["srrqr"]) == 1
            np.testing.assert_array_equal(at["cpqr"][0],
                                          at["residual"][:, unchosen])
            (cols,) = at["col_reads"]
            j1 = cols[old.cols.size:]
            np.testing.assert_array_equal(cols[:old.cols.size], old.cols)
            assert j1.size == min(at["residual"].shape[0], unchosen.size)
            (rows, g), = at["order"]
            old_rows = old.all_rows
            np.testing.assert_array_equal(rows, np.concatenate([
                old_rows, oversample_rows_multi(
                    lu_row_id(a[:, cols[:m]]), old_rows,
                    min(j1.size, m - old_rows.size))]))
            np.testing.assert_array_equal(g, a[np.ix_(rows, cols)])
            np.testing.assert_array_equal(at["srrqr"][0], g)
            qr = srrqr(g)
            r = new.cols.size
            assert r == eps_rank_from_rdiag(qr.r, driver._rank_tol(cfg, n))
            np.testing.assert_array_equal(new.cols, cols[qr.pivots][:r])
            np.testing.assert_array_equal(
                new.rows, rows[lu_pivots(g[:, qr.pivots])][:r])
            np.testing.assert_array_equal(
                new.extra_rows, oversample_rows_multi(
                    lu_row_id(a[:, new.cols]), new.rows, cfg.oversample))


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

    @pytest.mark.parametrize("run, cfg", [
        (adacur_run, AdaCurConfig(tol=1e-6)),
        (recompute_baseline_run, AdaCurConfig(tol=1e-6)),
        (fastadacur_run, FastConfig(tol=1e-6, buffer=0)),
    ], ids=["adacur", "baseline", "fastadacur"])
    def test_selection_owns_its_indices(self, run, cfg):
        # with no rows grown a selection holds the pivoting's r pivots;
        # as views they would keep its m- and n-long LU permutations
        seq = make_speed_problem(m=600, n=200, r=20, q=2, seed=0)
        for fac, _ in run(seq, cfg):
            for idx in (fac.selection.rows, fac.selection.cols):
                held = idx if idx.base is None else idx.base
                assert held.size == idx.size > 0

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_drift_refines_within_tolerance(self, seed):
        # sparse noise at 1e-6 grows the rank step by step; refinement
        # must follow it without a recompute and stay within tol
        seq = make_speed_problem(m=800, n=200, r=20, q=8, seed=seed,
                                 delta=1e-6, density=1e-3)
        cfg = AdaCurConfig(tol=1e-6, err_samples=10, oversample=10,
                           seed=seed + 1, true_error=True,
                           store_factors=False)
        traces = [t for _, t in adacur_run(seq, cfg)]
        assert traces[-1].h2_cum == 0
        assert max(t.true_rel_err for t in traces) <= cfg.tol

    def test_escalation_swaps_recompute_for_refinement(self):
        # the adversarial block ramp raises the rank by 10 in one step;
        # a 5-row residual sketch cannot append enough indices, so the
        # refinement retries on a doubled sketch instead of recomputing
        seq = make_adversarial(seed=0, q=41)
        cfg = AdaCurConfig(tol=1e-4, err_samples=5, oversample=5, seed=1)
        traces = [t for _, t in adacur_run(seq, cfg)]
        assert traces[-1].h2_cum == 0 and traces[-1].h1_cum == 1

    @pytest.mark.parametrize("seed", [1, 3])
    def test_schrodinger_refines_within_tolerance(self, seed):
        # with a failed refinement retried on doubled sketches, no step
        # after the first recomputes and every exact error stays within
        # 2 tol
        seq = make_schrodinger(n=128, seed=0)
        cfg = AdaCurConfig(tol=1e-10, err_samples=5, oversample=5,
                           seed=seed, true_error=True)
        traces = [t for _, t in adacur_run(seq, cfg)]
        assert traces[-1].h2_cum == 0
        assert max(t.true_rel_err for t in traces) <= 2 * cfg.tol

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

    def test_empty_selection_recomputes_directly(self):
        # after a zero snapshot the empty selection goes straight to a
        # from-scratch step, which reads what fastadacur's re-selection
        # reads, instead of refining from nothing first
        rng = np.random.default_rng(0)
        mats = [np.zeros((60, 40))] + [
            rng.standard_normal((60, 8)) @ rng.standard_normal((8, 40))
            for _ in range(4)]
        seq = ParamMatrixSequence(np.arange(5.0),
                                  lambda j: DenseOracle(mats[j]), (60, 40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ada = [t for _, t in adacur_run(
                seq, AdaCurConfig(tol=1e-8, oversample=2, seed=0))]
            fast = [t for _, t in fastadacur_run(
                seq, FastConfig(tol=1e-8, oversample=2, seed=0))]
        assert [t.action for t in ada] == ["RECOMPUTE"] * 2 + ["REUSE"] * 3
        assert [t.rank for t in ada] == [0, 8, 8, 8, 8]
        assert ada[1].matvecs == 21
        assert ada[1].entries_read == fast[1].entries_read == 880


class TestWarningsNameCaller:
    """Inputs the drivers resolve without a warning."""

    @pytest.mark.parametrize("run, cfg", [
        (adacur_run, AdaCurConfig(tol=1e-8, oversample=5)),
        (recompute_baseline_run, AdaCurConfig(tol=1e-8, oversample=5)),
        (fastadacur_run, FastConfig(tol=1e-8, oversample=5)),
    ], ids=["adacur", "baseline", "fastadacur"])
    def test_noise_above_tolerance_is_silent(self, run, cfg):
        # a 1e12-scaled rank-5 matrix: rounding noise sits far above the
        # absolute rank tolerance, so the sketch grows to s = min(m, n)
        # and its full count is the rank, without a warning
        rng = np.random.default_rng(0)
        a = 1e12 * (rng.standard_normal((300, 5))
                    @ rng.standard_normal((5, 100)))
        seq = ParamMatrixSequence([0.0], lambda j: DenseOracle(a), a.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(seq, cfg)
        assert [(tr.rank, tr.action) for _, tr in res] == [(100, "RECOMPUTE")]

    @pytest.mark.parametrize("shape", [(10, 1000), (1000, 10)])
    @pytest.mark.parametrize("run, cfg", [
        (recompute_baseline_run, AdaCurConfig(tol=1e-8, oversample=5)),
        (fastadacur_run, FastConfig(tol=1e-8, oversample=5)),
    ], ids=["baseline", "fastadacur"])
    def test_full_rank_input_is_resolved(self, run, cfg, shape):
        # a full-rank input selects min(m, n) indices without a warning
        a = np.random.default_rng(4).standard_normal(shape)
        seq = ParamMatrixSequence([0.0, 1.0], lambda j: DenseOracle(a),
                                  shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(seq, cfg)
        assert [tr.rank for _, tr in res] == [10, 10]


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

    @pytest.mark.parametrize("fault", ["shape", "array"])
    @pytest.mark.parametrize("driver_name",
                             ["adacur", "baseline", "fastadacur"])
    def test_provider_fault_names_step(self, driver_name, fault):
        # a bad provider result is an InvalidInput at the sequence
        # boundary; the step loop puts its step on the exception too
        a = constant_rank_sequence().oracle(0).array
        bad = DenseOracle(a[:, 1:]) if fault == "shape" else a
        seq = ParamMatrixSequence(
            np.arange(4.0), lambda j: bad if j == 2 else DenseOracle(a),
            a.shape)
        run, cfg = {
            "adacur": (adacur_run, AdaCurConfig(tol=1e-6, seed=0)),
            "baseline": (recompute_baseline_run,
                         AdaCurConfig(tol=1e-6, seed=0)),
            "fastadacur": (fastadacur_run, FastConfig(tol=1e-6, seed=0)),
        }[driver_name]
        with pytest.raises(InvalidInput, match="at step 2") as info:
            run(seq, cfg)
        assert info.value.step == 2
        assert [t.step for t in info.value.partial_trace] == [0, 1]

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
        # seed, of exactly the factors the step returns: with the step's
        # s = err_samples rows, or with s doubled k <= 4 times if the
        # step refined on a grown sketch
        seq = _sequence(problem)
        cfg = AdaCurConfig(tol=PROBLEMS[problem][1], oversample=3,
                           seed=seed)
        for j, (fac, tr) in enumerate(run(seq, cfg)):
            ks = [k for k in range(driver._DOUBLINGS + 1)
                  if tr.est_rel_err == estimate_cur_error(
                      seq.oracle(j), fac.selection.cols, fac.r,
                      s=cfg.err_samples << k,
                      seed=derive_seed(cfg.seed, j, 0xE5)).rel_error]
            assert len(ks) == 1, (j, tr.action, ks)
            assert ks[0] == 0 or tr.action == "MINOR_MOD", (j, ks)


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
