"""Tests for the sketch-free fast driver."""

import numpy as np
import pytest

from adacur import driver
from adacur.errors import InvalidInput, NonFiniteSnapshot
from adacur.fast import FastConfig, fastadacur_run
from adacur.linalg import lu_pivots, srrqr
from adacur.oracles import DenseOracle, ParamMatrixSequence
from adacur.problems import (
    make_adversarial,
    make_synthetic_expm,
    true_relative_error,
)

from conftest import assert_traces_match


def read_budget(tr_prev, tr, b, p, m, n):
    """Entry-read ceiling for one tracked step."""
    r_in, r_out = tr_prev.rank, tr.rank
    return (r_in + b + p) * (r_in + b) + (m + n) * (r_out + p)


class TestFastConfig:
    def test_tol_range(self):
        with pytest.raises(InvalidInput):
            FastConfig(tol=2.0)

    def test_negative_buffer_rejected(self):
        with pytest.raises(InvalidInput):
            FastConfig(tol=1e-6, buffer=-1)

    @pytest.mark.parametrize("name,value", [
        ("buffer", 2.5), ("oversample", 1.5), ("seed", 0.5),
        ("buffer", True)])
    def test_non_integer_fields_rejected(self, name, value):
        with pytest.raises(InvalidInput, match=name):
            FastConfig(tol=1e-8, **{name: value})

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_non_bool_store_factors_rejected(self, value):
        with pytest.raises(InvalidInput, match="store_factors"):
            FastConfig(tol=1e-6, store_factors=value)

    @pytest.mark.parametrize("tol", ["x", None, 1e-6j])
    def test_non_real_tol_rejected(self, tol):
        with pytest.raises(InvalidInput, match="tol"):
            FastConfig(tol=tol)

    def test_numpy_bool_accepted(self):
        cfg = FastConfig(tol=1e-6, store_factors=np.bool_(False))
        assert not cfg.store_factors


class TestTracking:
    def test_constant_sequence_stays_put(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((50, 6)) @ rng.standard_normal((6, 40))
        seq = ParamMatrixSequence(np.arange(5, dtype=float),
                                  lambda j: DenseOracle(a), (50, 40))
        res = fastadacur_run(seq, FastConfig(tol=1e-8, buffer=3,
                                             oversample=2, seed=0))
        traces = [t for _, t in res]
        assert traces[0].action == "RECOMPUTE"
        assert all(t.rank == 6 for t in traces)
        assert traces[-1].h2_cum == 0
        for fac, _ in res:
            err = true_relative_error(DenseOracle(a), fac.operator())
            assert err <= 1e-10

    def test_no_error_estimation(self):
        seq = make_synthetic_expm(n=50, q=7, seed=0)
        res = fastadacur_run(seq, FastConfig(tol=1e-6, buffer=3, seed=0))
        for _, tr in res:
            assert tr.est_rel_err is None
            assert tr.true_rel_err is None
            assert tr.matvecs == 0 or tr.step == 0

    def test_rank_increase_capped_by_buffer(self):
        # the core block exposes only r+b columns, so the revealed rank
        # can grow by at most b per step
        b = 4
        seq = make_adversarial(seed=0, q=41)
        res = fastadacur_run(seq, FastConfig(tol=1e-4, buffer=b,
                                             oversample=2, seed=0))
        ranks = [t.rank for _, t in res]
        for r_prev, r_next in zip(ranks, ranks[1:]):
            assert r_next - r_prev <= b

    def test_tracked_set_sizes(self):
        b, p = 3, 2
        seq = make_synthetic_expm(n=60, q=9, seed=1)
        res = fastadacur_run(seq, FastConfig(tol=1e-6, buffer=b,
                                             oversample=p, seed=0))
        for fac, tr in res:
            sel = fac.selection
            assert sel.cols.size == tr.rank
            assert sel.rows.size == tr.rank
            assert sel.extra_rows.size == min(p, 60 - tr.rank)

    def test_truncate_and_expand_counted(self):
        # the synthetic spectrum grows like e^t, so the revealed core
        # rank crosses the threshold at least once during the sweep
        seq = make_synthetic_expm(n=80, q=21, seed=0)
        res = fastadacur_run(seq, FastConfig(tol=1e-6, buffer=5,
                                             oversample=2, seed=0))
        traces = [t for _, t in res]
        n_trunc = sum(t.action == "TRUNCATE" for t in traces)
        n_expand = sum(t.action == "EXPAND" for t in traces)
        assert traces[-1].h1_cum == n_trunc
        assert traces[-1].h2_cum == n_expand
        assert n_expand >= 1

    def test_empty_cross_is_reselected(self):
        # a zero first snapshot leaves nothing to track; the next step
        # selects its cross from scratch, counted in h2
        rng = np.random.default_rng(0)
        mats = [np.zeros((60, 40))] + [
            rng.standard_normal((60, 8)) @ rng.standard_normal((8, 40))
            for _ in range(4)]
        seq = ParamMatrixSequence(np.arange(5.0),
                                  lambda j: DenseOracle(mats[j]), (60, 40))
        res = fastadacur_run(seq, FastConfig(tol=1e-8, seed=0))
        traces = [t for _, t in res]
        assert [t.rank for t in traces] == [0, 8, 8, 8, 8]
        assert [t.action for t in traces] == ["RECOMPUTE"] * 2 + \
            ["TRUNCATE"] * 3
        assert [(t.h1_cum, t.h2_cum) for t in traces] == [
            (0, 0), (0, 1), (1, 1), (2, 1), (3, 1)]
        for j, (fac, _) in enumerate(res[1:], start=1):
            assert true_relative_error(seq.oracle(j),
                                       fac.operator()) <= 1e-10

    def test_clamp_warning_names_caller(self):
        # rank 2 -> 7 on a 12x10 matrix: rank + buffer exceeds n
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((12, r)) @ rng.standard_normal((r, 10))
                for r in (2, 7)]
        seq = ParamMatrixSequence([0.0, 1.0],
                                  lambda j: DenseOracle(mats[j]), (12, 10))
        with pytest.warns(UserWarning, match="clamped") as rec:
            res = fastadacur_run(seq, FastConfig(tol=1e-8, buffer=5,
                                                 seed=0))
        assert res[1][1].action == "EXPAND"
        clamped = [w for w in rec if "clamped" in str(w.message)]
        assert [w.filename for w in clamped] == [__file__]

    def test_expand_with_more_lead_rows_than_columns(self):
        # rank 3 -> 6 on a 40x10 matrix with oversample 8: the row block
        # that seeds the column oversampling has 5 + 8 > 10 rows
        rng = np.random.default_rng(0)
        mats = [rng.standard_normal((40, r)) @ rng.standard_normal((r, 10))
                for r in (3, 6)]
        seq = ParamMatrixSequence([0.0, 1.0],
                                  lambda j: DenseOracle(mats[j]), (40, 10))
        res = fastadacur_run(seq, FastConfig(tol=1e-8, buffer=2,
                                             oversample=8, seed=0))
        fac, tr = res[1]
        assert (tr.action, tr.rank) == ("EXPAND", 5)   # growth capped by b
        assert fac.selection.extra_rows.size == 8

    def test_blind_to_off_index_growth(self):
        # the adversarial ramp appears in rows and columns the tracked
        # set never reads, so the fast driver misses it entirely: no
        # expansion, and the final approximation error is large
        seq = make_adversarial(seed=0, q=41)
        res = fastadacur_run(seq, FastConfig(tol=1e-4, buffer=5,
                                             oversample=5, seed=0))
        assert res[-1][1].h2_cum == 0
        final_err = true_relative_error(seq.oracle(len(seq) - 1),
                                        res[-1][0].operator())
        assert final_err >= 100 * 1e-4


class TestReadBudget:
    def test_per_step_reads_bounded(self):
        b, p = 5, 5
        for seq in [make_synthetic_expm(n=60, q=9, seed=0),
                    make_adversarial(seed=0, q=21)]:
            m, n = seq.shape
            res = fastadacur_run(seq, FastConfig(tol=1e-5, buffer=b,
                                                 oversample=p, seed=0))
            traces = [t for _, t in res]
            for tr_prev, tr in zip(traces[1:], traces[2:]):
                cap = read_budget(tr_prev, tr, b, p, m, n)
                assert tr.entries_read <= cap, (
                    f"step {tr.step}: read {tr.entries_read} > {cap}")

    def test_first_step_reads_c_and_r_once(self):
        # the pivot rows read to grow the column set become R's leading
        # rows, so the first step reads C and R once each, nothing more
        seq = make_adversarial(seed=0, q=3)
        m, n = seq.shape
        fac, tr = fastadacur_run(seq, FastConfig(tol=1e-4, buffer=5,
                                                 oversample=5, seed=1))[0]
        r, p_eff = tr.rank, fac.selection.extra_rows.size
        assert (r, p_eff) == (20, 5)
        assert tr.entries_read == m * r + (r + p_eff) * n


class TestFactors:
    def test_cross_consistency_bitwise(self):
        seq = make_synthetic_expm(n=50, q=6, seed=2)
        res = fastadacur_run(seq, FastConfig(tol=1e-6, buffer=3,
                                             oversample=2, seed=0))
        for fac, tr in res:
            np.testing.assert_array_equal(fac.u, fac.r[:, fac.selection.cols])
            np.testing.assert_array_equal(fac.c[fac.selection.all_rows],
                                          fac.u)

    def test_accuracy_on_smooth_problem(self):
        seq = make_synthetic_expm(n=80, q=21, seed=0)
        res = fastadacur_run(seq, FastConfig(tol=1e-6, buffer=5,
                                             oversample=5, seed=0))
        worst = 0.0
        for j, (fac, _) in enumerate(res):
            worst = max(worst, true_relative_error(seq.oracle(j),
                                                   fac.operator()))
        assert worst <= 100 * 1e-6

    def test_deterministic(self):
        seq = make_synthetic_expm(n=50, q=8, seed=3)
        cfg = FastConfig(tol=1e-6, buffer=4, oversample=3, seed=5)
        r1 = fastadacur_run(seq, cfg)
        r2 = fastadacur_run(seq, cfg)
        assert_traces_match([t for _, t in r1], [t for _, t in r2])
        for (f1, _), (f2, _) in zip(r1, r2):
            np.testing.assert_array_equal(f1.c, f2.c)
            np.testing.assert_array_equal(f1.r, f2.r)

    def test_partial_trace_on_failure(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((30, 5)) @ rng.standard_normal((5, 25))

        def provider(j):
            if j == 2:
                raise RuntimeError("snapshot unavailable")
            return DenseOracle(a)

        seq = ParamMatrixSequence(np.arange(5, dtype=float), provider,
                                  (30, 25))
        with pytest.raises(RuntimeError) as info:
            fastadacur_run(seq, FastConfig(tol=1e-6, buffer=2, seed=0))
        assert len(info.value.partial_trace) == 2

    @pytest.mark.parametrize("place, step", [("core", 3), ("row block", 2)])
    def test_non_finite_snapshot_names_step(self, place, step):
        # a NaN in a block the step reads is bad data at that step, not
        # a bad argument; the clean run gives the step's core read and
        # selection, which a NaN outside the core leaves as they are.
        # Step 2 is an EXPAND, which reads R to grow the columns
        clean, cfg, res, (rows, cols) = clean_run_and_core(step)
        sel = res[step][0].selection
        bad = clean.oracle(step).array.copy()
        if place == "core":
            bad[rows[0], cols[0]] = np.nan
        else:
            bad[sel.rows[0], np.setdiff1d(np.arange(40), cols)[0]] = np.nan
        with pytest.raises(NonFiniteSnapshot) as info:
            fastadacur_run(sequence_with(clean, step, bad), cfg)
        assert info.value.step == step
        assert str(info.value).startswith(f"step {step}: ")
        assert [t.step for t in info.value.partial_trace] == list(range(step))

    @pytest.mark.parametrize("block", ["row block", "column block"])
    def test_non_finite_factor_block_raises_on_first_read(self, block):
        # step 3 is a TRUNCATE, which reads its core alone: a NaN outside
        # the core passes the step and raises where the factors read it
        clean, cfg, res, (rows, cols) = clean_run_and_core(3)
        sel = res[3][0].selection
        bad = clean.oracle(3).array.copy()
        if block == "row block":
            bad[sel.rows[0], np.setdiff1d(np.arange(40), cols)[0]] = np.nan
        else:
            bad[np.setdiff1d(np.arange(40), rows)[0], sel.cols[0]] = np.nan
        sick = fastadacur_run(sequence_with(clean, 3, bad), cfg)
        fac, tr = sick[3]
        assert tr.action == "TRUNCATE"
        assert_traces_match([t for _, t in sick], [t for _, t in res])
        if block == "column block":
            assert np.isfinite(fac.r).all()
        with pytest.raises(NonFiniteSnapshot, match=block):
            fac.c if block == "column block" else fac.r


def clean_run_and_core(step):
    """Sequence, config and run of the non-finite tests' clean case, and
    the ``(rows, cols)`` of ``step``'s core read."""
    ref = make_synthetic_expm(n=40, q=6, seed=0)
    mats = [ref.oracle(j).array for j in range(len(ref))]
    cfg = FastConfig(tol=1e-6, buffer=3, oversample=2, seed=0)
    clean = ParamMatrixSequence(ref.params, lambda j: RecordingOracle(mats[j]),
                                ref.shape)
    res = fastadacur_run(clean, cfg)
    return clean, cfg, res, clean.oracle(step).reads[0]


def sequence_with(clean, step, bad):
    """``clean`` with ``bad`` as its snapshot at ``step``."""
    return ParamMatrixSequence(
        clean.params,
        lambda j: DenseOracle(bad if j == step else clean.oracle(j).array),
        clean.shape)


class RecordingOracle(DenseOracle):
    """Dense oracle that records the index sets of its reads.

    ``reads`` holds the (rows, cols) of each submatrix read and
    ``blocks`` the (method name, indices) of each row or column block.
    """

    def __init__(self, a):
        super().__init__(a)
        self.reads = []
        self.blocks = []

    def submatrix(self, rows, cols):
        self.reads.append((np.asarray(rows), np.asarray(cols)))
        return super().submatrix(rows, cols)

    def row_block(self, idx):
        self.blocks.append(("row_block", np.asarray(idx)))
        return super().row_block(idx)

    def col_block(self, idx):
        self.blocks.append(("col_block", np.asarray(idx)))
        return super().col_block(idx)


class TestExpandRefill:
    """An EXPAND refills its rows only once half the row buffer is spent.

    Ranks 3, 4, 5, 6, 6 at buffer 4 and oversample 2: step 0 tracks
    3 + 4 + 2 = 9 rows, which leave 3 and then 2 spare rows beyond
    r0 + p on the EXPANDs to ranks 4 and 5, and 1 on the one to rank 6.
    """

    B, P, M, N, TOL = 4, 2, 60, 40, 1e-8

    def kept(self, rows, r0, p):
        """Whether an EXPAND to rank r0 may keep ``rows`` at oversample p."""
        return (rows.size - (r0 + p) >= (self.B + 1) // 2
                and rows.size >= r0 + self.B)

    def run(self, p=P):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((self.M, 6))
        v = rng.standard_normal((self.N, 6))
        mats = [u[:, :k] @ v[:, :k].T for k in (3, 4, 5, 6, 6)]
        seq = ParamMatrixSequence(np.arange(5.0),
                                  lambda j: RecordingOracle(mats[j]),
                                  (self.M, self.N))
        res = fastadacur_run(seq, FastConfig(
            tol=self.TOL, buffer=self.B, oversample=p, seed=0,
            store_factors=False))
        traces = [t for _, t in res]
        assert [t.rank for t in traces] == [3, 4, 5, 6, 6]
        assert [t.action for t in traces] == \
            ["RECOMPUTE"] + ["EXPAND"] * 3 + ["TRUNCATE"]
        return seq, mats, traces

    def core_pivots(self, core):
        """A core's column order, by sRRQR at the driver's rank cut."""
        rank_tol = driver._rank_tol(FastConfig(tol=self.TOL), self.N)
        return srrqr(core, rank_tol=rank_tol).pivots

    def ordered_core_rows(self, seq, mats, j):
        """Step j's core rows in the order its cross ordering gives them."""
        rows, cols = seq.oracle(j).reads[0]
        core = mats[j][np.ix_(rows, cols)]
        return rows[lu_pivots(core[:, self.core_pivots(core)])], rows, cols

    @pytest.mark.parametrize("j", [1, 2])
    def test_spare_rows_kept_without_column_read(self, j):
        seq, mats, traces = self.run()
        orc, r0 = seq.oracle(j), traces[j].rank
        lead, rows, cols = self.ordered_core_rows(seq, mats, j)
        assert self.kept(rows, r0, self.P)
        # R alone is read: no C, so no tall row ID and no row growth
        assert [name for name, _ in orc.blocks] == ["row_block"]
        np.testing.assert_array_equal(orc.blocks[0][1], lead[:r0 + self.P])
        assert traces[j].entries_read == \
            rows.size * cols.size + (r0 + self.P) * self.N
        # the next core reads the same rows, in this step's order, and
        # the columns refilled to r0 + b
        next_rows, next_cols = seq.oracle(j + 1).reads[0]
        np.testing.assert_array_equal(next_rows, lead)
        assert next_cols.size == r0 + self.B

    def test_few_spare_rows_refill_through_c(self):
        seq, mats, traces = self.run()
        orc, r0 = seq.oracle(3), traces[3].rank
        lead, rows, cols = self.ordered_core_rows(seq, mats, 3)
        assert not self.kept(rows, r0, self.P)
        assert [name for name, _ in orc.blocks] == ["col_block", "row_block"]
        core = mats[3][np.ix_(rows, cols)]
        np.testing.assert_array_equal(
            orc.blocks[0][1], cols[self.core_pivots(core)][:r0])
        assert traces[3].entries_read == rows.size * cols.size + \
            self.M * r0 + (r0 + self.P) * self.N
        next_rows, next_cols = seq.oracle(4).reads[0]
        assert next_rows.size == r0 + self.B + self.P
        np.testing.assert_array_equal(next_rows[:lead.size], lead)
        assert next_cols.size == r0 + self.B

    def test_rows_never_kept_below_the_columns(self):
        # without oversampling the spare rows would leave the next core
        # wider than tall, so every EXPAND refills the rows through C
        seq, mats, traces = self.run(p=0)
        for j in (1, 2, 3):
            rows, _ = seq.oracle(j).reads[0]
            assert not self.kept(rows, traces[j].rank, 0)
            assert [name for name, _ in seq.oracle(j).blocks] == \
                ["col_block", "row_block"]
            assert seq.oracle(j + 1).reads[0][0].size == \
                traces[j].rank + self.B


class TestCoreFactorization:
    def test_one_srrqr_per_tracked_step(self, monkeypatch):
        calls = []

        def counting(a, **kw):
            calls.append(a.shape)
            return srrqr(a, **kw)

        monkeypatch.setattr(driver, "srrqr", counting)
        seq = make_synthetic_expm(n=80, q=21, seed=0)
        res = fastadacur_run(seq, FastConfig(tol=1e-6, buffer=5,
                                             oversample=2, seed=0))
        actions = {t.action for _, t in res[1:]}
        assert actions == {"TRUNCATE", "EXPAND"}
        assert len(calls) == len(seq) - 1

    def test_leading_rows_are_lu_skeleton_of_pivot_columns(self):
        # the core is A at the tracked cross; its sRRQR orders the
        # columns and LUPP of the column-ordered core orders the rows
        ref = make_synthetic_expm(n=80, q=21, seed=0)
        mats = [ref.oracle(j).array for j in range(len(ref))]
        seq = ParamMatrixSequence(ref.params,
                                  lambda j: RecordingOracle(mats[j]),
                                  ref.shape)
        cfg = FastConfig(tol=1e-6, buffer=5, oversample=2, seed=0)
        res = fastadacur_run(seq, cfg)
        for j in range(1, len(seq)):
            rows, cols = seq.oracle(j).reads[0]
            core = mats[j][np.ix_(rows, cols)]
            rank_tol = driver._rank_tol(cfg, ref.shape[1])
            piv = srrqr(core, rank_tol=rank_tol).pivots
            sel, r0 = res[j][0].selection, res[j][1].rank
            np.testing.assert_array_equal(sel.cols, cols[piv][:r0])
            np.testing.assert_array_equal(
                sel.rows, rows[lu_pivots(core[:, piv])][:r0])
