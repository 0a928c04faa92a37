"""Tests for stabilizing row oversampling."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from adacur import oversample
from adacur.driver import (AdaCurConfig, _rank_tol, adacur_run,
                           recompute_baseline_run)
from adacur.errors import InvalidInput
from adacur.fast import FastConfig, fastadacur_run
from adacur.linalg import RowID, lu_row_id, stable_cur_eval
from adacur.oracles import DenseOracle, ParamMatrixSequence
from adacur.oversample import oversample_rows, oversample_rows_multi
from adacur.pivoting import rand_pivot, rand_pivot_rankest
from adacur.problems import (make_adversarial, make_schrodinger,
                             make_speed_problem, make_synthetic_expm)
from conftest import interp_matrix


def tube_matrix(rng, m, n, r):
    """Rank-r matrix whose row subset conditioning actually varies."""
    u = rng.standard_normal((m, r)) * np.logspace(0, -3, r)
    return u @ rng.standard_normal((r, n))


def qc_basis(a, cols):
    return sla.qr(a[:, cols], mode="economic")[0]


def col_id(a, cols):
    """The LU row ID of A[:, cols] that oversampling takes."""
    return lu_row_id(a[:, cols])


class HouseholderBasis:
    """Reference basis: Q of the economic Householder QR of A[:, cols]."""

    def __init__(self, a, cols):
        self.q = qc_basis(a, cols)
        self.m, self.k = self.q.shape

    def rows(self, idx):
        return self.q[idx]

    def project(self, idx, v):
        return self.q[idx] @ v


def householder_route(monkeypatch, a, cols):
    """Make oversampling take its basis from a QR of ``a[:, cols]``."""
    monkeypatch.setattr(oversample, "_InterpBasis",
                        lambda row_id: HouseholderBasis(a, cols))


class TestOversampleRows:
    def test_zero_extra_rows(self, rng):
        a = tube_matrix(rng, 40, 30, 5)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 5, seed=0)
        extra = oversample_rows(col_id(a, sel.cols), sel.rows, 0)
        assert len(extra) == 0

    def test_requested_count_and_disjointness(self, rng):
        a = tube_matrix(rng, 40, 30, 5)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 5, seed=0)
        for p in [1, 3, 5]:
            extra = oversample_rows(col_id(a, sel.cols), sel.rows, p)
            assert len(extra) == p
            assert len(np.intersect1d(extra, sel.rows)) == 0

    def test_p_above_rank_runs_rounds(self, rng):
        # p > k = |cols| picks what successive calls of at most k picks
        # each would, every call choosing outside what came before
        a = tube_matrix(rng, 40, 30, 5)
        sel = rand_pivot(DenseOracle(a), 5, seed=0)
        row_id = col_id(a, sel.cols)
        first = oversample_rows(row_id, sel.rows, 5)
        second = oversample_rows(row_id, np.concatenate([sel.rows, first]),
                                 1)
        np.testing.assert_array_equal(oversample_rows(row_id, sel.rows, 6),
                                      np.concatenate([first, second]))

    def test_p_above_rows_left_rejected(self, rng):
        a = tube_matrix(rng, 8, 6, 3)
        sel = rand_pivot(DenseOracle(a), 3, seed=8)
        row_id = col_id(a, sel.cols)
        assert oversample_rows(row_id, sel.rows, 5).size == 5
        with pytest.raises(InvalidInput, match="5 rows left"):
            oversample_rows(row_id, sel.rows, 6)

    def test_bad_count_rejected(self, rng):
        # a count must be a non-negative integer; numpy integers pass
        a = tube_matrix(rng, 40, 30, 5)
        sel = rand_pivot(DenseOracle(a), 5, seed=0)
        row_id = col_id(a, sel.cols)
        for bad in (-3, -1, 2.7, 2.0, True, np.float64(2.0), "2", None):
            with pytest.raises(InvalidInput, match="non-negative integer"):
                oversample_rows(row_id, sel.rows, bad)
        assert oversample_rows(row_id, sel.rows, np.int64(2)).size == 2
        assert oversample_rows(row_id, sel.rows, np.int32(0)).size == 0

    @pytest.mark.parametrize("rows, match", [
        ([0, 1, -1], "out of range"),        # not row 39
        ([0.5, 1], "must be integers"),      # not row 0
        ([0, 1, 40], "out of range"),        # not a bare IndexError
        ([0, 1, 1], "must not repeat"),
        ([], "non-empty"),
    ])
    def test_bad_rows_rejected(self, rng, rows, match):
        a = tube_matrix(rng, 40, 30, 5)
        row_id = col_id(a, [0, 1, 2])
        with pytest.raises(InvalidInput, match=match):
            oversample_rows(row_id, rows, 2)

    def test_never_degrades_base_conditioning(self, rng):
        # row augmentation can only raise the smallest singular value of
        # the restricted orthonormal basis
        for trial in range(10):
            a = tube_matrix(rng, 100, 20, 8)
            orc = DenseOracle(a)
            sel = rand_pivot(orc, 8, seed=trial)
            qc = qc_basis(a, sel.cols)
            base = np.linalg.svd(qc[sel.rows], compute_uv=False)[-1]
            for p in [2, 4, 6]:
                extra = oversample_rows(col_id(a, sel.cols), sel.rows, p)
                grown = np.concatenate([sel.rows, extra])
                smin = np.linalg.svd(qc[grown], compute_uv=False)[-1]
                assert smin >= base - 1e-12

    def test_prefixes_are_monotone(self, rng):
        # prefixes of a single call's output give nondecreasing smallest
        # singular values: each added row augments the previous block
        a = tube_matrix(rng, 60, 40, 6)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 6, seed=1)
        extra = oversample_rows(col_id(a, sel.cols), sel.rows, 5)
        qc = qc_basis(a, sel.cols)
        prev = -np.inf
        for p in range(6):
            grown = np.concatenate([sel.rows, extra[:p]]).astype(np.intp)
            smin = np.linalg.svd(qc[grown], compute_uv=False)[-1]
            assert smin >= prev - 1e-12
            prev = smin

    def test_no_cur_regression_on_gaussian(self, rng):
        # paired comparison: adding 5 oversampled rows to a full-rank
        # 100x20 selection never loses to the bare selection on median
        wins = []
        for seed in range(20):
            gen = np.random.default_rng(seed)
            a = gen.standard_normal((100, 20))
            orc = DenseOracle(a)
            sel = rand_pivot(orc, 20, seed=seed)
            extra = oversample_rows(col_id(a, sel.cols), sel.rows, 5)
            rows2 = np.concatenate([sel.rows, extra])
            bare = stable_cur_eval(a[:, sel.cols],
                                   a[np.ix_(sel.rows, sel.cols)],
                                   a[sel.rows, :])
            grown = stable_cur_eval(a[:, sel.cols],
                                    a[np.ix_(rows2, sel.cols)],
                                    a[rows2, :])
            e_bare = np.linalg.norm(a - bare.left @ bare.right)
            e_grown = np.linalg.norm(a - grown.left @ grown.right)
            wins.append(e_bare / max(e_grown, 1e-300))
        assert np.median(wins) >= 1.0


class TestRounds:
    def test_one_routine_under_both_names(self):
        assert oversample_rows_multi is oversample_rows

    def test_exceeding_rank_splits_rounds(self, rng):
        # requests beyond the square-base cap succeed by re-basing
        a = tube_matrix(rng, 80, 30, 5)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 5, seed=7)
        extra = oversample_rows(col_id(a, sel.cols), sel.rows, 12)
        assert len(extra) == 12
        assert len(np.unique(extra)) == 12
        assert len(np.intersect1d(extra, sel.rows)) == 0

    def test_one_basis_for_all_rounds(self, rng, monkeypatch):
        # p = 12 > |cols| = 5 takes three rounds; the reference is the
        # round loop over calls of at most 5, each building its own basis
        a = tube_matrix(rng, 80, 30, 5)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 5, seed=7)
        row_id = col_id(a, sel.cols)
        picked = np.empty(0, np.intp)
        for q in (5, 5, 2):
            got = oversample_rows(row_id, np.concatenate([sel.rows, picked]),
                                  q)
            picked = np.concatenate([picked, got])
        built = []

        class Counting(oversample._InterpBasis):
            def __init__(self, row_id):
                built.append(row_id.lu.shape)
                super().__init__(row_id)

        monkeypatch.setattr(oversample, "_InterpBasis", Counting)
        got = oversample_rows(row_id, sel.rows, 12)
        np.testing.assert_array_equal(got, picked)
        assert built == [(80, 5)]


# name -> (sequence, tol, driver seed): the first step's column block
BLOCKS = {
    "speed": (lambda: make_speed_problem(seed=0), 1e-6, 1),
    "synthetic": (lambda: make_synthetic_expm(n=60, q=11, seed=0), 1e-8, 0),
    "schrodinger": (lambda: make_schrodinger(n=128, q=2, seed=0), 1e-10, 0),
    "adversarial": (lambda: make_adversarial(seed=0, q=21), 1e-4, 0),
}


def scratch_block(name):
    """A[:, J] and its row ID, as a from-scratch driver step makes them."""
    make, tol, seed = BLOCKS[name]
    orc = make().oracle(0)
    sel, row_id = rand_pivot_rankest(
        orc, _rank_tol(AdaCurConfig(tol=tol), orc.ncols), seed)
    return orc, sel, orc.col_block(sel.cols), row_id


class TestInterpolativeBasis:
    """Oversampling from the LU row ID of the pivoting step, not a QR."""

    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_basis_orthonormal_and_spans_block(self, name):
        _, _, c, row_id = scratch_block(name)
        m, k = c.shape
        q = oversample._InterpBasis(row_id).rows(np.arange(m))
        assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-12
        assert (np.linalg.norm(c - q @ (q.T @ c))
                <= 1e-13 * np.linalg.norm(c))

    def test_picks_match_householder_on_gaussian(self, monkeypatch):
        # any row ID of C spans range(C), so its orthonormal basis differs
        # from the Householder Q by a rotation that leaves the picks as is
        for seed in range(5):
            a = np.random.default_rng(seed).standard_normal((120, 30))
            orc = DenseOracle(a)
            sel = rand_pivot(orc, 20, seed=seed)
            row_id = lu_row_id(a[:, sel.cols])
            np.testing.assert_array_equal(row_id.perm[:20], sel.rows)
            with monkeypatch.context() as mp:
                householder_route(mp, a, sel.cols)
                want = [oversample_rows(row_id, sel.rows, p)
                        for p in (5, 20, 45)]
            got = [oversample_rows(row_id, sel.rows, p) for p in (5, 20, 45)]
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_lu_factor_basis_equals_explicit_t_basis(self, name):
        # the basis read from L1 and L2 is B inv(L).T formed from t
        _, _, c, row_id = scratch_block(name)
        m, k = c.shape
        idx = np.arange(m)
        v = np.random.default_rng(0).standard_normal((k, 3))
        t = interp_matrix(row_id)
        b = np.empty((m, k))
        b[row_id.perm] = np.vstack([np.eye(k), t])
        low = np.linalg.cholesky(np.eye(k) + t.T @ t)
        q = sla.solve_triangular(low, b.T, lower=True).T
        basis = oversample._InterpBasis(row_id)
        np.testing.assert_allclose(basis.rows(idx), q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(basis.project(idx, v), q @ v, rtol=0,
                                   atol=1e-12 * np.abs(v).max())

    def test_row_id_and_oversampling_memory(self):
        # beyond the block, the row ID and ten extra rows hold the m x k
        # LU factor and small arrays: no T, no copy of L2 and no dgeqp3
        # block workspace for the 10 x (m - k) greedy pick
        m, k = 5000, 90
        c = np.random.default_rng(0).standard_normal((m, k))
        tracemalloc.start()
        try:
            row_id = lu_row_id(c)
            extra = oversample_rows(row_id, row_id.perm[:k], 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert extra.size == 10
        assert peak < 1.5 * m * k * 8

    def test_drivers_oversample_from_lu_factor(self, monkeypatch):
        # scratch steps, refinements and EXPAND refills all hand
        # oversampling a RowID, the only form it takes
        built = []

        class Recording(oversample._InterpBasis):
            def __init__(self, row_id):
                built.append(type(row_id))
                super().__init__(row_id)

        monkeypatch.setattr(oversample, "_InterpBasis", Recording)
        seq = make_synthetic_expm(n=60, q=11, seed=0)
        cfg = AdaCurConfig(tol=1e-8, oversample=3)
        fast_cfg = FastConfig(tol=1e-8, buffer=4, oversample=2)
        actions = set()
        for run, c in [(adacur_run, cfg), (recompute_baseline_run, cfg),
                       (fastadacur_run, fast_cfg)]:
            actions |= {tr.action for _, tr in run(seq, c)}
        assert {"RECOMPUTE", "MINOR_MOD", "EXPAND"} <= actions
        assert built and set(built) == {RowID}

    def test_unchosen_equals_setdiff(self, rng):
        for size in (1, 40, 299):
            rows = rng.choice(300, size, replace=False)
            got = np.flatnonzero(oversample._unchosen(300, rows))
            np.testing.assert_array_equal(
                got, np.setdiff1d(np.arange(300), rows))

    def test_tuple_row_id_rejected(self, rng):
        # a RowID is the one input form: a (perm, t) pair, whatever its
        # shapes, is not one
        a = tube_matrix(rng, 40, 30, 5)
        sel = rand_pivot(DenseOracle(a), 5, seed=0)
        row_id = col_id(a, sel.cols)
        pair = (row_id.perm, interp_matrix(row_id))
        for bad in (pair, list(pair), (row_id.perm, row_id.lu), None):
            with pytest.raises(InvalidInput, match="row_id"):
                oversample_rows(bad, sel.rows, 2)

    def test_overflowing_gram_rejected(self, rng):
        a = tube_matrix(rng, 40, 30, 5)
        sel = rand_pivot(DenseOracle(a), 5, seed=0)
        row_id = col_id(a, sel.cols)
        huge = RowID(row_id.perm, row_id.lu * 1e200)
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(InvalidInput, match="row_id")):
            oversample_rows(huge, sel.rows, 2)

    def test_exactly_singular_leading_block(self):
        # rank 1 with an exact zero column: U's second pivot is exactly
        # zero, L stays unit triangular, and the basis is still orthonormal
        c = np.column_stack([np.arange(1.0, 7.0), np.zeros(6)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row_id = lu_row_id(c)
        t = interp_matrix(row_id)
        assert np.isfinite(t).all()
        np.testing.assert_allclose(c[row_id.perm[2:]],
                                   t @ c[row_id.perm[:2]], atol=1e-14)
        q = oversample._InterpBasis(row_id).rows(np.arange(6))
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("m, n, r, warned", [
        (50, 40, 2, set()),
        (300, 100, 5, set()),
    ])
    def test_numerically_singular_r11(self, m, n, r, warned):
        # 1e12 scaling puts rounding noise far above the absolute rank
        # tolerance: the rank estimate reaches n (a final count, so no
        # warning), and the leading block of the pivoting factor is
        # numerically singular; a repeated column on top
        rng = np.random.default_rng(0)
        a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        a[:, 1] = a[:, 0]
        a *= 1e12
        seq = ParamMatrixSequence([0.0, 1.0], lambda j: DenseOracle(a),
                                  (m, n))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            res = recompute_baseline_run(
                seq, AdaCurConfig(tol=1e-8, oversample=5, true_error=True))
        assert {str(w.message).split(",")[0] for w in rec} == warned
        for fac, tr in res:
            sel = fac.selection
            assert tr.rank >= n - 1
            assert sel.extra_rows.size == 5
            assert np.unique(sel.extra_rows).size == 5
            assert np.intersect1d(sel.rows, sel.extra_rows).size == 0
            assert np.isfinite(fac.c).all() and np.isfinite(fac.r).all()
            assert tr.true_rel_err <= 1e-14
