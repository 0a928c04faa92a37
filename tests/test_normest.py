"""Tests for the sketched relative-error estimator."""

import numpy as np
import pytest

from adacur.driver import _extract_factors
from adacur.errors import ZeroMatrixSketch
from adacur.linalg import stable_cur_eval
from adacur.normest import estimate_cur_error
from adacur.oracles import DenseOracle
from adacur.pivoting import IndexSelection, rand_pivot
from adacur.problems import true_relative_error


def flat_rank_r(rng, m, n, r):
    """Exact rank-r matrix with all nonzero singular values equal."""
    q1, _ = np.linalg.qr(rng.standard_normal((m, r)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q1 @ q2.T


def dense_cur(a, sel):
    """CUR operator of ``sel`` built from the dense array itself."""
    rows = sel.all_rows
    return stable_cur_eval(a[:, sel.cols], a[np.ix_(rows, sel.cols)],
                           a[rows, :])


def undersized_selection(sel, r_sel, p_extra):
    """Chop a selection to r_sel indices plus stabilizing extras."""
    return IndexSelection(sel.rows[:r_sel], sel.cols[:r_sel],
                          sel.rows[r_sel:r_sel + p_extra])


class TestEstimateCurError:
    def test_exact_cur_reports_tiny_error(self, rng):
        a = flat_rank_r(rng, 50, 40, 6)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 6, seed=0)
        est = estimate_cur_error(orc, dense_cur(a, sel), s=5, seed=1)
        assert est.rel_error <= 1e-10

    def test_zero_matrix_raises(self):
        orc = DenseOracle(np.zeros((20, 20)))
        sel = IndexSelection(np.array([0]), np.array([0]),
                             np.array([], dtype=np.intp))
        with pytest.raises(ZeroMatrixSketch):
            estimate_cur_error(orc, _extract_factors(orc, sel).operator(),
                               s=5, seed=0)

    def test_factor_two_agreement(self, rng):
        # undersized CUR with stabilizing extra rows: the residual has
        # enough stable rank for a 5-row sketch to concentrate
        ok = 0
        for seed in range(100):
            gen = np.random.default_rng(seed)
            r = int(gen.integers(16, 21))
            a = flat_rank_r(gen, 120, 100, r)
            orc = DenseOracle(a)
            sub = undersized_selection(rand_pivot(orc, r, seed=seed + 7),
                                       r - 10, 5)
            op = dense_cur(a, sub)
            est = estimate_cur_error(orc, op, s=5, seed=seed + 13)
            true = true_relative_error(orc, op)
            ok += (0.5 * true <= est.rel_error <= 2.0 * true)
        assert ok >= 99

    def test_scaling_invariance(self, rng):
        # a relative estimate cannot depend on the overall scale of A
        a = flat_rank_r(rng, 60, 50, 12)
        sel = undersized_selection(rand_pivot(DenseOracle(a), 12, seed=0),
                                   6, 4)
        e1 = estimate_cur_error(DenseOracle(a), dense_cur(a, sel), s=5,
                                seed=3)
        e2 = estimate_cur_error(DenseOracle(1e7 * a), dense_cur(1e7 * a, sel),
                                s=5, seed=3)
        np.testing.assert_allclose(e1.rel_error, e2.rel_error, rtol=1e-10)

    def test_fresh_sketch_spends_s_matvecs(self, rng):
        a = flat_rank_r(rng, 40, 30, 8)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 8, seed=0)
        op = dense_cur(a, sel)
        before = orc.counters.rmatvecs
        estimate_cur_error(orc, op, s=7, seed=1)
        assert orc.counters.rmatvecs - before == 7

    def test_reuse_spends_no_matvecs(self, rng):
        # re-estimating against new factors reuses the stored sketch of
        # A; only entry reads for the new factors are paid
        a = flat_rank_r(rng, 40, 30, 8)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 8, seed=0)
        first = estimate_cur_error(orc, dense_cur(a, sel), s=5, seed=1)
        sub = undersized_selection(sel, 4, 2)
        before = orc.counters.rmatvecs
        second = estimate_cur_error(orc, dense_cur(a, sub), s=5, seed=1,
                                    reuse=first.pack)
        assert orc.counters.rmatvecs == before
        assert second.rel_error > first.rel_error

    def test_reuse_matches_fresh(self, rng):
        # same seed: the reused sketch and a fresh one are the same draw,
        # so the two estimates agree to roundoff
        a = flat_rank_r(rng, 50, 45, 10)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 10, seed=2)
        sub = undersized_selection(sel, 5, 3)
        first = estimate_cur_error(orc, dense_cur(a, sel), s=5, seed=4)
        reused = estimate_cur_error(orc, dense_cur(a, sub), s=5, seed=4,
                                    reuse=first.pack)
        fresh = estimate_cur_error(orc, dense_cur(a, sub), s=5, seed=4)
        np.testing.assert_allclose(reused.rel_error, fresh.rel_error,
                                   rtol=1e-12)


class TestCurOperatorFromOracle:
    """The operator the drivers score: ``_extract_factors(...).operator()``."""

    def test_reproduces_exact_rank(self, rng):
        a = flat_rank_r(rng, 40, 35, 7)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 7, seed=0)
        op = _extract_factors(orc, sel).operator()
        err = np.linalg.norm(a - op.left @ op.right)
        assert err <= 1e-10 * np.linalg.norm(a)

    def test_true_relative_error_matches_dense(self, rng):
        a = flat_rank_r(rng, 45, 40, 9)
        orc = DenseOracle(a)
        sel = undersized_selection(rand_pivot(orc, 9, seed=1), 5, 2)
        op = _extract_factors(orc, sel).operator()
        direct = (np.linalg.norm(a - op.left @ op.right)
                  / np.linalg.norm(a))
        np.testing.assert_allclose(true_relative_error(orc, op), direct,
                                   rtol=1e-12)
