"""Tests for the sketched relative-error estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adacur.driver import _extract_factors
from adacur.errors import InvalidInput, NonFiniteSnapshot, ZeroMatrixSketch
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


def estimate(a, sel, s=5, seed=0, reuse=None):
    """Sketched error of ``sel``'s CUR approximation of the dense ``a``."""
    return estimate_cur_error(DenseOracle(a), sel.cols, a[sel.all_rows, :],
                              s=s, seed=seed, reuse=reuse)


def undersized_selection(sel, r_sel, p_extra):
    """Chop a selection to r_sel indices plus stabilizing extras."""
    return IndexSelection(sel.rows[:r_sel], sel.cols[:r_sel],
                          sel.rows[r_sel:r_sel + p_extra])


class TestEstimateCurError:
    def test_exact_cur_reports_tiny_error(self, rng):
        a = flat_rank_r(rng, 50, 40, 6)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 6, seed=0)
        est = estimate_cur_error(orc, sel.cols, a[sel.rows, :], s=5, seed=1)
        assert est.rel_error <= 1e-10

    def test_zero_matrix_raises(self):
        orc = DenseOracle(np.zeros((20, 20)))
        sel = IndexSelection(np.array([0]), np.array([0]),
                             np.array([], dtype=np.intp))
        with pytest.raises(ZeroMatrixSketch):
            estimate_cur_error(orc, sel.cols, _extract_factors(orc, sel).r,
                               s=5, seed=0)

    @pytest.mark.parametrize("s", [0, -1, 2.5, True, "5"])
    def test_bad_sketch_size_rejected(self, rng, s):
        a = flat_rank_r(rng, 30, 20, 3)
        sel = IndexSelection(np.arange(3), np.arange(3),
                             np.array([], dtype=np.intp))
        with pytest.raises(InvalidInput, match="s must be"):
            estimate(a, sel, s=s)

    @pytest.mark.parametrize("cols", [[-1], [20], [1.5], [True],
                                      [[1, 2]], np.array([[3]])])
    def test_bad_cols_rejected(self, rng, cols):
        # [-1] would otherwise score the selection [19] of this matrix
        a = rng.standard_normal((30, 20))
        with pytest.raises(InvalidInput, match="cols"):
            estimate_cur_error(DenseOracle(a), cols, a[:3, :], s=5, seed=0)

    def test_numpy_sketch_size_accepted(self, rng):
        a = rng.standard_normal((30, 20))
        sel = IndexSelection(np.arange(3), np.arange(3),
                             np.array([], dtype=np.intp))
        assert (estimate(a, sel, s=np.int64(4)).rel_error
                == estimate(a, sel, s=4).rel_error)

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
            est = estimate_cur_error(orc, sub.cols, a[sub.all_rows, :], s=5,
                                     seed=seed + 13)
            true = true_relative_error(orc, dense_cur(a, sub))
            ok += (0.5 * true <= est.rel_error <= 2.0 * true)
        assert ok >= 99

    def test_scaling_invariance(self, rng):
        # a relative estimate cannot depend on the overall scale of A
        a = flat_rank_r(rng, 60, 50, 12)
        sel = undersized_selection(rand_pivot(DenseOracle(a), 12, seed=0),
                                   6, 4)
        e1 = estimate(a, sel, seed=3)
        e2 = estimate(1e7 * a, sel, seed=3)
        np.testing.assert_allclose(e1.rel_error, e2.rel_error, rtol=1e-10)

    def test_fresh_sketch_spends_s_matvecs(self, rng):
        a = flat_rank_r(rng, 40, 30, 8)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 8, seed=0)
        r = a[sel.rows, :]
        before = orc.counters.rmatvecs
        estimate_cur_error(orc, sel.cols, r, s=7, seed=1)
        assert orc.counters.rmatvecs - before == 7

    def test_reuse_spends_no_matvecs(self, rng):
        # re-estimating against new factors reuses the stored sketch of
        # A; only entry reads for the new factors are paid
        a = flat_rank_r(rng, 40, 30, 8)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 8, seed=0)
        first = estimate_cur_error(orc, sel.cols, a[sel.rows, :], s=5,
                                   seed=1)
        sub = undersized_selection(sel, 4, 2)
        before = orc.counters.rmatvecs
        second = estimate_cur_error(orc, sub.cols, a[sub.all_rows, :],
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
        first = estimate(a, sel, seed=4)
        reused = estimate(a, sub, reuse=first.pack)
        fresh = estimate(a, sub, seed=4)
        np.testing.assert_allclose(reused.rel_error, fresh.rel_error,
                                   rtol=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=st.integers(2, 40), n=st.integers(2, 40),
           rank=st.integers(1, 12), k=st.integers(1, 12),
           extra=st.integers(0, 5), s=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_sketch_of_explicit_residual(self, m, n, rank, k, extra,
                                                s, seed):
        # X - X[:, J] pinv(U) R is G (A - C pinv(U) R) with the explicit
        # operator's factors, up to roundoff relative to |A|
        gen = np.random.default_rng(seed)
        rank = min(rank, m, n)
        a = (gen.standard_normal((m, rank)) * np.logspace(0, -3, rank)
             @ gen.standard_normal((rank, n)))
        orc = DenseOracle(a)
        k = min(k, m, n)
        sel = rand_pivot(orc, k, seed=seed)
        rest = np.setdiff1d(np.arange(m), sel.rows)
        sel = IndexSelection(sel.rows, sel.cols,
                             gen.permutation(rest)[:extra])
        est = estimate(a, sel, s=s, seed=seed)
        op = dense_cur(a, sel)
        g = est.pack.embedding.raw
        explicit = (np.linalg.norm(g @ a - (g @ op.left) @ op.right)
                    / np.linalg.norm(g @ a))
        residual = np.linalg.norm(a - op.left @ op.right)
        if residual >= 1e-6 * np.linalg.norm(a):
            np.testing.assert_allclose(est.rel_error, explicit, rtol=1e-8)
        else:
            assert est.rel_error <= 1e-5

    @pytest.mark.parametrize("where", ["sketch", "row block", "core"])
    def test_non_finite_snapshot(self, rng, where):
        a = flat_rank_r(rng, 30, 25, 5)
        sel = rand_pivot(DenseOracle(a), 5, seed=0)
        r = a[sel.rows, :].copy()
        if where == "sketch":
            a = a.copy()
            a[np.setdiff1d(np.arange(30), sel.rows)[0], 0] = np.nan
        elif where == "row block":
            r[0, np.setdiff1d(np.arange(25), sel.cols)[0]] = np.inf
        else:
            r[0, sel.cols[0]] = np.nan
        with pytest.raises(NonFiniteSnapshot) as info:
            estimate_cur_error(DenseOracle(a), sel.cols, r, s=5, seed=0)
        assert info.value.step is None


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
