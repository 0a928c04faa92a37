"""Tests for the pivoted QR factorizations and stable CUR evaluation."""

import numpy as np
import pytest
import scipy.linalg as sla

from adacur.errors import InvalidInput
from adacur.linalg import (
    LowRankOperator,
    cpqr,
    eps_rank_from_rdiag,
    srrqr,
    stable_cur_eval,
)


def assert_r_factor(fac, a):
    """Rebuild A[:, P].T A[:, P] as R.T R; R is (min(m, n), n), upper."""
    m, n = a.shape
    assert fac.r.shape == (min(m, n), n)
    np.testing.assert_array_equal(fac.r, np.triu(fac.r))
    ap = a[:, fac.pivots]
    err = np.linalg.norm(ap.T @ ap - fac.r.T @ fac.r)
    assert err <= 1e-12 * np.linalg.norm(a) ** 2


class TestCpqr:
    def test_identity_pivots_in_order(self):
        fac = cpqr(np.eye(3))
        assert list(fac.pivots) == [0, 1, 2]

    def test_largest_column_first(self):
        a = np.diag([1.0, 3.0, 2.0])
        fac = cpqr(a)
        assert fac.pivots[0] == 1

    def test_reconstruction(self, rng):
        a = rng.standard_normal((30, 20))
        assert_r_factor(cpqr(a), a)

    def test_r_diagonal_nonincreasing(self, rng):
        a = rng.standard_normal((25, 25))
        fac = cpqr(a)
        d = np.abs(np.diag(fac.r))
        assert np.all(d[:-1] >= d[1:] - 1e-12 * d[0])

    def test_tie_break_lowest_index(self):
        # equal-norm columns: the factorization must pick the earliest
        a = np.column_stack([np.eye(4)[:, i] for i in (0, 1, 2, 3)])
        fac = cpqr(a)
        assert fac.pivots[0] == 0

    def test_wide_and_tall(self, rng):
        for shape in [(10, 40), (40, 10)]:
            a = rng.standard_normal(shape)
            assert_r_factor(cpqr(a), a)

    def test_matches_scipy_economic(self, rng):
        # the R-only route is the same dgeqp3 call, minus forming Q
        for shape in [(10, 40), (40, 10), (25, 25)]:
            a = rng.standard_normal(shape)
            fac = cpqr(a)
            _, r, piv = sla.qr(a, mode="economic", pivoting=True)
            np.testing.assert_array_equal(fac.r, r)
            np.testing.assert_array_equal(fac.pivots, piv)

    def test_r_owns_its_memory(self, rng):
        # a kept factor must not pin the (m, n) LAPACK work array
        for shape in [(10, 400), (400, 10)]:
            assert cpqr(rng.standard_normal(shape)).r.base is None


class TestSrrqr:
    def test_identity_needs_no_swaps(self):
        fac = srrqr(np.eye(5), f=2.0, k=3)
        assert fac.swaps == 0

    def test_tiny_trailing_block(self):
        a = np.array([[1.0, 0.0], [0.0, 1e-8]])
        fac = srrqr(a, f=2.0, k=1)
        # leading column must be the large one
        assert fac.pivots[0] == 0
        r11 = fac.r[:1, :1]
        r12 = fac.r[:1, 1:]
        assert np.abs(np.linalg.solve(r11, r12)).max() <= 2.0

    def test_interpolation_bound(self, rng):
        # |inv(R11) R12| entries bounded by f on generic input
        for trial in range(20):
            a = rng.standard_normal((40, 30))
            k = 10
            fac = srrqr(a, f=2.0, k=k)
            w = np.linalg.solve(fac.r[:k, :k], fac.r[:k, k:])
            assert np.abs(w).max() <= 2.0 + 1e-9

    def test_spectral_floor(self, rng):
        # smallest singular value of the leading block stays within the
        # guaranteed factor of the k-th singular value of A
        m, n, k, f = 50, 50, 25, 2.0
        for trial in range(10):
            a = rng.standard_normal((m, n)) @ np.diag(
                np.logspace(0, -10, n))
            fac = srrqr(a, f=f, k=k)
            smin = np.linalg.svd(fac.r[:k, :k], compute_uv=False)[-1]
            sk = np.linalg.svd(a, compute_uv=False)[k - 1]
            floor = sk / np.sqrt(1.0 + f * f * k * (n - k))
            assert smin >= floor * (1 - 1e-9)

    def test_reconstruction(self, rng):
        a = rng.standard_normal((30, 30))
        assert_r_factor(srrqr(a, f=2.0, k=12), a)

    def test_graded_matrix_defeats_plain_pivoting_not_srrqr(self):
        # Kahan-type matrix: classic worst case for column pivoting
        n, k, f = 50, 25, 2.0
        theta = 0.285
        c, s = np.cos(theta), np.sin(theta)
        kah = np.triu(-c * np.ones((n, n)), 1) + np.eye(n)
        kah *= np.power(s, np.arange(n))[:, None]
        fac = srrqr(kah, f=f, k=k)
        # the interchange re-factors for R alone
        assert fac.swaps == 1
        assert_r_factor(fac, kah)
        w = np.linalg.solve(fac.r[:k, :k], fac.r[:k, k:])
        assert np.abs(w).max() <= f + 1e-9
        smin = np.linalg.svd(fac.r[:k, :k], compute_uv=False)[-1]
        sk = np.linalg.svd(kah, compute_uv=False)[k - 1]
        assert smin >= sk / np.sqrt(1.0 + f * f * k * (n - k)) * (1 - 1e-9)

    def test_full_rank_request_matches_cpqr_shape(self, rng):
        a = rng.standard_normal((12, 8))
        fac = srrqr(a, f=2.0)
        assert fac.r.shape == (8, 8)
        assert sorted(fac.pivots) == list(range(8))


class TestEpsRank:
    def test_example(self):
        assert eps_rank_from_rdiag(np.diag([1.0, 1e-3, 1e-9]), 1e-6) == 2

    def test_zero_matrix(self):
        assert eps_rank_from_rdiag(np.zeros((1, 1)), 1e-6) == 0

    def test_known_spectrum_within_one(self, rng):
        # diagonal R with known decay: the cut must land within one
        # position of the true threshold crossing
        d = np.power(10.0, -np.arange(20, dtype=float))
        r = np.diag(d)
        for tol in [1e-5, 1e-10, 1e-15]:
            true = int(np.sum(d > tol * d[0]))
            got = eps_rank_from_rdiag(r, tol)
            assert abs(got - true) <= 1

    def test_monotone_in_tolerance(self, rng):
        a = rng.standard_normal((30, 30)) @ np.diag(np.logspace(0, -12, 30))
        r = cpqr(a).r
        tols = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10]
        ranks = [eps_rank_from_rdiag(r, t) for t in tols]
        assert all(r1 <= r2 for r1, r2 in zip(ranks, ranks[1:]))


class TestLowRankOperator:
    def test_shapes_and_apply(self, rng):
        left = rng.standard_normal((9, 3))
        right = rng.standard_normal((3, 7))
        op = LowRankOperator(left, right)
        assert op.shape == (9, 7)
        assert op.rank == 3
        x = rng.standard_normal(7)
        np.testing.assert_allclose(op.matvec(x), left @ (right @ x))
        y = rng.standard_normal(9)
        np.testing.assert_allclose(op.rmatvec(y), right.T @ (left.T @ y))

    def test_incompatible_factors_rejected(self):
        with pytest.raises(InvalidInput):
            LowRankOperator(np.ones((3, 2)), np.ones((3, 4)))


class TestStableCurEval:
    def test_scalar(self):
        op = stable_cur_eval(np.array([[2.0]]), np.array([[2.0]]),
                             np.array([[2.0]]))
        np.testing.assert_allclose(op.left @ op.right, [[2.0]])

    def test_exact_rank_recovery(self, rng):
        # CUR with exact cross submatrix reproduces a rank-r matrix
        m, n, r = 40, 30, 6
        a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        rows = rng.choice(m, r, replace=False)
        cols = rng.choice(n, r, replace=False)
        op = stable_cur_eval(a[:, cols], a[np.ix_(rows, cols)], a[rows, :])
        err = np.linalg.norm(a - op.left @ op.right)
        assert err <= 1e-10 * np.linalg.norm(a)

    def test_singular_core_stays_finite(self, rng):
        # rank-deficient middle factor must not produce NaN or inf
        c = rng.standard_normal((20, 4))
        u = np.zeros((4, 4))
        u[0, 0] = 1.0
        r = rng.standard_normal((4, 15))
        op = stable_cur_eval(c, u, r)
        for trial in range(10):
            x = rng.standard_normal(15)
            y = op.matvec(x)
            assert np.all(np.isfinite(y))

    def test_truncation_tolerance_drops_noise_directions(self, rng):
        # a core with one tiny singular value: loose tolerance ignores it
        q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        u = q1 @ np.diag([1, 1, 1, 1, 1, 1e-14]) @ q2.T
        c = rng.standard_normal((30, 6))
        r = rng.standard_normal((6, 20))
        strict = stable_cur_eval(c, u, r, trunc_tol=1e-16)
        loose = stable_cur_eval(c, u, r, trunc_tol=1e-8)
        assert loose.rank == 5
        assert strict.rank == 6

    def test_tall_oversampled_rows(self, rng):
        # more sampled rows than columns: least-squares core still exact
        # on rank-r input
        m, n, r, p = 50, 40, 5, 4
        a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        rows = rng.choice(m, r + p, replace=False)
        cols = rng.choice(n, r, replace=False)
        op = stable_cur_eval(a[:, cols], a[np.ix_(rows, cols)], a[rows, :])
        err = np.linalg.norm(a - op.left @ op.right)
        assert err <= 1e-10 * np.linalg.norm(a)
