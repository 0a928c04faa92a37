"""Tests for the pivoting factorizations and stable CUR evaluation."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from adacur import linalg
from adacur.driver import CURFactors
from adacur.errors import InvalidInput
from adacur.linalg import (
    LowRankOperator,
    RowID,
    cpqr,
    eps_rank_from_rdiag,
    lu_pivots,
    lu_row_id,
    srrqr,
    stable_cur_eval,
    times_pinv,
    truncated_svd,
)
from adacur.oracles import DenseOracle
from adacur.pivoting import IndexSelection
from conftest import interp_matrix


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

    def test_r_is_the_factor_zeroed_below_its_diagonal(self, rng):
        # bitwise, zeros' signs included, the upper part of dgeqp3's
        # factor, whether R is LAPACK's array or copied out of it
        for shape in [(10, 400), (400, 10), (25, 25), (113, 107)]:
            a = rng.standard_normal(shape)
            want = np.triu(lapack.dgeqp3(a)[0][:min(shape)])
            assert cpqr(a).r.tobytes() == want.tobytes()

    def test_r_owns_its_memory(self, rng):
        # a kept factor must not pin the (m, n) LAPACK work array
        for shape in [(10, 400), (400, 10)]:
            assert cpqr(rng.standard_normal(shape)).r.base is None


def assert_row_id(c, row_id, rtol):
    """perm permutes range(m), lu packs C[perm] = L U with |L| <= 1, and
    so C[perm[k:]] = t @ C[perm[:k]] with t = L2 inv(L1)."""
    m, k = c.shape
    perm, lu = row_id.perm, row_id.lu
    np.testing.assert_array_equal(np.sort(perm), np.arange(m))
    assert lu.shape == (m, k)
    low = np.tril(lu, -1) + np.eye(m, k)
    assert np.abs(low).max() <= 1.0 + 4 * np.finfo(float).eps
    scale = rtol * np.linalg.norm(c)
    assert np.linalg.norm(c[perm] - low @ np.triu(lu[:k])) <= scale
    t = interp_matrix(row_id)
    assert np.isfinite(t).all()
    assert np.linalg.norm(c[perm[k:]] - t @ c[perm[:k]]) <= scale


@st.composite
def tall_blocks(draw):
    """Finite tall blocks, some with repeated, zero or integer columns."""
    m = draw(st.integers(1, 40))
    k = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.standard_normal((m, k)) * 10.0 ** draw(st.integers(-12, 12))
    if draw(st.booleans()):
        c = np.round(c / np.abs(c).max() * 3)      # small integers: ties
    for j in draw(st.lists(st.integers(0, k - 1), max_size=3)):
        c[:, j] = 0.0
    for j, i in draw(st.lists(st.tuples(st.integers(0, k - 1),
                                        st.integers(0, k - 1)), max_size=3)):
        c[:, j] = c[:, i]
    return c


class TestLuRowId:
    def test_reconstruction(self, rng):
        for shape in [(1, 1), (7, 7), (50, 1), (300, 30)]:
            c = rng.standard_normal(shape)
            assert_row_id(c, lu_row_id(c), rtol=1e-14)

    def test_partial_pivoting_bounds_t(self, rng):
        # on a Gaussian block |t| stays near 1, as for cpqr's inv(R11) R12
        t = interp_matrix(lu_row_id(rng.standard_normal((500, 20))))
        assert np.abs(t).max() <= 10.0

    def test_zero_block_needs_no_pivot(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row_id = lu_row_id(np.zeros((5, 2)))
        np.testing.assert_array_equal(row_id.perm, np.arange(5))
        np.testing.assert_array_equal(row_id.lu, 0.0)

    def test_input_untouched(self, rng):
        c = rng.standard_normal((20, 4))
        before = c.copy()
        lu_row_id(c)
        np.testing.assert_array_equal(c, before)

    @pytest.mark.parametrize("shape", [(1, 1), (40, 1), (60, 7), (9, 9)])
    def test_overwrite_factors_a_fortran_block_in_place(self, rng, shape):
        c = np.asfortranarray(rng.standard_normal(shape))
        want = lu_row_id(c.copy(order="F"))
        got = lu_row_id(c, overwrite=True)
        assert np.shares_memory(got.lu, c)
        assert got.lu.tobytes() == want.lu.tobytes()
        np.testing.assert_array_equal(got.perm, want.perm)

    @pytest.mark.parametrize("layout", ["C", "read-only"])
    def test_overwrite_leaves_other_blocks_untouched(self, rng, layout):
        # a C-ordered block is copied by f2py; a read-only one would be
        # written into, so it is never offered for overwriting
        c = rng.standard_normal((30, 5))
        if layout == "read-only":
            c = np.asfortranarray(c)
            c.flags.writeable = False
        before = c.copy()
        got = lu_row_id(c, overwrite=True)
        np.testing.assert_array_equal(c, before)
        assert not np.shares_memory(got.lu, c)
        assert got.lu.tobytes() == lu_row_id(before).lu.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, rng, bad):
        c = rng.standard_normal((10, 3))
        c[4, 1] = bad
        with pytest.raises(InvalidInput, match="non-finite"):
            lu_row_id(c)
        with pytest.raises(InvalidInput, match="non-finite"):
            lu_pivots(c)

    def test_wide_block_rejected(self, rng):
        with pytest.raises(InvalidInput, match="tall"):
            lu_row_id(rng.standard_normal((3, 4)))

    def test_wide_block_rejected_before_factoring(self, rng, monkeypatch):
        def factored(a):
            raise AssertionError("wide block reached dgetrf")

        monkeypatch.setattr(linalg, "_lupp", factored)
        with pytest.raises(InvalidInput, match="tall"):
            lu_row_id(rng.standard_normal((3, 4)))

    def test_row_id_is_the_lu_factor_alone(self, rng):
        # one dgetrf: its packed factor of C[perm] and the row order its
        # interchanges give; t = L2 inv(L1) is not kept
        c = rng.standard_normal((60, 7))
        row_id = lu_row_id(c)
        assert RowID.__slots__ == ("perm", "lu")
        lu, piv, _ = lapack.dgetrf(c)
        np.testing.assert_array_equal(row_id.lu, lu)
        rows = np.arange(60)
        for i, p in enumerate(piv):
            rows[[i, p]] = rows[[p, i]]
        np.testing.assert_array_equal(row_id.perm, rows)

    def test_leading_pivots_read_leading_columns_only(self, rng):
        # why rand_pivot reads only r rows of its row sketch
        a = rng.standard_normal((200, 30))
        for j in (1, 10, 29):
            np.testing.assert_array_equal(lu_pivots(a)[:j],
                                          lu_pivots(a[:, :j])[:j])

    @settings(max_examples=200, deadline=None)
    @given(tall_blocks(), st.booleans())
    def test_row_order_replays_the_interchanges(self, c, wide):
        # the row order is dgetrf's interchanges applied one at a time,
        # for rank-deficient, zero-column and wide inputs alike
        a = c.T if wide else c
        lu, perm = linalg._lupp(a)
        want_lu, piv, _ = lapack.dgetrf(a)
        rows = np.arange(a.shape[0])
        for i, p in enumerate(piv):
            rows[i], rows[p] = rows[p], rows[i]
        assert perm.dtype == np.intp
        np.testing.assert_array_equal(perm, rows)
        np.testing.assert_array_equal(lu, want_lu)

    @settings(max_examples=200, deadline=None)
    @given(tall_blocks())
    def test_row_id_property(self, c):
        assert_row_id(c, lu_row_id(c), rtol=1e-12)


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

    @pytest.mark.parametrize("k", [2.5, True, 0, 7, "2"])
    def test_bad_leading_size_rejected(self, rng, k):
        with pytest.raises(InvalidInput, match="k must"):
            srrqr(rng.standard_normal((6, 5)), k=k)

    def test_numpy_leading_size_accepted(self, rng):
        a = rng.standard_normal((12, 10))
        got, want = srrqr(a, k=np.int64(4)), srrqr(a, k=4)
        np.testing.assert_array_equal(got.pivots, want.pivots)
        np.testing.assert_array_equal(got.r, want.r)

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

    @pytest.mark.parametrize("rank_tol", [1e-2, 1e-5, 1e-9])
    def test_rank_tol_is_k_from_the_greedy_r(self, rng, rank_tol):
        # the rank cut picks k from the R the greedy pass already holds
        for trial in range(5):
            a = rng.standard_normal((40, 30)) * np.logspace(0, -12, 30)
            k = eps_rank_from_rdiag(cpqr(a).r, rank_tol)
            got, want = srrqr(a, rank_tol=rank_tol), srrqr(a, k=k)
            np.testing.assert_array_equal(got.pivots, want.pivots)
            np.testing.assert_array_equal(got.r, want.r)
            assert got.swaps == want.swaps

    def test_k_and_rank_tol_together_rejected(self, rng):
        with pytest.raises(InvalidInput, match="k or rank_tol"):
            srrqr(rng.standard_normal((6, 5)), k=2, rank_tol=1e-3)

    @pytest.mark.parametrize("rank_tol", [np.nan, -1e-3])
    def test_bad_rank_tol_rejected(self, rng, rank_tol):
        with pytest.raises(InvalidInput, match="rel_tol"):
            srrqr(rng.standard_normal((6, 5)), rank_tol=rank_tol)

    @pytest.mark.parametrize("theta, rank_tol", [(0.285, 1e-4), (0.285, 1e-6),
                                                 (0.8, 1e-4), (0.8, 1e-6)])
    def test_graded_matrix_bounds_at_the_rank_cut(self, theta, rank_tol):
        # on Kahan matrices the greedy leading block at the cut breaks
        # both bounds; the interchanges restore them at that k, also
        # where the machine-precision rank is n and tests nothing
        n, f = 50, 2.0
        c, s = np.cos(theta), np.sin(theta)
        kah = np.triu(-c * np.ones((n, n)), 1) + np.eye(n)
        kah *= np.power(s, np.arange(n))[:, None]
        k = eps_rank_from_rdiag(cpqr(kah).r, rank_tol)
        assert 0 < k < n
        sk = np.linalg.svd(kah, compute_uv=False)[k - 1]
        floor = sk / np.sqrt(1.0 + f * f * k * (n - k))
        greedy = cpqr(kah).r
        assert np.abs(np.linalg.solve(greedy[:k, :k], greedy[:k, k:])).max() > f
        assert np.linalg.svd(greedy[:k, :k], compute_uv=False)[-1] < floor
        fac = srrqr(kah, f=f, rank_tol=rank_tol)
        assert fac.swaps >= 1
        assert_r_factor(fac, kah)
        w = np.linalg.solve(fac.r[:k, :k], fac.r[:k, k:])
        assert np.abs(w).max() <= f + 1e-9
        smin = np.linalg.svd(fac.r[:k, :k], compute_uv=False)[-1]
        assert smin >= floor * (1 - 1e-9)

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
        np.testing.assert_allclose(op.row_block([4, 1]),
                                   (left @ right)[[4, 1]])

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
        assert np.all(np.isfinite(op.left)) and np.all(np.isfinite(op.right))
        assert np.all(np.isfinite(op.row_block(np.arange(20))))

    def test_truncation_tolerance_drops_noise_directions(self, rng):
        # the cut is eps * max(U.shape) * sigma_max(U), about 1.3e-15 for
        # a 6x6 core: a singular value below it is dropped, one above kept
        c = rng.standard_normal((30, 6))
        r = rng.standard_normal((6, 20))
        below = stable_cur_eval(c, np.diag([1, 1, 1, 1, 1, 1e-16]), r)
        above = stable_cur_eval(c, np.diag([1, 1, 1, 1, 1, 1e-14]), r)
        np.testing.assert_array_equal(below.left[:, 5], 0.0)
        np.testing.assert_array_equal(above.left[:, 5], c[:, 5] * 1e14)

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

    def test_well_conditioned_tall_core_takes_qr(self, rng, monkeypatch):
        # the operator's left factor is the product the estimator scores,
        # times_pinv's QR path, for stored factors as for bare blocks
        a = rng.standard_normal((60, 50))
        rows = rng.permutation(60)[:11]
        sel = IndexSelection(rows[:8], rng.choice(50, 8, replace=False),
                             rows[8:])
        c, u, r = a[:, sel.cols], a[np.ix_(rows, sel.cols)], a[rows, :]
        want = svd_times_pinv(c, u)
        monkeypatch.setattr("adacur.linalg.truncated_svd", None)
        for op in (stable_cur_eval(c, u, r),
                   CURFactors(sel, DenseOracle(a)).operator()):
            assert op.rank == 11
            np.testing.assert_array_equal(op.right, r)
            assert (np.linalg.norm(op.left - want)
                    <= 1e-10 * np.linalg.norm(want))


def svd_times_pinv(x, u):
    """``x @ pinv(u)`` through the truncated SVD alone."""
    p, s, vt = truncated_svd(u)
    return ((x @ vt.T) / s) @ p.T


def core_with_spectrum(rng, i, j, s):
    """An i-by-j core with singular values s and random singular vectors."""
    p = np.linalg.qr(rng.standard_normal((i, j)))[0]
    q = np.linalg.qr(rng.standard_normal((j, j)))[0]
    return (p * s) @ q.T


class TestTimesPinv:
    def test_well_conditioned_tall_core_takes_qr(self, rng, monkeypatch):
        u = core_with_spectrum(rng, 102, 92, np.logspace(0, -6, 92))
        x = rng.standard_normal((10, 92))
        want = svd_times_pinv(x, u)
        # the QR path never reaches the SVD
        monkeypatch.setattr("adacur.linalg.truncated_svd", None)
        got = times_pinv(x, u)
        assert got.shape == (10, 102)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_square_core_is_its_inverse(self, rng):
        u = rng.standard_normal((7, 7)) + 7 * np.eye(7)
        np.testing.assert_allclose(times_pinv(np.eye(7), u), np.linalg.inv(u),
                                   rtol=1e-12, atol=1e-12)

    def test_value_below_drop_threshold_takes_svd(self, rng):
        # one singular value at half the cut eps * max(U.shape) * sigma_max
        i, j = 60, 40
        s = np.logspace(0, -3, j)
        s[-1] = 0.5 * np.finfo(float).eps * i
        u = core_with_spectrum(rng, i, j, s)
        assert truncated_svd(u)[1].size == j - 1
        x = rng.standard_normal((5, j))
        assert times_pinv(x, u).tobytes() == svd_times_pinv(x, u).tobytes()

    def test_wide_core_takes_svd(self, rng):
        u = rng.standard_normal((6, 9))
        x = rng.standard_normal((4, 9))
        assert times_pinv(x, u).tobytes() == svd_times_pinv(x, u).tobytes()

    @pytest.mark.parametrize("x", [np.ones((3, 6)), np.ones((3, 4)),
                                   np.ones(5)], ids=["wide", "narrow", "1-d"])
    def test_mismatched_shapes_rejected(self, x):
        with pytest.raises(InvalidInput, match="as many columns"):
            times_pinv(x, np.eye(5))

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 0), (0, 4)])
    def test_zero_or_empty_core_gives_zero(self, rng, shape):
        x = rng.standard_normal((3, shape[1]))
        got = times_pinv(x, np.zeros(shape))
        assert got.tobytes() == svd_times_pinv(x, np.zeros(shape)).tobytes()
        np.testing.assert_array_equal(got, np.zeros((3, shape[0])))
