"""Tests for stabilizing row oversampling."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from adacur import oversample
from adacur.driver import AdaCurConfig, _rank_tol, recompute_baseline_run
from adacur.errors import InvalidInput
from adacur.linalg import cpqr, stable_cur_eval
from adacur.oracles import DenseOracle, ParamMatrixSequence
from adacur.oversample import oversample_rows, oversample_rows_multi
from adacur.pivoting import (IndexSelection, _rand_pivot_rankest_block,
                             _row_id, rand_pivot)
from adacur.problems import (make_adversarial, make_schrodinger,
                             make_speed_problem, make_synthetic_expm)


def tube_matrix(rng, m, n, r):
    """Rank-r matrix whose row subset conditioning actually varies."""
    u = rng.standard_normal((m, r)) * np.logspace(0, -3, r)
    return u @ rng.standard_normal((r, n))


def qc_basis(a, cols):
    return sla.qr(a[:, cols], mode="economic")[0]


class TestOversampleRows:
    def test_zero_extra_rows(self, rng):
        a = tube_matrix(rng, 40, 30, 5)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 5, seed=0)
        extra = oversample_rows(orc, sel.rows, sel.cols, 0)
        assert len(extra) == 0

    def test_requested_count_and_disjointness(self, rng):
        a = tube_matrix(rng, 40, 30, 5)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 5, seed=0)
        for p in [1, 3, 5]:
            extra = oversample_rows(orc, sel.rows, sel.cols, p)
            assert len(extra) == p
            assert len(np.intersect1d(extra, sel.rows)) == 0

    def test_p_larger_than_rank_rejected(self, rng):
        a = tube_matrix(rng, 40, 30, 5)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 5, seed=0)
        with pytest.raises(InvalidInput):
            oversample_rows(orc, sel.rows, sel.cols, 6)

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
                extra = oversample_rows(orc, sel.rows, sel.cols, p)
                grown = np.concatenate([sel.rows, extra])
                smin = np.linalg.svd(qc[grown], compute_uv=False)[-1]
                assert smin >= base - 1e-12

    def test_prefixes_are_monotone(self, rng):
        # prefixes of a single call's output give nondecreasing smallest
        # singular values: each added row augments the previous block
        a = tube_matrix(rng, 60, 40, 6)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 6, seed=1)
        extra = oversample_rows(orc, sel.rows, sel.cols, 5)
        qc = qc_basis(a, sel.cols)
        prev = -np.inf
        for p in range(6):
            grown = np.concatenate([sel.rows, extra[:p]]).astype(np.intp)
            smin = np.linalg.svd(qc[grown], compute_uv=False)[-1]
            assert smin >= prev - 1e-12
            prev = smin

    def test_exclude_respected(self, rng):
        a = tube_matrix(rng, 30, 20, 4)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 4, seed=2)
        banned = np.arange(10)
        extra = oversample_rows(orc, sel.rows, sel.cols, 4, exclude=banned)
        assert len(np.intersect1d(extra, banned)) == 0

    def test_col_block_shortcut_matches_fetch(self, rng):
        a = tube_matrix(rng, 50, 25, 5)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 5, seed=3)
        direct = oversample_rows(orc, sel.rows, sel.cols, 4)
        cached = oversample_rows(orc, sel.rows, sel.cols, 4,
                                 col_block=a[:, sel.cols])
        np.testing.assert_array_equal(direct, cached)

    def test_no_cur_regression_on_gaussian(self, rng):
        # paired comparison: adding 5 oversampled rows to a full-rank
        # 100x20 selection never loses to the bare selection on median
        wins = []
        for seed in range(20):
            gen = np.random.default_rng(seed)
            a = gen.standard_normal((100, 20))
            orc = DenseOracle(a)
            sel = rand_pivot(orc, 20, seed=seed)
            extra = oversample_rows(orc, sel.rows, sel.cols, 5)
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


class TestOversampleSelection:
    """Extra rows for an IndexSelection: exclude all of its rows."""

    def test_wraps_row_variant(self, rng):
        a = tube_matrix(rng, 40, 30, 5)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 5, seed=4)
        extra = oversample_rows(orc, sel.rows, sel.cols, 3,
                                exclude=sel.all_rows)
        assert len(extra) == 3
        assert len(np.intersect1d(extra, sel.rows)) == 0

    def test_existing_extras_excluded(self, rng):
        a = tube_matrix(rng, 40, 30, 5)
        orc = DenseOracle(a)
        base = rand_pivot(orc, 5, seed=5)
        free = np.setdiff1d(np.arange(40), base.rows)[:2]
        sel = IndexSelection(base.rows, base.cols, free.astype(np.intp))
        extra = oversample_rows(orc, sel.rows, sel.cols, 2,
                                exclude=sel.all_rows)
        assert len(np.intersect1d(extra, sel.all_rows)) == 0


class TestOversampleRowsMulti:
    def test_matches_single_call(self, rng):
        a = tube_matrix(rng, 50, 30, 5)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 5, seed=6)
        multi = oversample_rows_multi(orc, sel.rows, sel.cols, 4)
        single = oversample_rows(orc, sel.rows, sel.cols, 4)
        np.testing.assert_array_equal(multi, single)

    def test_exceeding_rank_splits_rounds(self, rng):
        # requests beyond the square-base cap succeed by re-basing
        a = tube_matrix(rng, 80, 30, 5)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 5, seed=7)
        extra = oversample_rows_multi(orc, sel.rows, sel.cols, 12)
        assert len(extra) == 12
        assert len(np.unique(extra)) == 12
        assert len(np.intersect1d(extra, sel.rows)) == 0

    def test_one_read_and_one_factorization_for_all_rounds(self, rng,
                                                           monkeypatch):
        # p = 12 > |cols| = 5 takes three rounds; the reference is the
        # round loop over single-shot calls, each reading and factoring
        a = tube_matrix(rng, 80, 30, 5)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 5, seed=7)
        want, picked = [], np.empty(0, np.intp)
        for q in (5, 5, 2):
            got = oversample_rows(orc, np.concatenate([sel.rows, picked]),
                                  sel.cols, q,
                                  exclude=np.concatenate([sel.rows, picked]))
            picked = np.concatenate([picked, got])
        factored = []

        class Counting(oversample._HouseholderBasis):
            def __init__(self, c):
                factored.append(c.shape)
                super().__init__(c)

        monkeypatch.setattr(oversample, "_HouseholderBasis", Counting)
        before = orc.counters.entries_read
        got = oversample_rows_multi(orc, sel.rows, sel.cols, 12)
        np.testing.assert_array_equal(got, picked)
        assert orc.counters.entries_read - before == 80 * 5
        assert factored == [(80, 5)]

    def test_exhaustion_warning_names_caller(self, rng):
        a = tube_matrix(rng, 8, 6, 3)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 3, seed=8)
        with pytest.warns(RuntimeWarning, match="exhausted") as rec:
            oversample_rows_multi(orc, sel.rows, sel.cols, 10)
        assert [w.filename for w in rec] == [__file__]

    def test_exhaustion_warns_and_returns_short(self, rng):
        a = tube_matrix(rng, 8, 6, 3)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 3, seed=8)
        with pytest.warns(RuntimeWarning):
            extra = oversample_rows_multi(orc, sel.rows, sel.cols, 10)
        assert len(extra) == 8 - 3


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
    sel, c, row_id = _rand_pivot_rankest_block(
        orc, _rank_tol(AdaCurConfig(tol=tol), orc.ncols), seed)
    return orc, sel, c, row_id


class TestInterpolativeBasis:
    """Oversampling from the row ID of the pivoting step, not a second QR."""

    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_basis_orthonormal_and_spans_block(self, name):
        _, _, c, row_id = scratch_block(name)
        m, k = c.shape
        q = oversample._InterpBasis(row_id).rows(np.arange(m))
        assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-12
        assert (np.linalg.norm(c - q @ (q.T @ c))
                <= 1e-13 * np.linalg.norm(c))

    def test_picks_match_householder_on_gaussian(self):
        for seed in range(5):
            a = np.random.default_rng(seed).standard_normal((120, 30))
            orc = DenseOracle(a)
            sel = rand_pivot(orc, 20, seed=seed)
            row_id = _row_id(cpqr(a[:, sel.cols].T))
            np.testing.assert_array_equal(row_id[0][:20], sel.rows)
            for p in (5, 20):
                np.testing.assert_array_equal(
                    oversample_rows(orc, sel.rows, sel.cols, p,
                                    row_id=row_id),
                    oversample_rows(orc, sel.rows, sel.cols, p))
            np.testing.assert_array_equal(
                oversample_rows_multi(orc, sel.rows, sel.cols, 45,
                                      row_id=row_id),
                oversample_rows_multi(orc, sel.rows, sel.cols, 45))

    def test_row_id_route_reads_nothing(self):
        orc, sel, _, row_id = scratch_block("adversarial")
        before = orc.counters.entries_read
        extra = oversample_rows_multi(orc, sel.rows, sel.cols, 30,
                                      row_id=row_id)
        assert orc.counters.entries_read == before
        assert np.unique(extra).size == 30
        assert np.intersect1d(extra, sel.rows).size == 0

    def test_mismatched_or_doubled_input_rejected(self, rng):
        a = tube_matrix(rng, 40, 30, 5)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 5, seed=0)
        with pytest.raises(InvalidInput):
            oversample_rows(orc, sel.rows, sel.cols, 2,
                            row_id=_row_id(cpqr(a[:, sel.cols[:4]].T)))
        with pytest.raises(InvalidInput):
            oversample_rows(orc, sel.rows, sel.cols, 2,
                            col_block=a[:, sel.cols],
                            row_id=_row_id(cpqr(a[:, sel.cols].T)))

    def test_exactly_singular_leading_block(self):
        # rank 1 with an exact zero column: R's second row is exactly
        # zero, so T keeps the leading nonsingular part and zeros the rest
        c = np.column_stack([np.arange(1.0, 7.0), np.zeros(6)])
        qr = cpqr(c.T)
        assert qr.r[1, 1] == 0.0
        piv, t = _row_id(qr)
        assert np.isfinite(t).all()
        np.testing.assert_array_equal(t[1], 0.0)
        np.testing.assert_allclose(c[piv[2:]], t.T @ c[piv[:2]], atol=1e-14)
        q = oversample._InterpBasis((piv, t)).rows(np.arange(6))
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("m, n, r, warned", [
        (50, 40, 2, set()),
        (300, 100, 5, {"rank tolerance unresolved"}),
    ])
    def test_numerically_singular_r11(self, m, n, r, warned):
        # 1e12 scaling puts rounding noise far above the absolute rank
        # tolerance: the rank estimate reaches n, so R11 of the pivoting
        # factor is numerically singular; a repeated column on top
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
