"""Tests for stabilizing row oversampling."""

import numpy as np
import pytest
import scipy.linalg as sla

from adacur.errors import InvalidInput
from adacur.linalg import stable_cur_eval
from adacur.oracles import DenseOracle
from adacur.oversample import (
    oversample_rows,
    oversample_rows_multi,
    oversample_selection,
)
from adacur.pivoting import IndexSelection, rand_pivot


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
    def test_wraps_row_variant(self, rng):
        a = tube_matrix(rng, 40, 30, 5)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 5, seed=4)
        extra = oversample_selection(orc, sel, 3)
        assert len(extra) == 3
        assert len(np.intersect1d(extra, sel.rows)) == 0

    def test_existing_extras_excluded(self, rng):
        a = tube_matrix(rng, 40, 30, 5)
        orc = DenseOracle(a)
        base = rand_pivot(orc, 5, seed=5)
        free = np.setdiff1d(np.arange(40), base.rows)[:2]
        sel = IndexSelection(base.rows, base.cols, free.astype(np.intp))
        extra = oversample_selection(orc, sel, 2)
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

    def test_prefetched_block_serves_every_round(self, rng):
        a = tube_matrix(rng, 80, 30, 5)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 5, seed=7)
        fetched = oversample_rows_multi(orc, sel.rows, sel.cols, 12)
        before = orc.counters.entries_read
        given = oversample_rows_multi(orc, sel.rows, sel.cols, 12,
                                      col_block=a[:, sel.cols])
        np.testing.assert_array_equal(given, fetched)
        assert orc.counters.entries_read == before

    def test_exhaustion_warns_and_returns_short(self, rng):
        a = tube_matrix(rng, 8, 6, 3)
        orc = DenseOracle(a)
        sel = rand_pivot(orc, 3, seed=8)
        with pytest.warns(RuntimeWarning):
            extra = oversample_rows_multi(orc, sel.rows, sel.cols, 10)
        assert len(extra) == 8 - 3
