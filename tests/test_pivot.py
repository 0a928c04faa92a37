"""Tests for randomized pivot selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adacur import pivoting
from adacur.errors import InvalidInput, NonFiniteSnapshot
from adacur.linalg import lu_row_id, stable_cur_eval
from adacur.oracles import DenseOracle
from adacur.oversample import oversample_rows
from adacur.pivoting import IndexSelection, rand_pivot, rand_pivot_rankest


def rank_r_matrix(rng, m, n, r):
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


def first_selection_fault(rows, cols, extra):
    """Reference for IndexSelection's checks on valid indices: np.unique
    of each set in turn, then intersect1d; None when all pass."""
    for name, idx in (("rows", rows), ("cols", cols), ("extra_rows", extra)):
        if np.unique(idx).size != len(idx):
            return f"duplicate indices in {name}"
    if np.intersect1d(rows, extra).size:
        return "extra_rows overlaps rows"
    return None


class TestIndexSelection:
    def test_all_rows_concatenates_extras(self):
        sel = IndexSelection(np.array([3, 1]), np.array([2]),
                             np.array([7, 9]))
        assert list(sel.all_rows) == [3, 1, 7, 9]

    def test_empty(self):
        sel = IndexSelection.empty()
        assert sel.is_empty
        assert len(sel.rows) == 0 and len(sel.cols) == 0

    def test_nonempty_flag(self):
        sel = IndexSelection(np.array([0]), np.array([0]),
                             np.array([], dtype=np.intp))
        assert not sel.is_empty

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.integers(-3, 30), max_size=8),
           cols=st.lists(st.integers(-3, 30), max_size=8),
           extra=st.lists(st.integers(-3, 30), max_size=8))
    def test_accepts_exactly_the_valid_selections(self, rows, cols, extra):
        valid = (len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
                 and len(set(extra)) == len(extra)
                 and not set(rows) & set(extra)
                 and min(rows + cols + extra, default=0) >= 0)
        if valid:
            sel = IndexSelection(rows, cols, extra)
            assert list(sel.all_rows) == rows + extra
        else:
            with pytest.raises(InvalidInput):
                IndexSelection(rows, cols, extra)

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.integers(0, 9), max_size=8),
           cols=st.lists(st.integers(0, 9), max_size=8),
           extra=st.lists(st.integers(0, 9), max_size=8))
    def test_first_fault_named_as_by_per_set_checks(self, rows, cols, extra):
        want = first_selection_fault(rows, cols, extra)
        if want is None:
            IndexSelection(rows, cols, extra)
        else:
            with pytest.raises(InvalidInput) as info:
                IndexSelection(rows, cols, extra)
            assert str(info.value) == want

    @pytest.mark.parametrize("bad", [[1.5], [True], [-1], [[1, 2]],
                                     np.array([2.0, 3.0])])
    @pytest.mark.parametrize("field", ["rows", "cols", "extra_rows"])
    def test_non_index_arrays_rejected(self, bad, field):
        args = {"rows": [5], "cols": [5], "extra_rows": [6], field: bad}
        with pytest.raises(InvalidInput, match=field):
            IndexSelection(**args)

    def test_empty_of_any_dtype_accepted(self):
        sel = IndexSelection([], np.empty(0), np.empty(0, dtype=bool))
        assert sel.is_empty and sel.extra_rows.dtype == np.intp


class TestRandPivot:
    def test_exact_recovery(self, rng):
        # indices chosen on a rank-r matrix reproduce it through CUR
        for trial in range(10):
            m, n, r = 60, 45, 7
            a = rank_r_matrix(rng, m, n, r)
            sel = rand_pivot(DenseOracle(a), r, seed=trial)
            assert len(sel.rows) == r and len(sel.cols) == r
            op = stable_cur_eval(a[:, sel.cols],
                                 a[np.ix_(sel.rows, sel.cols)],
                                 a[sel.rows, :])
            err = np.linalg.norm(a - op.left @ op.right)
            assert err <= 1e-10 * np.linalg.norm(a)

    def test_identity_selects_distinct_indices(self):
        sel = rand_pivot(DenseOracle(np.eye(10)), 10, seed=0)
        assert sorted(sel.rows) == list(range(10))
        assert sorted(sel.cols) == list(range(10))

    def test_deterministic(self, rng):
        a = rng.standard_normal((40, 30))
        s1 = rand_pivot(DenseOracle(a), 5, seed=9)
        s2 = rand_pivot(DenseOracle(a), 5, seed=9)
        np.testing.assert_array_equal(s1.rows, s2.rows)
        np.testing.assert_array_equal(s1.cols, s2.cols)

    def test_seed_matters(self, rng):
        a = rng.standard_normal((200, 150))
        s1 = rand_pivot(DenseOracle(a), 5, seed=1)
        s2 = rand_pivot(DenseOracle(a), 5, seed=2)
        assert (not np.array_equal(s1.rows, s2.rows)
                or not np.array_equal(s1.cols, s2.cols))

    def test_factors_its_column_block_in_place(self, rng, monkeypatch):
        # rand_pivot returns no C, so its block becomes its LU factor
        calls = []

        def spy(c, overwrite=False):
            row_id = lu_row_id(c, overwrite)
            calls.append((overwrite, np.shares_memory(row_id.lu, c)))
            return row_id

        monkeypatch.setattr(pivoting, "lu_row_id", spy)
        orc = DenseOracle(rank_r_matrix(rng, 50, 40, 6))
        rand_pivot(orc, 6, seed=3)
        rand_pivot(orc, 4, seed=3)
        assert calls == [(True, True), (True, True)]

    def test_draws_only_the_sketch_rows_it_reads(self, rng):
        orc = DenseOracle(rank_r_matrix(rng, 50, 40, 6))
        rand_pivot(orc, 6, seed=3)
        assert orc.counters.rmatvecs == 6

    def test_nan_in_sketch_rejected(self, rng):
        a = rank_r_matrix(rng, 50, 40, 6)
        a[7, 3] = np.nan
        with pytest.raises(NonFiniteSnapshot, match="pivot sketch"):
            rand_pivot(DenseOracle(a), 6, seed=3)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(2, 40), n=st.integers(2, 40),
           rank=st.integers(1, 10), extra=st.integers(0, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_selection_invariants(self, m, n, rank, extra, seed):
        # pivots and oversampled rows never repeat, extras avoid rows
        gen = np.random.default_rng(seed)
        r = min(rank, m, n)
        orc = DenseOracle(rank_r_matrix(gen, m, n, r))
        sel = rand_pivot(orc, r, seed=seed)
        p = min(extra, m - r)
        more = oversample_rows(lu_row_id(orc.col_block(sel.cols)),
                               sel.rows, p)
        assert more.size == p
        for idx in (sel.rows, sel.cols, more):
            assert np.unique(idx).size == idx.size == (r if idx is not more
                                                       else p)
        assert np.intersect1d(sel.rows, more).size == 0
        IndexSelection(sel.rows, sel.cols, more)

    @pytest.mark.parametrize("r", [2.7, True, -1, 41, "3"])
    def test_bad_count_rejected(self, rng, r):
        orc = DenseOracle(rank_r_matrix(rng, 50, 40, 6))
        with pytest.raises(InvalidInput, match="r must"):
            rand_pivot(orc, r, seed=3)
        assert orc.counters.rmatvecs == 0

    def test_numpy_count_accepted(self, rng):
        orc = DenseOracle(rank_r_matrix(rng, 50, 40, 6))
        got, want = rand_pivot(orc, np.int32(4), 3), rand_pivot(orc, 4, 3)
        np.testing.assert_array_equal(got.rows, want.rows)
        np.testing.assert_array_equal(got.cols, want.cols)


class TestRandPivotRankest:
    def test_rank_two(self, rng):
        a = rank_r_matrix(rng, 50, 40, 2)
        sel, row_id = rand_pivot_rankest(DenseOracle(a), 1e-8, seed=0)
        assert len(sel.rows) == 2 and len(sel.cols) == 2
        np.testing.assert_array_equal(row_id.perm[:2], sel.rows)
        assert row_id.lu.shape == (50, 2)

    def test_factors_the_block_in_place(self, rng):
        # the block read once for the row pivots became the LU factor,
        # bitwise the row ID of a copy of A[:, J]
        a = rank_r_matrix(rng, 60, 40, 5)
        orc = DenseOracle(a)
        sel, row_id = rand_pivot_rankest(orc, 1e-8, seed=2)
        want = lu_row_id(a[:, sel.cols])
        np.testing.assert_array_equal(row_id.perm, want.perm)
        assert row_id.lu.tobytes() == want.lu.tobytes()
        assert row_id.lu.flags.f_contiguous
        assert orc.counters.entries_read == 60 * 5

    def test_zero_matrix_gives_empty_selection(self):
        sel, row_id = rand_pivot_rankest(DenseOracle(np.zeros((20, 20))),
                                         1e-8, seed=0)
        assert sel.is_empty and row_id is None

    def test_single_sketch_pass(self, rng):
        # pivoting reuses the rank estimator's sketch: the adjoint matvec
        # count equals the accumulated sketch size, nothing more
        a = rank_r_matrix(rng, 80, 60, 5)
        orc = DenseOracle(a)
        sel = rand_pivot_rankest(orc, 1e-8, seed=1)[0]
        assert len(sel.rows) == 5
        assert orc.counters.rmatvecs == 8  # initial sketch already enough

    def test_recovery_through_driver_tolerance(self, rng):
        for trial in range(5):
            a = rank_r_matrix(rng, 70, 50, 9)
            orc = DenseOracle(a)
            sel = rand_pivot_rankest(orc, 1e-9 * np.linalg.norm(a, 2),
                                     seed=trial)[0]
            op = stable_cur_eval(a[:, sel.cols],
                                 a[np.ix_(sel.rows, sel.cols)],
                                 a[sel.rows, :])
            err = np.linalg.norm(a - op.left @ op.right)
            assert err <= 1e-9 * np.linalg.norm(a)
