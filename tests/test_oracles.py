"""Tests for the reads of a sparse term, with and without a low-rank part.

Every block and product of a LowRankPlusSparseOracle, and of a
SparseOracle (its rank-0 case), must be bitwise equal to the low-rank
formula plus the densified sparse term, whatever the sparse input's
format, duplicates or the repetition of the requested indices.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from adacur.errors import InvalidInput
from adacur.oracles import LowRankPlusSparseOracle, SparseOracle


def factors(rng, m, n, r):
    return (rng.standard_normal((m, r)), rng.random(r) + 0.1,
            rng.standard_normal((n, r)))


def low_rank_plus(s, rng, r):
    m, n = s.shape
    return LowRankPlusSparseOracle(*factors(rng, m, n, r), s)


def sparse_only(s, rng, r):
    return SparseOracle(s)


@pytest.fixture(params=[low_rank_plus, sparse_only])
def build(request):
    """Oracle over ``s`` (plus r random factors where the class has them)."""
    return request.param


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_reads_match(orc, s, rows, cols, rng):
    """Every read of ``orc`` equals the formula with the dense ``s``."""
    us, v = orc.u * orc.sigma, orc.v
    m, n = orc.shape
    x, y = rng.standard_normal((n, 3)), rng.standard_normal((m, 2))
    s = sp.csr_matrix((m, n)) if s is None else s
    assert_bitwise(orc.row_block(rows), us[rows] @ v.T + s[rows].toarray())
    assert_bitwise(orc.col_block(cols),
                   us @ v[cols].T + s[:, cols].toarray())
    assert_bitwise(orc.submatrix(rows, cols),
                   us[rows] @ v[cols].T + s[rows][:, cols].toarray())
    assert_bitwise(orc.matmat(x), us @ (v.T @ x) + s @ x)
    assert_bitwise(orc.rmatmat(y), v @ (us.T @ y) + s.T @ y)


class TestSparseReads:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_sparse_terms(self, build, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(5, 60, size=2)
        s = sp.random(m, n, density=rng.choice([0.0, 0.01, 0.2, 1.0]),
                      random_state=seed, format="csr")
        orc = build(s, rng, 4)
        rows = rng.choice(m, size=min(m, 7), replace=False)
        cols = rng.choice(n, size=min(n, 9), replace=False)
        assert_reads_match(orc, s, rows, cols, rng)
        assert orc.nnz == s.nnz

    def test_coo_duplicates_are_summed(self, build, rng):
        m, n = 12, 9
        ij = (np.array([0, 0, 3, 11, 3, 0]), np.array([1, 1, 8, 0, 8, 1]))
        vals = np.array([1.5, -0.25, 2.0, 3.0, 0.5, 4.0])
        coo = sp.coo_matrix((vals, ij), shape=(m, n))
        orc = build(coo, rng, 3)
        summed = coo.tocsr()
        assert orc.nnz == 3
        assert_reads_match(orc, summed, np.arange(m), np.arange(n), rng)
        base = LowRankPlusSparseOracle(orc.u, orc.sigma, orc.v)
        diff = orc.submatrix([0, 3, 11], [1, 8, 0]) \
            - base.submatrix([0, 3, 11], [1, 8, 0])
        np.testing.assert_allclose(np.diag(diff), [5.25, 2.5, 3.0])

    def test_repeated_row_and_column_indices(self, build, rng):
        m, n = 20, 15
        s = sp.random(m, n, density=0.3, random_state=4, format="coo")
        orc = build(s, rng, 2)
        rows = np.array([3, 3, 0, 19, 3, 7, 0])
        cols = np.array([14, 2, 2, 2, 0, 14])
        assert_reads_match(orc, s.tocsr(), rows, cols, rng)

    def test_empty_index_sets(self, build, rng):
        s = sp.random(8, 6, density=0.5, random_state=1, format="csr")
        orc = build(s, rng, 2)
        assert orc.row_block([]).shape == (0, 6)
        assert orc.col_block([]).shape == (8, 0)
        assert orc.submatrix([], [1, 1]).shape == (0, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_lazy_forms_read_as_eager_ones(self, build, seed):
        # an oracle that builds S's CSC copy and the view of S.T only
        # when a read needs them reads bitwise as one that built them
        # up front, whatever the reads before that
        rng = np.random.default_rng(seed)
        m, n = rng.integers(5, 40, size=2)
        nnz = rng.integers(0, 3 * m)
        ij = (rng.integers(0, m, nnz), rng.integers(0, n, nnz))
        coo = sp.coo_matrix((rng.standard_normal(nnz), ij), shape=(m, n))
        lazy = build(coo, np.random.default_rng(seed), 3)
        eager = build(coo, np.random.default_rng(seed), 3)
        eager._csc_t
        rows = rng.integers(0, m, 6)
        x, y = rng.standard_normal((n, 2)), rng.standard_normal((m, 2))
        reads = [("row_block", (rows,)), ("submatrix", (rows, [0, 0])),
                 ("matmat", (x,)), ("col_block", ([],)),
                 ("col_block", (rng.integers(0, n, 7),)),
                 ("rmatmat", (y,)), ("col_block", ([n - 1, 0, n - 1],))]
        for i in rng.permutation(len(reads)):
            name, args = reads[i]
            assert_bitwise(getattr(lazy, name)(*args),
                           getattr(eager, name)(*args))

    def test_csc_built_on_first_column_or_adjoint_read(self, build, rng):
        s = sp.random(30, 20, density=0.2, random_state=3, format="csr")
        for first in ("col_block", "rmatmat", "rmatvec"):
            orc = build(s, rng, 2)
            orc.row_block([4, 0])
            orc.submatrix([1, 29], [3, 3])
            orc.matmat(np.ones((20, 2)))
            orc.matvec(np.ones(20))
            assert orc._csc is None
            arg = {"col_block": [5], "rmatmat": np.ones((30, 1)),
                   "rmatvec": np.ones(30)}[first]
            getattr(orc, first)(arg)
            csc, view = orc._csc, orc._csc_t
            assert np.shares_memory(view.data, csc.data)
            orc.col_block([1, 2])
            orc.rmatvec(np.ones(30))
            assert orc._csc is csc and orc._csc_t is view

    def test_with_sparse_none_is_low_rank_alone(self, rng):
        m, n = 30, 11
        s = sp.random(m, n, density=0.2, random_state=2, format="csr")
        orc = LowRankPlusSparseOracle(*factors(rng, m, n, 3), s)
        bare = orc.with_sparse(None)
        assert bare.nnz == 0 and orc.nnz == s.nnz
        assert_reads_match(bare, None, np.array([4, 4, 29]),
                           np.array([0, 10, 0]), rng)
        # an absent term on an oracle without one shares its empty CSR
        # form; no read of an empty term builds the CSC copy
        again = bare.with_sparse(None)
        assert again._csr is bare._csr
        assert bare._csc is None and again._csc is None
        assert again.counters is not bare.counters
        assert_reads_match(again, None, np.array([0, 29]), np.array([3]),
                           rng)
        assert_reads_match(orc, s, np.array([4, 4, 29]),
                           np.array([0, 10, 0]), rng)

    def test_with_sparse_matches_fresh_oracle(self, rng):
        m, n = 25, 13
        u, sigma, v = factors(rng, m, n, 3)
        base = LowRankPlusSparseOracle(u, sigma, v)
        s = sp.random(m, n, density=0.1, random_state=5, format="csc")
        new = base.with_sparse(s)
        assert new._us is base._us and base.nnz == 0
        assert_reads_match(new, s.tocsr(), np.array([1, 24]),
                           np.array([12, 3, 3]), rng)

    def test_input_left_untouched(self, build, rng):
        # a CSR input with a duplicate and unsorted columns is read in
        # canonical form, but the caller's matrix keeps its own arrays
        s = sp.csr_matrix((np.array([1.0, 2.0, 4.0]), np.array([2, 0, 2]),
                           np.array([0, 3, 3])), shape=(2, 3))
        before = (s.data.copy(), s.indices.copy(), s.indptr.copy())
        orc = build(s, rng, 1)
        assert orc.nnz == 2
        assert_reads_match(orc, sp.csr_matrix(s.toarray()),
                           np.array([1, 0, 0]), np.array([2, 0]), rng)
        for got, want in zip((s.data, s.indices, s.indptr), before):
            np.testing.assert_array_equal(got, want)

    def test_bad_sparse_term_rejected(self, rng):
        u, sigma, v = factors(rng, 6, 4, 2)
        with pytest.raises(InvalidInput):
            LowRankPlusSparseOracle(u, sigma, v, np.ones((6, 4)))
        with pytest.raises(InvalidInput):
            LowRankPlusSparseOracle(u, sigma, v, sp.csr_matrix((4, 6)))
        with pytest.raises(InvalidInput, match="SparseOracle expects"):
            SparseOracle(np.ones((6, 4)))

    def test_sparse_oracle_is_the_rank_zero_case(self):
        # one sparse-read path: SparseOracle adds a constructor only
        assert issubclass(SparseOracle, LowRankPlusSparseOracle)
        assert set(vars(SparseOracle)) & {
            "_matmat", "_rmatmat", "_rows", "_cols", "_submatrix",
            "_add_sparse", "_set_sparse", "nnz"} == set()
        orc = SparseOracle(sp.eye(5, 3, format="csc"))
        assert orc.u.shape == (5, 0) and orc.v.shape == (3, 0)
        assert orc.sigma.shape == (0,) and orc.nnz == 3
