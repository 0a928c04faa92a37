"""Counted matrix access and parameter-sweep sequences.

Every algorithm in this package touches matrices only through
:class:`MatrixOracle`, which meters matrix-vector products and entry
reads. That keeps the cost claims of the adaptive drivers testable:
an instrumented run reports exactly how much of the matrix was seen.

A sparse matrix is read in one way: :class:`SparseOracle` is the rank-0
case of :class:`LowRankPlusSparseOracle`, which adds only the stored
entries inside a block into it.
"""

import copy

import numpy as np
import scipy.sparse as sp

from .errors import InvalidInput, check_indices, check_int

__all__ = [
    "OracleCounters",
    "MatrixOracle",
    "DenseOracle",
    "SparseOracle",
    "LowRankPlusSparseOracle",
    "ParamMatrixSequence",
]


class OracleCounters:
    """Mutable access tally of one oracle."""

    __slots__ = ("matvecs", "rmatvecs", "entries_read")

    def __init__(self):
        self.matvecs = 0
        self.rmatvecs = 0
        self.entries_read = 0

    @property
    def total_matvecs(self):
        return self.matvecs + self.rmatvecs

    def __repr__(self):
        return (f"OracleCounters(matvecs={self.matvecs}, "
                f"rmatvecs={self.rmatvecs}, entries_read={self.entries_read})")


class MatrixOracle:
    """Metered access to an m-by-n matrix.

    Subclasses implement the underscored hooks; the public methods
    validate arguments and maintain :attr:`counters`. Blocks are
    returned as dense float arrays regardless of the backing storage.
    """

    def __init__(self, shape):
        m, n = shape
        if m <= 0 or n <= 0:
            raise InvalidInput("oracle dimensions must be positive")
        self.shape = (int(m), int(n))
        self.counters = OracleCounters()

    @property
    def nrows(self):
        return self.shape[0]

    @property
    def ncols(self):
        return self.shape[1]

    # -- hooks ---------------------------------------------------------

    def _matmat(self, x):
        raise NotImplementedError

    def _rmatmat(self, x):
        raise NotImplementedError

    def _rows(self, idx):
        raise NotImplementedError

    def _cols(self, idx):
        raise NotImplementedError

    def _submatrix(self, rows, cols):
        # Row-block slice keeps entries bit-identical with _rows.
        return self._rows(rows)[:, cols]

    # -- public API ----------------------------------------------------

    def matvec(self, x):
        """Return ``A @ x`` for a single vector x of length n."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ncols,):
            raise InvalidInput(f"matvec expects a vector of length {self.ncols}")
        self.counters.matvecs += 1
        return self._matmat(x.reshape(-1, 1)).ravel()

    def rmatvec(self, x):
        """Return ``A.T @ x`` for a single vector x of length m."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.nrows,):
            raise InvalidInput(f"rmatvec expects a vector of length {self.nrows}")
        self.counters.rmatvecs += 1
        return self._rmatmat(x.reshape(-1, 1)).ravel()

    def matmat(self, x):
        """Return ``A @ X``; counts one matvec per column of X."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] != self.ncols:
            raise InvalidInput(f"matmat expects shape ({self.ncols}, k)")
        self.counters.matvecs += x.shape[1]
        return self._matmat(x)

    def rmatmat(self, x):
        """Return ``A.T @ X``; counts one adjoint matvec per column."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[0] != self.nrows:
            raise InvalidInput(f"rmatmat expects shape ({self.nrows}, k)")
        self.counters.rmatvecs += x.shape[1]
        return self._rmatmat(x)

    def row_block(self, idx):
        """Return the dense row block ``A[idx, :]``."""
        idx = check_indices("row indices", idx, self.nrows)
        self.counters.entries_read += idx.size * self.ncols
        return self._rows(idx)

    def col_block(self, idx):
        """Return the dense column block ``A[:, idx]``."""
        idx = check_indices("column indices", idx, self.ncols)
        self.counters.entries_read += idx.size * self.nrows
        return self._cols(idx)

    def submatrix(self, rows, cols):
        """Return the dense submatrix ``A[np.ix_(rows, cols)]``."""
        rows = check_indices("row indices", rows, self.nrows)
        cols = check_indices("column indices", cols, self.ncols)
        self.counters.entries_read += rows.size * cols.size
        return self._submatrix(rows, cols)


class DenseOracle(MatrixOracle):
    """Oracle over a materialized dense array."""

    def __init__(self, a):
        a = np.ascontiguousarray(np.asarray(a, dtype=float))
        if a.ndim != 2:
            raise InvalidInput("DenseOracle expects a 2-d array")
        super().__init__(a.shape)
        self.array = a

    def _matmat(self, x):
        return self.array @ x

    def _rmatmat(self, x):
        return self.array.T @ x

    def _rows(self, idx):
        return self.array[idx, :]

    def _cols(self, idx):
        return self.array[:, idx]

    def _submatrix(self, rows, cols):
        return self.array[np.ix_(rows, cols)]


def _ranges(starts, counts):
    """``range(s, s + c)`` for each pair, concatenated, with each item's pair.

    Returns ``(owner, value)``: item t is ``value[t]``, drawn from pair
    ``owner[t]``.
    """
    owner = np.repeat(np.arange(counts.size), counts)
    offset = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
    return owner, starts[owner] + offset


class LowRankPlusSparseOracle(MatrixOracle):
    """Oracle for ``U @ diag(sigma) @ V.T + S`` that never densifies.

    The sparse term is kept as one canonical CSR matrix (duplicates
    summed, columns sorted within a row). Its CSC copy, and the CSR
    view of S.T on that copy's arrays, are built once, on the first
    column read or adjoint product, so an oracle read only by rows,
    submatrices and forward products never converts. A block is the
    low-rank GEMM with only the stored entries that fall inside it added
    in place, by one walk over the requested rows of a CSR form: S's
    own for a row or submatrix read, and the view of S.T for a column
    read. So a block costs the GEMM plus the stored entries of the rows
    or columns it names, and no dense copy of S's part of it is made.

    Parameters
    ----------
    u, v : ndarray
        Factor matrices of shape (m, r) and (n, r); r may be 0.
    sigma : ndarray
        The r factor weights.
    s : sparse matrix or None
        Optional sparse perturbation of shape (m, n); None is an empty
        one.
    """

    def __init__(self, u, sigma, v, s=None):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        if u.ndim != 2 or v.ndim != 2 or sigma.ndim != 1:
            raise InvalidInput("factor shapes must be (m,r), (r,), (n,r)")
        if u.shape[1] != sigma.size or v.shape[1] != sigma.size:
            raise InvalidInput("inner factor dimensions disagree")
        super().__init__((u.shape[0], v.shape[0]))
        self.u = u
        self.sigma = sigma
        self.v = v
        self._us = u * sigma  # (m, r), premultiplied once
        self._set_sparse(s)

    def _set_sparse(self, s):
        """Keep ``s`` (None is empty) as canonical CSR; no CSC copy yet."""
        if s is None:
            s = sp.csr_matrix(self.shape)
        if not sp.issparse(s):
            raise InvalidInput("sparse term must be a scipy sparse matrix")
        if s.shape != self.shape:
            raise InvalidInput("sparse term shape mismatch")
        csr = s.tocsr(copy=True).astype(float, copy=False)
        csr.sum_duplicates()
        self._csr = csr
        self._csc = self._csr_t = None

    @property
    def _csc_t(self):
        """S.T as a CSR view on S's CSC copy, both built on first use."""
        if self._csc is None:
            self._csc = self._csr.tocsc()
            self._csr_t = self._csc.T
        return self._csr_t

    def with_sparse(self, s):
        """Oracle for the same low-rank part plus the sparse term ``s``.

        The new oracle shares this one's factors and their premultiplied
        product, so building it costs only the sparse term's conversion,
        and nothing when ``s`` is None and this oracle has no term
        either; it has its own counters. Blocks and products are bitwise
        equal to those of ``LowRankPlusSparseOracle(u, sigma, v, s)``,
        and an empty term costs no product.
        """
        new = copy.copy(self)
        new.counters = OracleCounters()
        if s is not None or self.nnz:
            new._set_sparse(s)
        return new

    @property
    def nnz(self):
        """Stored entries of the sparse term, after duplicates are summed."""
        return self._csr.nnz

    def _matmat(self, x):
        y = self._us @ (self.v.T @ x)
        if self.nnz:
            y += self._csr @ x
        return y

    def _rmatmat(self, x):
        y = self.v @ (self._us.T @ x)
        if self.nnz:
            y += self._csc_t @ x
        return y

    def _add_sparse(self, out, rows, cols=None, csr=None):
        """Add ``S[rows][:, cols]`` into ``out`` in place; None is every column.

        ``csr`` is the canonical CSR form walked, S's own by default;
        the CSR view of S.T reads columns of S instead, into ``out.T``.
        Only the stored entries of the requested rows are walked. Each
        (row, column) of the block meets at most one of them, as the CSR
        form is canonical, so the indexed addition never collides, also
        for repeated indices.
        """
        csr = self._csr if csr is None else csr
        ptr = csr.indptr
        at_row, k = _ranges(ptr[rows], ptr[rows + 1] - ptr[rows])
        at_col = csr.indices[k]
        if cols is not None:
            # column c sits at argsort(cols)[first[c]:][:hits[c]], and
            # entry k lands at each of its column's positions
            hits = np.bincount(cols, minlength=csr.shape[1])
            first = np.cumsum(hits) - hits
            t, slot = _ranges(first[at_col], hits[at_col])
            at_row, k = at_row[t], k[t]
            at_col = np.argsort(cols, kind="stable")[slot]
        out[at_row, at_col] += csr.data[k]
        return out

    def _rows(self, idx):
        return self._add_sparse(self._us[idx, :] @ self.v.T, idx)

    def _cols(self, idx):
        out = self._us @ self.v[idx, :].T
        if self.nnz:
            self._add_sparse(out.T, idx, csr=self._csc_t)
        return out

    def _submatrix(self, rows, cols):
        return self._add_sparse(self._us[rows, :] @ self.v[cols, :].T,
                                rows, cols)


class SparseOracle(LowRankPlusSparseOracle):
    """Oracle over a scipy sparse matrix: the rank-0 low-rank-plus-sparse case.

    Blocks come out dense, with only the stored entries inside them
    written, and products go through the sparse forms; ``nnz`` counts
    the stored entries after duplicates are summed.
    """

    def __init__(self, s):
        if not sp.issparse(s):
            raise InvalidInput("SparseOracle expects a scipy sparse matrix")
        m, n = s.shape
        super().__init__(np.empty((m, 0)), np.empty(0), np.empty((n, 0)), s)


class ParamMatrixSequence:
    """A matrix-valued curve sampled at increasing parameter values.

    Parameters
    ----------
    params : array_like
        Finite, strictly increasing parameter samples t_0 < t_1 < ...
    provider : callable
        Maps a step index j to a fresh :class:`MatrixOracle` for A(t_j).
    shape : tuple
        Common (m, n) of every matrix in the sequence, two positive
        integers.
    cache_oracles : bool
        Keep constructed oracles (and their counters) for re-inspection.
        Disable for sequences too large to hold in memory at once.
    """

    def __init__(self, params, provider, shape, cache_oracles=True):
        params = np.asarray(params, dtype=float)
        if params.ndim != 1 or params.size == 0:
            raise InvalidInput("params must be a non-empty 1-d array")
        bad = np.flatnonzero(~np.isfinite(params))
        if bad.size:
            raise InvalidInput(f"params[{bad[0]}] is not finite")
        if params.size > 1 and not np.all(np.diff(params) > 0):
            raise InvalidInput("params must be strictly increasing")
        if np.shape(shape) != (2,):
            raise InvalidInput(f"shape must be a pair (m, n), got {shape!r}")
        self.params = params
        self.provider = provider
        self.shape = (check_int("shape[0]", shape[0], 1),
                      check_int("shape[1]", shape[1], 1))
        self.cache_oracles = cache_oracles
        self._cache = {}

    def __len__(self):
        return self.params.size

    def oracle(self, j):
        """Oracle for step j; cached when ``cache_oracles`` is set."""
        j = int(j)
        if not 0 <= j < len(self):
            raise InvalidInput(f"step index {j} out of range [0, {len(self)})")
        if self.cache_oracles and j in self._cache:
            return self._cache[j]
        orc = self.provider(j)
        if not isinstance(orc, MatrixOracle):
            raise InvalidInput(
                f"provider returned {type(orc).__name__} at step {j}, "
                f"expected a MatrixOracle")
        if orc.shape != self.shape:
            raise InvalidInput(
                f"provider returned shape {orc.shape} at step {j}, "
                f"expected {self.shape}")
        if self.cache_oracles:
            self._cache[j] = orc
        return orc
