"""Counted matrix access and parameter-sweep sequences.

Every algorithm in this package touches matrices only through
:class:`MatrixOracle`, which meters matrix-vector products and entry
reads. That keeps the cost claims of the adaptive drivers testable:
an instrumented run reports exactly how much of the matrix was seen.
"""

import copy
import functools

import numpy as np
import scipy.sparse as sp

from .errors import InvalidInput

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


def _index_array(idx, bound, what):
    idx = np.atleast_1d(np.asarray(idx))
    if idx.size == 0:
        return idx.astype(np.intp)
    if idx.dtype.kind not in "iu":
        raise InvalidInput(f"{what} indices must be integers")
    idx = idx.astype(np.intp)
    if idx.min() < 0 or idx.max() >= bound:
        raise InvalidInput(f"{what} index out of range [0, {bound})")
    return idx


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
        idx = _index_array(idx, self.nrows, "row")
        self.counters.entries_read += idx.size * self.ncols
        return self._rows(idx)

    def col_block(self, idx):
        """Return the dense column block ``A[:, idx]``."""
        idx = _index_array(idx, self.ncols, "column")
        self.counters.entries_read += idx.size * self.nrows
        return self._cols(idx)

    def submatrix(self, rows, cols):
        """Return the dense submatrix ``A[np.ix_(rows, cols)]``."""
        rows = _index_array(rows, self.nrows, "row")
        cols = _index_array(cols, self.ncols, "column")
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


class SparseOracle(MatrixOracle):
    """Oracle over a scipy sparse matrix; blocks densify on extraction."""

    def __init__(self, s):
        if not sp.issparse(s):
            raise InvalidInput("SparseOracle expects a scipy sparse matrix")
        super().__init__(s.shape)
        self._csr = s.tocsr().astype(float)
        self._csc = self._csr.tocsc()

    @functools.cached_property
    def _csc_t(self):
        """``A.T`` as a view on ``_csc``'s arrays, built on first use.

        scipy's checks on building it cost more than a small product,
        and many oracles never take one.
        """
        return self._csc.T

    @property
    def nnz(self):
        return self._csr.nnz

    def _matmat(self, x):
        return self._csr @ x

    def _rmatmat(self, x):
        return self._csc_t @ x

    def _rows(self, idx):
        return self._csr[idx, :].toarray()

    def _cols(self, idx):
        return self._csc[:, idx].toarray()

    def _submatrix(self, rows, cols):
        return self._csr[rows, :][:, cols].toarray()


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
    summed, columns sorted within a row) and the row of each stored
    entry. A block is the low-rank GEMM with only the stored entries
    that fall inside it added in place, so a block costs O(nnz) on top
    of the GEMM, and no dense copy of S's part of it is made.

    Parameters
    ----------
    u, v : ndarray
        Factor matrices of shape (m, r) and (n, r).
    sigma : ndarray
        The r factor weights.
    s : sparse matrix or None
        Optional sparse perturbation of shape (m, n).
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
        """Keep ``s`` (or None) as canonical CSR, its transpose and rows."""
        if s is None:
            self._csr = self._csr_t = self._srow = None
            return
        if not sp.issparse(s):
            raise InvalidInput("sparse term must be a scipy sparse matrix")
        if s.shape != self.shape:
            raise InvalidInput("sparse term shape mismatch")
        csr = s.tocsr(copy=True).astype(float, copy=False)
        csr.sum_duplicates()
        self._csr = csr
        self._csr_t = csr.T  # a view on csr's arrays
        self._srow = np.repeat(np.arange(self.nrows), np.diff(csr.indptr))

    def with_sparse(self, s):
        """Oracle for the same low-rank part plus the sparse term ``s``.

        The new oracle shares this one's factors and their premultiplied
        product, so building it costs only the sparse term's conversion;
        it has its own counters. Blocks and products are bitwise equal
        to those of ``LowRankPlusSparseOracle(u, sigma, v, s)``.
        """
        new = copy.copy(self)
        new.counters = OracleCounters()
        new._set_sparse(s)
        return new

    @property
    def nnz(self):
        return 0 if self._csr is None else self._csr.nnz

    def _matmat(self, x):
        y = self._us @ (self.v.T @ x)
        if self._csr is not None:
            y += self._csr @ x
        return y

    def _rmatmat(self, x):
        y = self.v @ (self._us.T @ x)
        if self._csr is not None:
            y += self._csr_t @ x
        return y

    def _add_sparse(self, out, rows=None, cols=None):
        """Add ``S[rows][:, cols]`` into ``out`` in place; None is every index.

        Only the stored entries inside the block are touched. Each
        (row, column) of the block meets at most one of them, as the CSR
        form is canonical, so the indexed addition never collides, also
        for repeated indices.
        """
        if self._csr is None:
            return out
        ptr, data = self._csr.indptr, self._csr.data
        if rows is None:
            at_row, k = self._srow, np.arange(data.size)
        else:
            at_row, k = _ranges(ptr[rows], ptr[rows + 1] - ptr[rows])
        at_col = self._csr.indices[k]
        if cols is not None:
            # column c sits at argsort(cols)[first[c]:][:hits[c]], and
            # entry k lands at each of its column's positions
            hits = np.bincount(cols, minlength=self.ncols)
            first = np.cumsum(hits) - hits
            t, slot = _ranges(first[at_col], hits[at_col])
            at_row, k = at_row[t], k[t]
            at_col = np.argsort(cols, kind="stable")[slot]
        out[at_row, at_col] += data[k]
        return out

    def _rows(self, idx):
        return self._add_sparse(self._us[idx, :] @ self.v.T, rows=idx)

    def _cols(self, idx):
        return self._add_sparse(self._us @ self.v[idx, :].T, cols=idx)

    def _submatrix(self, rows, cols):
        return self._add_sparse(self._us[rows, :] @ self.v[cols, :].T,
                                rows, cols)


class ParamMatrixSequence:
    """A matrix-valued curve sampled at increasing parameter values.

    Parameters
    ----------
    params : array_like
        Finite, strictly increasing parameter samples t_0 < t_1 < ...
    provider : callable
        Maps a step index j to a fresh :class:`MatrixOracle` for A(t_j).
    shape : tuple
        Common (m, n) of every matrix in the sequence.
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
        self.params = params
        self.provider = provider
        self.shape = (int(shape[0]), int(shape[1]))
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
        if orc.shape != self.shape:
            raise InvalidInput(
                f"provider returned shape {orc.shape} at step {j}, "
                f"expected {self.shape}")
        if self.cache_oracles:
            self._cache[j] = orc
        return orc
