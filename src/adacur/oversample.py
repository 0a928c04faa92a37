"""Row oversampling for a stabler CUR core.

Given selected rows I and columns J, pick p additional rows that most
enlarge the smallest singular value of the row-restricted orthonormal
basis of A[:, J]. The construction projects the unchosen rows of that
basis onto the trailing right singular directions of the chosen block
and takes greedy pivots there. Appending rows never decreases the
smallest singular value of the restricted basis, so oversampling can
only stabilize the core inversion.

The basis comes from a row interpolative decomposition of
C = A[:, J], ``C[P[k:]] = T C[P[:k]]``, which the caller computes with
``linalg.lu_row_id`` (LU with partial pivoting, ``C[P] = [L1; L2] U``,
so T = L2 inv(L1)); nothing here reads the matrix. With B the m-by-k
matrix holding identity rows at the k pivot rows and the rows of T
elsewhere, and L L.T = I + T.T T, Q = B inv(L).T is orthonormal and
spans range(C). |T| stays small, so I + T.T T is well conditioned. T
itself is never formed: the Gram comes from L2.T L2 and two k-by-k
solves with L1, a projection applies inv(L1) to its k-by-p right-hand
side before products with ranges of L2's rows, each written straight
into the rows it asks for, and only the few rows of Q the selection
needs are formed. The greedy pick factors that projection in place.

Column oversampling is the same operation on the row ID of A[I, :].T.
"""

import numpy as np
from scipy.linalg import blas, lapack

from .errors import InvalidInput, check_indices, check_int
from .linalg import RowID, _cpqr

__all__ = ["oversample_rows"]


def cpqr(a):
    """:func:`linalg.cpqr` of ``a``, factored in a's own memory when it
    is a writeable Fortran-contiguous float array, whose entries are
    then lost. Its one caller, :func:`_pick`, hands it a projection
    made for the pick alone; bench/tracing.py times this name as
    ``linalg.cpqr``."""
    return _cpqr(a, overwrite=True)


# Entries of one range's product in a projection, 32 kB.
_SPAN = 1 << 12


class _InterpBasis:
    """Q = B inv(L).T from the row interpolative decomposition of C."""

    def __init__(self, row_id):
        if not isinstance(row_id, RowID):
            raise InvalidInput("row_id must be a linalg.RowID, got "
                               f"{type(row_id).__name__}")
        pivots, lu = row_id.perm, row_id.lu
        k = lu.shape[1]
        l1, l2 = np.array(lu[:k], order="F"), lu[k:]
        self.m, self.k = pivots.size, k
        self.l1, self.l2 = l1, l2
        self.pos = np.empty_like(pivots)
        self.pos[pivots] = np.arange(pivots.size)
        # I + T.T T = I + inv(L1).T (L2.T L2) inv(L1); L1 is unit lower
        gram = blas.dtrsm(1.0, l1, l2.T @ l2, side=1, lower=1, diag=1)
        gram = blas.dtrsm(1.0, l1, gram, lower=1, trans_a=1, diag=1)
        gram[np.diag_indices(k)] += 1.0
        self.lt, info = lapack.dpotrf(gram)     # L.T, upper triangular
        if info or not np.isfinite(self.lt).all():
            raise InvalidInput("row_id gives an I + t.T t that overflows")

    def rows(self, idx):
        """Q[idx] = B[idx] inv(L).T, T's rows formed from L2's by inv(L1)."""
        k = self.k
        pos = self.pos[idx]
        lead = pos < k
        b = np.zeros((idx.size, k))                # B[idx]
        b[np.flatnonzero(lead), pos[lead]] = 1.0
        b[~lead] = blas.dtrsm(1.0, self.l1, self.l2[pos[~lead] - k],
                              side=1, lower=1, diag=1)
        return blas.dtrsm(1.0, self.lt, b, side=1)

    def project(self, idx, v):
        """Q[idx] @ v for distinct ``idx``, as B[idx] @ (inv(L).T v).

        B's rows are taken in pivot order, L2's a range of rows at a
        time into one buffer, and each range is scattered straight into
        the rows of the result that idx gives it, its other rows into a
        spare last row; so neither B @ (inv(L).T v) nor B[idx] is
        formed. The result is a C-ordered view: its transpose is the
        Fortran-ordered operand dgeqp3 factors in place.
        """
        k, m = self.k, self.m
        w = blas.dtrsm(1.0, self.lt, v)            # (k, p)
        z = blas.dtrsm(1.0, self.l1, w, lower=1, diag=1)
        out = np.empty((idx.size + 1, w.shape[1]))
        at = np.full(m, idx.size, np.intp)         # pivot position -> row
        at[self.pos[idx]] = np.arange(idx.size)
        out[at[:k]] = w
        # one column is a GEMV, whose rounding depends on how BLAS
        # threads split its rows: it is taken whole, no larger than the
        # result. A short tail joins the range before it, as a one-row
        # product would take GEMV too
        p = w.shape[1]
        span = max(_SPAN // p, 2) if p > 1 else m
        buf = np.empty((min(span + span // 2, m - k), p))
        lo = k
        while lo < m:
            hi = m if m - lo < span + span // 2 else lo + span
            part = buf[:hi - lo]
            np.matmul(self.l2[lo - k:hi - k], z, out=part)
            out[at[lo:hi]] = part
            lo = hi
        return out[:-1]


def _unchosen(m, rows):
    """Mask of the m rows outside ``rows``, which must not repeat."""
    free = np.ones(m, dtype=bool)
    free[rows] = False
    if np.count_nonzero(free) != m - rows.size:
        raise InvalidInput("rows must not repeat")
    return free


def _pick(basis, rows, unchosen, p):
    """Greedy pivots of the unchosen basis rows on the trailing directions."""
    # Trailing right singular directions of the chosen-row block are the
    # directions the current rows capture worst.
    _, _, vt = np.linalg.svd(basis.rows(rows), full_matrices=True)
    v_trail = vt[-p:, :].T                        # (k, p)
    q_rest = basis.project(unchosen, v_trail)     # (len(unchosen), p)
    piv = cpqr(q_rest.T).pivots[:p]               # q_rest factored in place
    return unchosen[piv]


def oversample_rows(row_id, rows, p):
    """Select p extra row indices, disjoint from ``rows``.

    A k-column basis has k trailing directions, so one pick adds at
    most k = |cols| rows. A larger p runs rounds of at most k picks,
    each choosing outside ``rows`` and what earlier rounds picked. The
    columns stay fixed, so one basis serves every round.

    Parameters
    ----------
    row_id : RowID
        ``lu_row_id(A[:, cols])`` for the selected columns.
    rows : array_like
        Current row selection: distinct indices in [0, m), non-empty.
    p : int
        Number of rows to add, at most the m - |rows| rows left.
        p = 0 returns an empty array.

    Returns
    -------
    ndarray
        p distinct row indices, each round's in greedy-importance order.
    """
    p = check_int("p", p, 0)
    basis = _InterpBasis(row_id)
    rows = check_indices("rows", rows, basis.m)
    free = _unchosen(basis.m, rows)
    if rows.size == 0:
        raise InvalidInput("oversampling requires a non-empty base selection")
    left = basis.m - rows.size
    if p > left:
        raise InvalidInput(f"p={p} exceeds the {left} rows left to choose "
                           "from")
    picked = np.empty(0, np.intp)
    while picked.size < p:
        got = _pick(basis, np.concatenate([rows, picked]),
                    np.flatnonzero(free), min(p - picked.size, basis.k))
        free[got] = False
        picked = np.concatenate([picked, got])
    return picked


# The name the drivers call, and bench/tracing.py wraps there and in
# fast; not exported, and it goes with the tracer's imports.
oversample_rows_multi = oversample_rows
