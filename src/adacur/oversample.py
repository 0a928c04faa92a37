"""Row oversampling for a stabler CUR core.

Given selected rows I and columns J, pick p additional rows that most
enlarge the smallest singular value of the row-restricted orthonormal
basis of A[:, J]. The construction projects the unchosen rows of that
basis onto the trailing right singular directions of the chosen block
and takes greedy pivots there. Appending rows never decreases the
smallest singular value of the restricted basis, so oversampling can
only stabilize the core inversion.

The basis comes from a row interpolative decomposition (P, T) of
C = A[:, J], ``C[P[k:]] = T C[P[:k]]``, from LU with partial pivoting
(``linalg.lu_row_id``). A caller whose row pivoting computed it passes
it as ``row_id``; otherwise the block is read and factored here. With
B the m-by-k matrix holding identity rows at the k pivot rows and the
rows of T elsewhere, and L L.T = I + T.T T, Q = B inv(L).T is
orthonormal and spans range(C). |T| stays small, so I + T.T T is well
conditioned, and only the few rows of Q the selection needs are ever
formed.

Column oversampling is the same operation on the transposed oracle.
"""

import numpy as np
import scipy.linalg as sla

from .errors import InvalidInput, warn_caller
from .linalg import cpqr, lu_row_id

__all__ = ["oversample_rows", "oversample_rows_multi"]


class _InterpBasis:
    """Q = B inv(L).T from the row interpolative decomposition of C."""

    def __init__(self, row_id):
        pivots, t = row_id                         # t: (m - k, k)
        k = t.shape[1]
        self.t = t
        self.pos = np.empty_like(pivots)
        self.pos[pivots] = np.arange(pivots.size)
        gram = t.T @ t
        gram[np.diag_indices(k)] += 1.0
        self.lt = sla.cholesky(gram)               # L.T, upper triangular

    def rows(self, idx):
        """Q[idx] = B[idx] inv(L).T."""
        k = self.lt.shape[0]
        pos = self.pos[idx]
        lead = pos < k
        b = np.zeros((idx.size, k))                # B[idx]
        b[np.flatnonzero(lead), pos[lead]] = 1.0
        b[~lead] = self.t[pos[~lead] - k]
        return sla.solve_triangular(self.lt, b.T, trans="T").T

    def project(self, idx, v):
        """Q[idx] @ v, as B[idx] @ (inv(L).T v) without forming B[idx]."""
        k = self.lt.shape[0]
        w = sla.solve_triangular(self.lt, v)       # (k, p)
        pos = self.pos[idx]
        lead = pos < k
        out = np.empty((idx.size, w.shape[1]))
        out[lead] = w[pos[lead]]
        out[~lead] = (self.t @ w)[pos[~lead] - k]
        return out


def _column_basis(oracle, cols, row_id):
    """Orthonormal basis of A[:, cols], from ``row_id`` or one read."""
    m, k = oracle.nrows, cols.size
    if row_id is None:
        row_id = lu_row_id(oracle.col_block(cols))
    pivots, t = row_id
    if pivots.shape != (m,) or t.shape != (m - k, k):
        raise InvalidInput("row_id does not match (m, len(cols))")
    return _InterpBasis(row_id)


def _unchosen(m, rows, cols, p):
    """Rows outside ``rows``, the candidates for p extras, after checks."""
    if p < 0:
        raise InvalidInput(f"p must be non-negative, got {p}")
    if rows.size == 0 or cols.size == 0:
        raise InvalidInput("oversampling requires a non-empty base selection")
    if p > cols.size:
        raise InvalidInput(
            f"p={p} exceeds the selected column count {cols.size}")
    unchosen = np.setdiff1d(np.arange(m), rows)
    if p > unchosen.size:
        raise InvalidInput(
            f"p={p} exceeds the {unchosen.size} rows left to choose from")
    return unchosen


def _pick(basis, rows, unchosen, p):
    """Greedy pivots of the unchosen basis rows on the trailing directions."""
    # Trailing right singular directions of the chosen-row block are the
    # directions the current rows capture worst.
    _, _, vt = np.linalg.svd(basis.rows(rows), full_matrices=True)
    v_trail = vt[-p:, :].T                        # (k, p)
    q_rest = basis.project(unchosen, v_trail)     # (len(unchosen), p)
    piv = cpqr(q_rest.T).pivots[:p]
    return unchosen[piv]


def oversample_rows(oracle, rows, cols, p, row_id=None):
    """Select p extra row indices, disjoint from ``rows``.

    Parameters
    ----------
    oracle : MatrixOracle
    rows, cols : array_like
        Current row and column selections, len(cols) <= m. p must not
        exceed len(cols).
    p : int
        Number of rows to add. p = 0 returns an empty array.
    row_id : tuple of ndarray, optional
        ``lu_row_id(A[:, cols])``, ``(pivots, t)`` with
        ``C[pivots[k:]] = t @ C[pivots[:k]]`` for C = A[:, cols] and
        k = len(cols), if the caller already has it. The basis is then
        built from it with no read of the column block; without it the
        block is read once and factored.

    Returns
    -------
    ndarray
        p distinct row indices in greedy-importance order.
    """
    p = int(p)
    if p == 0:
        return np.empty(0, np.intp)
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    cols = np.asarray(cols, dtype=np.intp).reshape(-1)
    unchosen = _unchosen(oracle.nrows, rows, cols, p)
    return _pick(_column_basis(oracle, cols, row_id), rows, unchosen, p)


def oversample_rows_multi(oracle, rows, cols, p, row_id=None):
    """Oversample p rows in rounds of at most len(cols) each.

    The single-shot routine caps p at the column count; when more rows
    are wanted (a buffer larger than the current rank, say) this runs
    repeated rounds, each choosing outside ``rows`` and what earlier
    rounds picked. Returns fewer than p indices only when the matrix
    runs out of candidate rows, with a warning.

    ``row_id`` is as for :func:`oversample_rows`. The columns stay
    fixed across rounds, so the basis of A[:, cols] is built once per
    call (from ``row_id``, or from one read and one LU of the block)
    and serves every round.
    """
    m = oracle.nrows
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    cols = np.asarray(cols, dtype=np.intp).reshape(-1)
    picked = np.empty(0, np.intp)
    basis = None
    remaining = int(p)
    while remaining > 0:
        budget = m - rows.size - picked.size
        q = min(remaining, cols.size, budget)
        if q <= 0:
            warn_caller(
                f"oversampling exhausted candidate rows; returning "
                f"{picked.size} of {p}", RuntimeWarning)
            break
        base = np.concatenate([rows, picked])
        unchosen = _unchosen(m, base, cols, q)
        if basis is None:
            basis = _column_basis(oracle, cols, row_id)
        picked = np.concatenate([picked, _pick(basis, base, unchosen, q)])
        remaining -= q
    return picked

