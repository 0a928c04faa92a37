"""Row oversampling for a stabler CUR core.

Given selected rows I and columns J, pick p additional rows that most
enlarge the smallest singular value of the row-restricted orthonormal
basis of A[:, J]. The construction projects the unchosen rows of that
basis onto the trailing right singular directions of the chosen block
and takes greedy pivots there. Appending rows never decreases the
smallest singular value of the restricted basis, so oversampling can
only stabilize the core inversion.

The basis comes from a row interpolative decomposition (P, T) of
C = A[:, J], ``C[P[k:]] = T C[P[:k]]``, which the caller computes with
``linalg.lu_row_id`` (LU with partial pivoting); nothing here reads the
matrix. With B the m-by-k matrix holding identity rows at the k pivot
rows and the rows of T elsewhere, and L L.T = I + T.T T,
Q = B inv(L).T is orthonormal and spans range(C). |T| stays small, so
I + T.T T is well conditioned, and only the few rows of Q the selection
needs are ever formed.

Column oversampling is the same operation on the row ID of A[I, :].T.
"""

import numpy as np
import scipy.linalg as sla

from .errors import InvalidInput, check_int, warn_caller
from .linalg import cpqr

__all__ = ["oversample_rows", "oversample_rows_multi"]


class _InterpBasis:
    """Q = B inv(L).T from the row interpolative decomposition of C."""

    def __init__(self, row_id):
        pivots, t = (np.asarray(x) for x in row_id)   # t: (m - k, k)
        if (pivots.ndim != 1 or t.ndim != 2 or t.shape[1] < 1
                or t.shape[0] != pivots.size - t.shape[1]):
            raise InvalidInput(
                "row_id must be (pivots, t) with pivots of length m and t "
                f"of shape (m - k, k), k >= 1; got {pivots.shape}, {t.shape}")
        self.m, self.k = pivots.size, t.shape[1]
        self.t = t
        self.pos = np.empty_like(pivots)
        self.pos[pivots] = np.arange(pivots.size)
        gram = t.T @ t
        gram[np.diag_indices(self.k)] += 1.0
        self.lt = sla.cholesky(gram)               # L.T, upper triangular

    def rows(self, idx):
        """Q[idx] = B[idx] inv(L).T."""
        k = self.k
        pos = self.pos[idx]
        lead = pos < k
        b = np.zeros((idx.size, k))                # B[idx]
        b[np.flatnonzero(lead), pos[lead]] = 1.0
        b[~lead] = self.t[pos[~lead] - k]
        return sla.solve_triangular(self.lt, b.T, trans="T").T

    def project(self, idx, v):
        """Q[idx] @ v, as B[idx] @ (inv(L).T v) without forming B[idx]."""
        k = self.k
        w = sla.solve_triangular(self.lt, v)       # (k, p)
        pos = self.pos[idx]
        lead = pos < k
        out = np.empty((idx.size, w.shape[1]))
        out[lead] = w[pos[lead]]
        out[~lead] = (self.t @ w)[pos[~lead] - k]
        return out


def _unchosen(basis, rows, p):
    """Rows outside ``rows``, the candidates for p extras, after checks."""
    if rows.size == 0:
        raise InvalidInput("oversampling requires a non-empty base selection")
    if p > basis.k:
        raise InvalidInput(
            f"p={p} exceeds the selected column count {basis.k}")
    unchosen = np.setdiff1d(np.arange(basis.m), rows)
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


def oversample_rows(row_id, rows, p):
    """Select p extra row indices, disjoint from ``rows``.

    Parameters
    ----------
    row_id : tuple of ndarray
        ``lu_row_id(A[:, cols])`` for the selected columns: ``(pivots,
        t)`` with ``C[pivots[k:]] = t @ C[pivots[:k]]`` for
        C = A[:, cols], pivots of length m and t of shape (m - k, k).
    rows : array_like
        Current row selection, non-empty.
    p : int
        Number of rows to add, at most k. p = 0 returns an empty array.

    Returns
    -------
    ndarray
        p distinct row indices in greedy-importance order.
    """
    p = check_int("p", p, 0)
    if p == 0:
        return np.empty(0, np.intp)
    basis = _InterpBasis(row_id)
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    return _pick(basis, rows, _unchosen(basis, rows, p), p)


def oversample_rows_multi(row_id, rows, p):
    """Oversample p rows in rounds of at most k each.

    The single-shot routine caps p at the column count k; when more
    rows are wanted (a buffer larger than the current rank, say) this
    runs repeated rounds, each choosing outside ``rows`` and what
    earlier rounds picked. Returns fewer than p indices only when the
    matrix runs out of candidate rows, with a warning.

    ``row_id`` is as for :func:`oversample_rows`. The columns stay
    fixed across rounds, so one basis serves every round.
    """
    remaining = check_int("p", p, 0)
    basis = _InterpBasis(row_id)
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    picked = np.empty(0, np.intp)
    while remaining > 0:
        q = min(remaining, basis.k, basis.m - rows.size - picked.size)
        if q <= 0:
            warn_caller(
                f"oversampling exhausted candidate rows; returning "
                f"{picked.size} of {p}", RuntimeWarning)
            break
        base = np.concatenate([rows, picked])
        picked = np.concatenate(
            [picked, _pick(basis, base, _unchosen(basis, base, q), q)])
        remaining -= q
    return picked
