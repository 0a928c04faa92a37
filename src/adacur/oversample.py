"""Row oversampling for a stabler CUR core.

Given selected rows I and columns J, pick p additional rows that most
enlarge the smallest singular value of the row-restricted orthonormal
basis of A[:, J]. The construction projects the unchosen rows of that
basis onto the trailing right singular directions of the chosen block
and takes greedy pivots there. Appending rows never decreases the
smallest singular value of the restricted basis, so oversampling can
only stabilize the core inversion.

The basis comes from one of two places. A caller that picked its rows
with the pivoted QR C.T[:, P] = Q' [R11 R12] of C = A[:, J] passes
the interpolative decomposition (P, T), T = inv(R11) R12, as
``row_id``: with B the m-by-k matrix holding identity rows at the k
pivot rows and the rows of T.T elsewhere, and L L.T = I + T T.T,
Q = B inv(L).T is orthonormal and spans range(C). T is well scaled
by construction, so I + T T.T is well conditioned, and only the few
rows of Q the selection needs are ever formed. Otherwise Q is the
Householder QR factor of C.

Column oversampling is the same operation on the transposed oracle.
"""

import numpy as np
import scipy.linalg as sla

from .errors import InvalidInput, warn_caller
from .linalg import cpqr

__all__ = ["oversample_rows", "oversample_rows_multi"]


class _HouseholderBasis:
    """Q from the economic QR of the column block C (m, k)."""

    def __init__(self, c):
        self.q = sla.qr(c, mode="economic")[0]

    def rows(self, idx):
        """Q[idx]."""
        return self.q[idx, :]

    def project(self, idx, v):
        """Q[idx] @ v."""
        return self.q[idx, :] @ v


class _InterpBasis:
    """Q = B inv(L).T from the row interpolative decomposition of C."""

    def __init__(self, row_id):
        pivots, t = row_id
        k = t.shape[0]
        self.t = t
        self.pos = np.empty_like(pivots)
        self.pos[pivots] = np.arange(pivots.size)
        gram = t @ t.T
        gram[np.diag_indices(k)] += 1.0
        self.lt = sla.cholesky(gram)               # L.T, upper triangular

    def rows(self, idx):
        """Q[idx] = B[idx] inv(L).T."""
        k = self.lt.shape[0]
        pos = self.pos[idx]
        lead = pos < k
        bt = np.zeros((k, idx.size))              # B[idx].T
        bt[pos[lead], np.flatnonzero(lead)] = 1.0
        bt[:, ~lead] = self.t[:, pos[~lead] - k]
        return sla.solve_triangular(self.lt, bt, trans="T").T

    def project(self, idx, v):
        """Q[idx] @ v, as B[idx] @ (inv(L).T v) without forming B[idx]."""
        k = self.lt.shape[0]
        w = sla.solve_triangular(self.lt, v)       # (k, p)
        pos = self.pos[idx]
        lead = pos < k
        out = np.empty((idx.size, w.shape[1]))
        out[lead] = w[pos[lead]]
        out[~lead] = (w.T @ self.t)[:, pos[~lead] - k].T
        return out


def _column_basis(oracle, cols, col_block, row_id):
    """Orthonormal basis of A[:, cols], read once and factored once."""
    if row_id is not None:
        if col_block is not None:
            raise InvalidInput("pass col_block or row_id, not both")
        pivots, t = row_id
        m, k = oracle.nrows, cols.size
        if pivots.shape != (m,) or t.shape != (k, m - k):
            raise InvalidInput("row_id does not match (m, len(cols))")
        return _InterpBasis(row_id)
    c = oracle.col_block(cols) if col_block is None else np.asarray(col_block,
                                                                    dtype=float)
    if c.shape != (oracle.nrows, cols.size):
        raise InvalidInput("col_block shape does not match (m, len(cols))")
    return _HouseholderBasis(c)


def _unchosen(m, rows, cols, p, exclude):
    """Candidate rows for p extras, after checking the request."""
    if p < 0:
        raise InvalidInput(f"p must be non-negative, got {p}")
    if rows.size == 0 or cols.size == 0:
        raise InvalidInput("oversampling requires a non-empty base selection")
    if p > cols.size:
        raise InvalidInput(
            f"p={p} exceeds the selected column count {cols.size}")
    excl = rows if exclude is None else np.union1d(
        rows, np.asarray(exclude, np.intp).reshape(-1))
    unchosen = np.setdiff1d(np.arange(m), excl, assume_unique=False)
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


def oversample_rows(oracle, rows, cols, p, col_block=None, exclude=None,
                    row_id=None):
    """Select p extra row indices, disjoint from ``exclude``.

    Parameters
    ----------
    oracle : MatrixOracle
    rows, cols : array_like
        Current row and column selections. p must not exceed len(cols).
    p : int
        Number of rows to add. p = 0 returns an empty array.
    col_block : ndarray, optional
        ``A[:, cols]`` if the caller already fetched it; avoids a
        second (counted) read of the same block.
    exclude : array_like, optional
        Row indices barred from selection. Defaults to ``rows``.
        Supersets of ``rows`` are allowed.
    row_id : tuple of ndarray, optional
        ``(pivots, t)``, the row interpolative decomposition
        ``C[pivots[k:]] = t.T @ C[pivots[:k]]`` of C = A[:, cols] that
        the caller's row pivoting computed (k = len(cols)). The basis
        is then built from it, with no QR of the column block and no
        read. Exclusive with ``col_block``.

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
    unchosen = _unchosen(oracle.nrows, rows, cols, p, exclude)
    return _pick(_column_basis(oracle, cols, col_block, row_id), rows,
                 unchosen, p)


def oversample_rows_multi(oracle, rows, cols, p, exclude=None, row_id=None):
    """Oversample p rows in rounds of at most len(cols) each.

    The single-shot routine caps p at the column count; when more rows
    are wanted (a buffer larger than the current rank, say) this runs
    repeated rounds, re-basing the exclusion set on what was already
    picked. Returns fewer than p indices only when the matrix runs out
    of candidate rows, with a warning.

    ``exclude`` and ``row_id`` are as for :func:`oversample_rows`.
    The columns stay fixed across rounds, so the basis of A[:, cols] is
    built once per call (from ``row_id``, or from one read and one QR
    of the block) and serves every round.
    """
    m = oracle.nrows
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    cols = np.asarray(cols, dtype=np.intp).reshape(-1)
    excl = rows if exclude is None else np.asarray(exclude, np.intp).reshape(-1)
    picked = np.empty(0, np.intp)
    basis = None
    remaining = int(p)
    while remaining > 0:
        budget = m - excl.size - picked.size
        q = min(remaining, cols.size, budget)
        if q <= 0:
            warn_caller(
                f"oversampling exhausted candidate rows; returning "
                f"{picked.size} of {p}", RuntimeWarning)
            break
        base = np.concatenate([rows, picked])
        unchosen = _unchosen(m, base, cols, q, np.concatenate([excl, picked]))
        if basis is None:
            basis = _column_basis(oracle, cols, None, row_id)
        picked = np.concatenate([picked, _pick(basis, base, unchosen, q)])
        remaining -= q
    return picked

