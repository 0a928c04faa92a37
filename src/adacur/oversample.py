"""Row oversampling for a stabler CUR core.

Given selected rows I and columns J, pick p additional rows that most
enlarge the smallest singular value of the row-restricted orthonormal
basis of A[:, J]. The construction projects the unchosen rows of that
basis onto the trailing right singular directions of the chosen block
and takes greedy pivots there. Appending rows never decreases the
smallest singular value of the restricted basis, so oversampling can
only stabilize the core inversion.

Column oversampling is the same operation on the transposed oracle.
"""

import warnings

import numpy as np
import scipy.linalg as sla

from .errors import InvalidInput
from .linalg import cpqr

__all__ = ["oversample_rows", "oversample_rows_multi",
           "oversample_selection"]


def oversample_rows(oracle, rows, cols, p, col_block=None, exclude=None):
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

    Returns
    -------
    ndarray
        p distinct row indices in greedy-importance order.
    """
    m, n = oracle.shape
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    cols = np.asarray(cols, dtype=np.intp).reshape(-1)
    p = int(p)
    if p == 0:
        return np.empty(0, np.intp)
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

    c = oracle.col_block(cols) if col_block is None else np.asarray(col_block,
                                                                    dtype=float)
    if c.shape != (m, cols.size):
        raise InvalidInput("col_block shape does not match (m, len(cols))")
    qc = sla.qr(c, mode="economic")[0]           # (m, k) orthonormal basis
    # Trailing right singular directions of the chosen-row block are the
    # directions the current rows capture worst.
    _, _, vt = np.linalg.svd(qc[rows, :], full_matrices=True)
    v_trail = vt[-p:, :].T                        # (k, p)
    q_rest = qc[unchosen, :] @ v_trail            # (m - |excl|, p)
    piv = cpqr(q_rest.T).pivots[:p]
    return unchosen[piv]


def oversample_rows_multi(oracle, rows, cols, p, col_block=None,
                          exclude=None):
    """Oversample p rows in rounds of at most len(cols) each.

    The single-shot routine caps p at the column count; when more rows
    are wanted (a buffer larger than the current rank, say) this runs
    repeated rounds, re-basing the exclusion set on what was already
    picked. Returns fewer than p indices only when the matrix runs out
    of candidate rows, with a warning.

    ``col_block`` is ``A[:, cols]`` if the caller already fetched it.
    The columns stay fixed across rounds, so every round uses it and
    none reads the block again; when omitted, each round reads it.
    """
    m = oracle.shape[0]
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    cols = np.asarray(cols, dtype=np.intp).reshape(-1)
    excl = rows if exclude is None else np.asarray(exclude, np.intp).reshape(-1)
    picked = np.empty(0, np.intp)
    remaining = int(p)
    while remaining > 0:
        budget = m - excl.size - picked.size
        q = min(remaining, cols.size, budget)
        if q <= 0:
            warnings.warn(
                f"oversampling exhausted candidate rows; returning "
                f"{picked.size} of {p}", RuntimeWarning, stacklevel=2)
            break
        base = np.concatenate([rows, picked])
        got = oversample_rows(oracle, base, cols, q, col_block=col_block,
                              exclude=np.concatenate([excl, picked]))
        picked = np.concatenate([picked, got])
        remaining -= q
    return picked


def oversample_selection(oracle, sel, p):
    """Extra rows for a square index selection (convenience wrapper).

    Equivalent to ``oversample_rows(oracle, sel.rows, sel.cols, p)``
    with the selection's extra rows excluded as well.
    """
    return oversample_rows(oracle, sel.rows, sel.cols, p,
                           exclude=sel.all_rows)
