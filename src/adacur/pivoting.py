"""Randomized row/column pivot selection.

Column pivots come from a greedy pivoted QR of a short Gaussian row
sketch of the matrix; row pivots from a pivoted QR of the transposed
selected columns. The fused variant first runs the rank estimator and
reuses its accumulated sketch, so the matvecs spent on rank detection
double as the pivoting sketch.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import InvalidInput, RankTolNotResolved, warn_caller
from .linalg import cpqr
from .rankest import estimate_rank
from .sketch import GaussianEmbedding, derive_seed, row_sketch

__all__ = ["IndexSelection", "rand_pivot", "rand_pivot_rankest"]


def _as_index(arr):
    return np.asarray(arr, dtype=np.intp).reshape(-1)


@dataclass
class IndexSelection:
    """Selected row and column indices, most important first.

    ``rows``/``cols`` are the primary selection; ``extra_rows`` holds
    oversampled rows appended for stability. All three are 0-based,
    duplicate-free, and ``extra_rows`` is disjoint from ``rows``.
    """

    rows: np.ndarray
    cols: np.ndarray
    extra_rows: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))

    def __post_init__(self):
        self.rows = _as_index(self.rows)
        self.cols = _as_index(self.cols)
        self.extra_rows = _as_index(self.extra_rows)
        for name, idx in (("rows", self.rows), ("cols", self.cols),
                          ("extra_rows", self.extra_rows)):
            if idx.size and np.unique(idx).size != idx.size:
                raise InvalidInput(f"duplicate indices in {name}")
        if np.intersect1d(self.rows, self.extra_rows).size:
            raise InvalidInput("extra_rows overlaps rows")

    @classmethod
    def empty(cls):
        return cls(rows=np.empty(0, np.intp), cols=np.empty(0, np.intp))

    @property
    def all_rows(self):
        """rows followed by extra_rows."""
        return np.concatenate([self.rows, self.extra_rows])

    @property
    def is_empty(self):
        return self.rows.size == 0 and self.cols.size == 0


def rand_pivot(oracle, r, seed, presketch=None):
    """Select r column and r row pivots from a Gaussian sketch.

    Column pivots are the first r pivots of a greedy pivoted QR of the
    row sketch ``G @ A``; row pivots are the first r pivots of a
    pivoted QR of the selected columns, transposed.

    Parameters
    ----------
    oracle : MatrixOracle
    r : int
        Number of pivots, 0 <= r <= min(m, n).
    seed : int
        Used only when a sketch has to be drawn (or padded).
    presketch : ndarray, optional
        An existing row sketch of A with at least one row. When given,
        no new sketch of A is computed unless it has fewer than r rows,
        in which case freshly drawn rows pad it.
    """
    return _rand_pivot_block(oracle, r, seed, presketch)[0]


def _rand_pivot_block(oracle, r, seed, presketch=None):
    """:func:`rand_pivot`, also returning ``A[:, cols]`` and its row ID.

    Returns ``(selection, col_block, row_id)``. The block is the one
    read for the row pivots, and ``row_id`` is the interpolative
    decomposition (:func:`_row_id`) of the ``cpqr(col_block.T)`` those
    pivots come from. Both are handed on so that from-scratch callers
    neither read the block again nor factor it again for oversampling;
    both are None when r is 0.
    """
    m, n = oracle.shape
    r = int(r)
    if r < 0 or r > min(m, n):
        raise InvalidInput(f"r must lie in [0, {min(m, n)}], got {r}")
    if r == 0:
        return IndexSelection.empty(), None, None
    if presketch is None:
        s = min(2 * r, n)
        emb = GaussianEmbedding(s, m, derive_seed(seed, 0xF2E5),
                                scale=1.0 / np.sqrt(s))
        x = row_sketch(emb, oracle)
    else:
        x = np.asarray(presketch, dtype=float)
        if x.ndim != 2 or x.shape[1] != n:
            raise InvalidInput("presketch must have shape (s, n)")
        if x.shape[0] < r:
            pad = r - x.shape[0]
            emb = GaussianEmbedding(pad, m, derive_seed(seed, 0xAD01),
                                    scale=1.0 / np.sqrt(pad))
            x = np.vstack([x, row_sketch(emb, oracle)])
    cols = cpqr(x).pivots[:r]
    c = oracle.col_block(cols)
    row_qr = cpqr(c.T)
    rows = row_qr.pivots[:r]
    return IndexSelection(rows=rows, cols=cols), c, _row_id(row_qr)


def _row_id(qr):
    """Row interpolative decomposition of C from ``qr = cpqr(C.T)``.

    Returns ``(pivots, t)`` with ``C[pivots[k:]] = t.T @ C[pivots[:k]]``
    for C of shape (m, k), k <= m, and ``t = inv(R11) @ R12`` (k, m - k),
    exact when R11 is nonsingular. dgeqp3 stops at the first exactly
    zero pivot: R's rows vanish from there on, and t keeps the leading
    nonsingular part, with zero rows below it. Only t is allocated, so
    a caller that drops ``qr`` holds one (k, m) array, not two.
    """
    r = qr.r
    k = r.shape[0]
    zero = np.flatnonzero(np.diag(r) == 0.0)
    lead = zero[0] if zero.size else k
    # cpqr checked C for non-finite entries; the scan of the strided R12
    # view would cost more than the solve at small k
    t = sla.solve_triangular(r[:lead, :lead], r[:lead, k:],
                             check_finite=False)
    if lead < k:
        t = np.vstack([t, np.zeros((k - lead, t.shape[1]))])
    return qr.pivots, t


def rand_pivot_rankest(oracle, abs_tol, seed):
    """Rank-adaptive pivot selection fused with rank estimation.

    Runs :func:`estimate_rank` and feeds its accumulated row sketch
    straight into :func:`rand_pivot`, so no second sketch of A is
    drawn. If the rank estimator cannot resolve the tolerance within
    its sketch cap, a warning is issued and the partial estimate is
    used. A zero-rank estimate yields an empty selection.
    """
    return _rand_pivot_rankest_block(oracle, abs_tol, seed)[0]


def _rand_pivot_rankest_block(oracle, abs_tol, seed):
    """:func:`rand_pivot_rankest`, also returning ``A[:, cols]`` and its row ID.

    Returns ``(selection, col_block, row_id)`` as
    :func:`_rand_pivot_block` does; both are None for an empty
    selection. From-scratch steps pass the block on to factor
    extraction and ``row_id`` to oversampling, so each step reads its
    column block once and factors it once.
    """
    try:
        est = estimate_rank(oracle, abs_tol, derive_seed(seed, 0x11E5))
    except RankTolNotResolved as exc:
        warn_caller(
            f"rank tolerance unresolved, proceeding with rank "
            f"{exc.estimate.rank}: {exc}", RuntimeWarning)
        est = exc.estimate
    if est.rank == 0:
        return IndexSelection.empty(), None, None
    return _rand_pivot_block(oracle, est.rank, derive_seed(seed, 0x9B1D),
                             presketch=est.row_sketch)
