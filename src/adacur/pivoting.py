"""Randomized row/column pivot selection.

Column pivots come from LU with partial pivoting (LUPP) of a short
Gaussian row sketch of the matrix, transposed; row pivots from LUPP of
the selected columns, whose factors also give those columns' row
interpolative decomposition. LUPP on a sketch picks pivots of quality
comparable to column-pivoted QR's at a fraction of the cost (Dong and
Martinsson, "Simpler is better", Adv. Comput. Math. 2023). The fused
variant first runs the rank estimator and reuses its accumulated
sketch, so the matvecs spent on rank detection double as the pivoting
sketch.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, check_indices, check_int
# cpqr is no longer called here; the name stays because bench/tracing.py
# installs its cpqr wrapper on pivoting.cpqr and requires the attribute.
from .linalg import cpqr, lu_pivots, lu_row_id  # noqa: F401
from .rankest import estimate_rank
from .sketch import GaussianEmbedding, derive_seed, row_sketch

__all__ = ["IndexSelection", "rand_pivot", "rand_pivot_rankest"]


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
        self.rows = check_indices("rows", self.rows)
        self.cols = check_indices("cols", self.cols)
        self.extra_rows = check_indices("extra_rows", self.extra_rows)
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

    Column pivots are the first r pivots of LU with partial pivoting of
    the transposed row sketch ``(G @ A).T``; those depend on its first
    r rows only. Row pivots are the first r pivots of LU with partial
    pivoting of the selected columns ``A[:, cols]``.

    Parameters
    ----------
    oracle : MatrixOracle
    r : int
        Number of pivots, 0 <= r <= min(m, n).
    seed : int
        Used only when sketch rows have to be drawn.
    presketch : ndarray, optional
        An existing row sketch of A, shape (s, n) with s >= r. Only its
        first r rows are read. With no presketch r Gaussian rows are
        drawn, one adjoint matvec each.
    """
    return _rand_pivot_block(oracle, r, seed, presketch)[0]


def _rand_pivot_block(oracle, r, seed, presketch=None):
    """:func:`rand_pivot` returning what :func:`rand_pivot_rankest` does."""
    m, n = oracle.shape
    r = check_int("r", r, 0)
    if r > min(m, n):
        raise InvalidInput(f"r must lie in [0, {min(m, n)}], got {r}")
    if r == 0:
        return IndexSelection.empty(), None, None
    if presketch is None:
        emb = GaussianEmbedding(r, m, derive_seed(seed, 0xAD01))
        presketch = row_sketch(emb, oracle)
    x = np.asarray(presketch, dtype=float)
    if x.ndim != 2 or x.shape[1] != n:
        raise InvalidInput("presketch must have shape (s, n)")
    if x.shape[0] < r:
        raise InvalidInput(
            f"presketch has {x.shape[0]} rows, fewer than r={r}")
    # copies, so a selection does not keep the LU permutations alive
    cols = lu_pivots(x[:r].T)[:r].copy()
    c = oracle.col_block(cols)
    row_id = lu_row_id(c)
    return IndexSelection(rows=row_id.perm[:r].copy(), cols=cols), c, row_id


def rand_pivot_rankest(oracle, abs_tol, seed):
    """Rank-adaptive pivot selection fused with rank estimation.

    Runs :func:`estimate_rank` and feeds its accumulated row sketch
    straight into :func:`rand_pivot`, so no second sketch of A is
    drawn.

    Returns ``(selection, col_block, row_id)``: the column block
    ``A[:, cols]`` read for the row pivots and its row interpolative
    decomposition ``lu_row_id(col_block)``, a :class:`linalg.RowID`
    whose pivots those are.
    From-scratch steps pass the block on to factor extraction and
    ``row_id`` to oversampling, so each step reads its column block
    once and factors it once. A zero-rank estimate yields an empty
    selection and None for both.
    """
    est = estimate_rank(oracle, abs_tol, derive_seed(seed, 0x11E5))
    return _rand_pivot_block(oracle, est.rank, derive_seed(seed, 0x9B1D),
                             presketch=est.row_sketch)
