"""Randomized numerical rank estimation through a two-sided sketch.

The estimate is the number of singular values of ``G1 @ A @ G2.T``
above an absolute tolerance, where the normalized Gaussian embeddings
G1 (s rows) and G2 (2s rows) approximately preserve the leading
singular values of A. The sketch grows by doubling s, appending rows
to the existing sketches, until its smallest singular value falls
below the tolerance, which certifies that the whole tail has been
seen.

Two practical rules round out the corner cases. A Gaussian side whose
row count comes within a factor two of the dimension it compresses is
replaced by exact rows, since near-square Gaussian factors distort
small singular values badly while saving nothing. And if the cap
``s_max`` is hit while every sketched singular value still exceeds the
tolerance, the estimate is unresolved: :class:`RankTolNotResolved` is
raised carrying the partial estimate, unless both sides were exact and
the (now exactly known) count fits within the cap.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, RankTolNotResolved
from .sketch import GaussianEmbedding, derive_seed, row_sketch

__all__ = ["RankEstimate", "estimate_rank"]


@dataclass
class RankEstimate:
    """Result of :func:`estimate_rank`.

    ``row_sketch`` is the accumulated left sketch of A (scaled, or the
    matrix itself when the exact path triggered); callers reuse it for
    pivoting so the matvecs spent here are not spent twice.
    """

    rank: int
    sketch_size: int
    row_sketch: np.ndarray
    sketch_singular_values: np.ndarray

    def __post_init__(self):
        if self.rank > self.sketch_size:
            raise InvalidInput("estimated rank exceeds sketch size")


# Sketch size of the first round; each further round doubles it.
_S_INIT = 8


def estimate_rank(oracle, abs_tol, seed, s_max=None):
    """Estimate the abs_tol-rank of the matrix behind ``oracle``.

    Parameters
    ----------
    oracle : MatrixOracle
        Access to the m-by-n matrix.
    abs_tol : float
        Positive singular-value threshold.
    seed : int
        Seed for both embeddings; fixed seed gives a fixed estimate.
    s_max : int, optional
        Sketch-size cap, at most min(m, n). Defaults to min(m, n).

    Returns
    -------
    RankEstimate

    Raises
    ------
    RankTolNotResolved
        If s reaches ``s_max`` with the smallest sketched singular
        value still at or above ``abs_tol``. The exception carries the
        partial estimate (rank capped at s_max).
    """
    m, n = oracle.shape
    if not np.isfinite(abs_tol) or abs_tol <= 0:
        raise InvalidInput(f"abs_tol must be positive and finite, got {abs_tol}")
    if s_max is None:
        s_max = min(m, n)
    if not 1 <= s_max <= min(m, n):
        raise InvalidInput(f"s_max must lie in [1, {min(m, n)}]")

    seed_left = derive_seed(seed, 0x1EF7)
    seed_right = derive_seed(seed, 0x516B)
    s = min(_S_INIT, s_max)
    emb = None
    x_raw = None      # unscaled Gaussian row sketch, grown by appending
    a_rows = None     # cached exact rows once the left side saturates
    g2 = None         # right embedding, grown by appending

    while True:
        left_exact = 2 * s >= m
        right_exact = 4 * s >= n
        if left_exact:
            if a_rows is None:
                a_rows = oracle.row_block(np.arange(m))
            x = a_rows
        else:
            if emb is None:
                emb = GaussianEmbedding(s, m, seed_left, scale=1.0)
                x_raw = row_sketch(emb, oracle)
            elif emb.sketch_rows < s:
                grown = emb.grown(s)
                extra = grown.raw[emb.sketch_rows:]
                x_raw = np.vstack([x_raw, oracle.rmatmat(extra.T).T])
                emb = grown
            x = x_raw / np.sqrt(s)
        if right_exact:
            y = x
        else:
            if g2 is None:
                g2 = GaussianEmbedding(2 * s, n, seed_right, scale=1.0)
            elif g2.sketch_rows < 2 * s:
                g2 = g2.grown(2 * s)
            y = x @ (g2.raw.T / np.sqrt(2 * s))
        sig = np.linalg.svd(y, compute_uv=False)
        smin = sig[-1]
        if smin < abs_tol or s >= s_max:
            break
        s = min(2 * s, s_max)

    count = int(np.count_nonzero(sig > abs_tol))
    resolved = smin < abs_tol or (left_exact and right_exact and count <= s_max)
    rank = count if resolved else min(count, s_max)
    est = RankEstimate(rank=rank, sketch_size=x.shape[0], row_sketch=x,
                       sketch_singular_values=sig)
    if not resolved:
        raise RankTolNotResolved(
            f"sketch cap s_max={s_max} reached with smallest sketched "
            f"singular value {smin:.3e} >= abs_tol={abs_tol:.3e}", est)
    return est
