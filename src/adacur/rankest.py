"""Randomized numerical rank estimation through a two-sided sketch.

The estimate is the number of singular values of ``G1 @ A @ G2.T``
above an absolute tolerance, where the normalized sparse sign
embeddings G1 (s rows) and G2 (2s rows) approximately preserve the
leading singular values of A; the estimator works with any subspace
embedding (Meier & Nakatsukasa, LAA 2024), and sparse sign ones are
the cheap choice. The sketch grows by doubling s, appending rows to
the existing sketches, until its smallest singular value falls below
the tolerance, which certifies that the whole tail has been seen.

A sketched side whose row count comes within a factor two of the
dimension it compresses is replaced by exact rows, since near-square
random factors distort small singular values badly while saving
nothing. The loop also stops once both sides are exact, when the count
is exact, and at s = min(m, n), where no count can grow further; every
run therefore ends with one result, the count of sketched singular
values above the tolerance.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, check_finite, check_int
from .sketch import SketchPack, SparseSignEmbedding, derive_seed, row_sketch

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


def estimate_rank(oracle, abs_tol, seed):
    """Estimate the abs_tol-rank of the matrix behind ``oracle``.

    Parameters
    ----------
    oracle : MatrixOracle
        Access to the m-by-n matrix.
    abs_tol : float
        Positive singular-value threshold.
    seed : int
        Seed for both embeddings; fixed seed gives a fixed estimate.

    Returns
    -------
    RankEstimate
        Its rank is the count of sketched singular values above
        ``abs_tol``, at most min(m, n).

    Raises
    ------
    NonFiniteSnapshot
        If the sketch holds a NaN or infinite entry, as it does when A
        holds one.
    """
    m, n = oracle.shape
    if (isinstance(abs_tol, bool) or not isinstance(abs_tol, numbers.Real)
            or not 0 < abs_tol < np.inf):
        raise InvalidInput(
            f"abs_tol must be a positive finite real, got {abs_tol!r}")
    check_int("seed", seed)

    seed_left = derive_seed(seed, 0x1EF7)
    seed_right = derive_seed(seed, 0x516B)
    s_top = min(m, n)
    s = min(_S_INIT, s_top)
    pack = None       # unscaled row sketch, grown by appending
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
            if pack is None:
                emb = SparseSignEmbedding(s, m, seed_left)
                pack = SketchPack(emb, row_sketch(emb, oracle))
                del emb   # later growth must not pin the first draw
            elif pack.embedding.sketch_rows < s:
                pack = pack.grown(oracle, s)
            x = pack.row_sketch / np.sqrt(s)
        if right_exact:
            y = x
        else:
            if g2 is None:
                g2 = SparseSignEmbedding(2 * s, n, seed_right)
            elif g2.sketch_rows < 2 * s:
                g2 = g2.grown(2 * s)
            # G2's dense rows live for this product only, not while the
            # left sketch grows
            y = (x @ g2.dense_rows(0, 2 * s).T) / np.sqrt(2 * s)
        sig = np.linalg.svd(check_finite("rank sketch", y), compute_uv=False)
        if sig[-1] < abs_tol or (left_exact and right_exact) or s >= s_top:
            break
        s = min(2 * s, s_top)
        x = y = None   # the next round's sketch replaces this one's

    return RankEstimate(rank=int(np.count_nonzero(sig > abs_tol)),
                        sketch_size=x.shape[0], row_sketch=x,
                        sketch_singular_values=sig)
