"""Randomized relative-error estimation for CUR approximations.

The estimator sketches both the matrix and the residual with the same
raw Gaussian embedding and returns the ratio of their Frobenius norms.
The 1/sqrt(s) normalization cancels in the ratio, so raw unit-variance
entries are used throughout. Concentration of ``|G M|_F`` around
``sqrt(s) |M|_F`` is what makes a handful of sketch rows enough; the
failure probability decays exponentially in s times the stable rank of
M, worst for residuals that are nearly rank one.

Re-estimating after an index update reuses the matrix sketch: only the
residual sketch is recomputed, costing block reads but no matvecs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ZeroMatrixSketch
from .linalg import stable_cur_eval
from .sketch import GaussianEmbedding, SketchPack, derive_seed, row_sketch

__all__ = ["ErrorEstimate", "estimate_cur_error", "cur_operator_from_oracle"]


@dataclass
class ErrorEstimate:
    """Estimated relative Frobenius error plus the reusable sketch."""

    rel_error: float
    pack: SketchPack


def cur_operator_from_oracle(oracle, sel):
    """Fetch CUR blocks for ``sel`` and return the factored operator.

    The core block is sliced out of the fetched column block, so the
    oracle is charged for C and R only.
    """
    m, n = oracle.shape
    if sel.is_empty:
        return stable_cur_eval(np.zeros((m, 0)), np.zeros((0, 0)),
                               np.zeros((0, n)))
    c = oracle.col_block(sel.cols)
    all_rows = sel.all_rows
    r = oracle.row_block(all_rows)
    u = c[all_rows, :]
    return stable_cur_eval(c, u, r)


def estimate_cur_error(oracle, sel=None, s=5, seed=0, reuse=None,
                       operator=None):
    """Estimate ``|A - CUR|_F / |A|_F`` from an s-row Gaussian sketch.

    Parameters
    ----------
    oracle : MatrixOracle
    sel : IndexSelection, optional
        Indices defining the CUR approximation. May be omitted when
        ``operator`` is given.
    s : int
        Sketch rows. Ignored when ``reuse`` supplies a sketch.
    seed : int
        Embedding seed (fresh draws only).
    reuse : SketchPack, optional
        A pack from a previous estimate against the same matrix; the
        matrix sketch is reused and only the residual is recomputed,
        costing no matvecs.
    operator : LowRankOperator, optional
        Factored CUR product, if the caller already built it. Avoids
        re-reading the C/R blocks from the oracle.

    Returns
    -------
    ErrorEstimate

    Raises
    ------
    ZeroMatrixSketch
        If the matrix sketch is identically zero, which leaves the
        relative error undefined.
    """
    m, n = oracle.shape
    if reuse is not None:
        emb = reuse.embedding
        if emb.dim != m:
            raise InvalidInput("reused sketch does not match oracle rows")
        xs = reuse.row_sketch
    else:
        if s < 1:
            raise InvalidInput(f"sketch size s must be >= 1, got {s}")
        emb = GaussianEmbedding(int(s), m, derive_seed(seed, 0xE557),
                                scale=1.0)
        xs = row_sketch(emb, oracle)
    xs_norm = np.linalg.norm(xs)
    if xs_norm == 0.0:
        raise ZeroMatrixSketch("matrix sketch is identically zero")
    if operator is None:
        if sel is None:
            raise InvalidInput("either sel or operator must be given")
        operator = cur_operator_from_oracle(oracle, sel)
    es = xs - (emb.raw @ operator.left) @ operator.right
    rel = float(np.linalg.norm(es) / xs_norm)
    return ErrorEstimate(rel_error=rel,
                         pack=SketchPack(embedding=emb, row_sketch=xs,
                                         residual_sketch=es))
