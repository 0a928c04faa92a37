"""Randomized relative-error estimation for CUR approximations.

The estimator sketches both the matrix and the residual with the same
raw Gaussian embedding and returns the ratio of their Frobenius norms.
The 1/sqrt(s) normalization cancels in the ratio, so raw unit-variance
entries are used throughout. Concentration of ``|G M|_F`` around
``sqrt(s) |M|_F`` is what makes a handful of sketch rows enough; the
failure probability decays exponentially in s times the stable rank of
M, worst for residuals that are nearly rank one.

The residual is never formed, nor the m x k left factor of the CUR
product: C = A[:, J] gives G C = X[:, J] for the matrix sketch X = G A,
so with U = R[:, J]

    G (A - C pinv(U) R) = X - (X[:, J] pinv(U)) R,

which needs X and the row block R only. X[:, J] pinv(U) comes from
:func:`~adacur.linalg.times_pinv`: a pivoted QR of U and a triangular
inverse when a norm bound on that inverse proves that the truncated
SVD's drop rule would drop nothing, and that truncated SVD otherwise.
Scoring another selection of the same matrix reuses X: it costs no
matvecs and reads nothing beyond that selection's row block.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInput, ZeroMatrixSketch, check_finite,
                     check_indices, check_int)
# stable_cur_eval is not called here; the name stays because
# bench/tracing.py installs its wrapper on normest.stable_cur_eval and
# requires the attribute.
from .linalg import stable_cur_eval, times_pinv  # noqa: F401
from .sketch import GaussianEmbedding, SketchPack, derive_seed, row_sketch

__all__ = ["ErrorEstimate", "estimate_cur_error"]


@dataclass
class ErrorEstimate:
    """Estimated relative Frobenius error plus the reusable sketch."""

    rel_error: float
    pack: SketchPack


def estimate_cur_error(oracle, cols, r, s=5, seed=0, reuse=None):
    """Estimate ``|A - C pinv(U) R|_F / |A|_F`` from an s-row Gaussian sketch.

    The CUR approximation is the one ``CURFactors.operator()`` builds:
    C = A[:, cols], U = r[:, cols], and pinv(U) truncated as
    :func:`~adacur.linalg.truncated_svd` does, applied by
    :func:`~adacur.linalg.times_pinv`. C itself is not needed.

    Parameters
    ----------
    oracle : MatrixOracle
    cols : ndarray of int
        Selected column indices J, 1-d and in [0, n).
    r : ndarray
        Row block A[rows, :] of the selection, shape (i, n), extra rows
        included.
    s : int
        Sketch rows. Ignored when ``reuse`` supplies a sketch.
    seed : int
        Embedding seed (fresh draws only).
    reuse : SketchPack, optional
        A pack from a previous estimate against the same matrix; the
        matrix sketch is reused and only the residual is recomputed,
        costing no matvecs.

    Returns
    -------
    ErrorEstimate

    Raises
    ------
    InvalidInput
        If ``cols`` is not a 1-d array of integer indices in [0, n).
    ZeroMatrixSketch
        If the matrix sketch is identically zero, which leaves the
        relative error undefined.
    NonFiniteSnapshot
        If the matrix sketch or the row block holds a NaN or infinite
        entry. A non-finite entry anywhere in A makes its column of the
        sketch non-finite, so this also catches those outside R.
    """
    m = oracle.nrows
    cols = check_indices("cols", cols, oracle.ncols)
    if reuse is not None:
        emb = reuse.embedding
        if emb.dim != m:
            raise InvalidInput("reused sketch does not match oracle rows")
        xs = reuse.row_sketch
    else:
        emb = GaussianEmbedding(check_int("s", s, 1), m,
                                derive_seed(seed, 0xE557))
        xs = row_sketch(emb, oracle)
    if r.ndim != 2 or r.shape[1] != xs.shape[1]:
        raise InvalidInput(f"row block shape {r.shape} does not match "
                           f"{xs.shape[1]} columns")
    xs_norm = check_finite("matrix sketch", np.linalg.norm(xs))
    if xs_norm == 0.0:
        raise ZeroMatrixSketch("matrix sketch is identically zero")
    u = check_finite("row block", r[:, cols])
    # X[:, J] pinv(U), (s, i): the residual sketch is X minus it times R
    es = xs - times_pinv(xs[:, cols], u) @ r
    rel = float(check_finite("row block", np.linalg.norm(es) / xs_norm))
    return ErrorEstimate(rel_error=rel,
                         pack=SketchPack(embedding=emb, row_sketch=xs,
                                         residual_sketch=es))
