"""Pivoting kernels and stable evaluation of CUR products.

The factorizations here are the deterministic backbone of the
index-selection routines: LU with partial pivoting for cheap pivots
and row interpolative decompositions of tall blocks, greedy
column-pivoted QR for short wide ones, and a strong rank-revealing
refinement that swaps columns until the leading block is provably well
conditioned.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas, lapack

from .errors import InvalidInput, NonConvergence

__all__ = [
    "PivotedQR",
    "cpqr",
    "srrqr",
    "lu_pivots",
    "lu_row_id",
    "eps_rank_from_rdiag",
    "LowRankOperator",
    "stable_cur_eval",
]

_EPS = np.finfo(float).eps


def _validate_matrix(a, what="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InvalidInput(f"{what} must be 2-d, got ndim={a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise InvalidInput(f"{what} must have positive dimensions")
    if not np.isfinite(a).all():
        raise InvalidInput(f"{what} contains non-finite entries")
    return a


@dataclass
class PivotedQR:
    """R factor and pivots of ``A[:, pivots] = Q @ r``; Q is never formed.

    r is (k, n) upper triangular with k = min(m, n), so that
    ``A[:, pivots].T @ A[:, pivots] = r.T @ r``. ``pivots`` is a
    permutation of range(n), most important column first. ``swaps``
    counts strong-RRQR interchanges performed after the initial greedy
    factorization (0 for cpqr).
    """

    r: np.ndarray
    pivots: np.ndarray
    swaps: int = 0


def cpqr(a):
    """Greedy column-pivoted Householder QR.

    At each step the trailing column of largest 2-norm is eliminated;
    norm ties resolve to the lowest index. Delegates to LAPACK dgeqp3,
    which downdates column norms and recomputes them when cancellation
    makes the downdated value untrustworthy. Only R and the pivots are
    kept: the Householder vectors are dropped and Q is never formed.

    Parameters
    ----------
    a : ndarray
        Matrix with finite entries, shape (m, n).

    Returns
    -------
    PivotedQR
    """
    a = _validate_matrix(a)
    _, r, piv = sla.qr(a, mode="raw", pivoting=True)
    return PivotedQR(r=r, pivots=piv.astype(np.intp), swaps=0)


def srrqr(a, f=2.0, k=None):
    """Strong rank-revealing QR in the style of Gu and Eisenstat.

    Starts from the greedy pivoted factorization and exchanges leading
    and trailing columns while any entry of the coupling matrix
    ``inv(R11) @ R12``, combined with the inverse-row/trailing-column
    norm product, exceeds f. On exit the leading k columns satisfy

        max |inv(R11) @ R12| <= f
        sigma_min(R11) >= sigma_k(A) / sqrt(1 + f^2 k (n - k))

    The test reads R only, so each interchange re-factors the permuted
    matrix for R alone and Q is never formed.

    Parameters
    ----------
    a : ndarray
        Matrix with finite entries, shape (m, n).
    f : float
        Interchange threshold, f >= 1. Larger values mean fewer swaps
        and a weaker bound. Default 2.
    k : int, optional
        Size of the leading block. Defaults to the numerical rank
        estimated from the greedy factorization's diagonal.

    Returns
    -------
    PivotedQR
        With ``swaps`` set to the number of interchanges performed.
    """
    a = _validate_matrix(a)
    if not np.isfinite(f) or f < 1.0:
        raise InvalidInput(f"interchange threshold f must be >= 1, got {f}")
    m, n = a.shape
    base = cpqr(a)
    if k is None:
        k = eps_rank_from_rdiag(base.r, _EPS * max(base.r.shape))
    else:
        k = int(k)
        if not 1 <= k <= min(m, n):
            raise InvalidInput(f"k must lie in [1, {min(m, n)}], got {k}")
    if k == 0 or k >= n:
        return base

    perm = base.pivots.copy()
    r = base.r
    swaps = 0
    max_swaps = m * n  # diagnostic cap; each swap grows det(R11) by > f
    f_sq = f * f
    while True:
        r11 = r[:k, :k]
        d = np.abs(np.diag(r11))
        if d.min() == 0.0:
            raise InvalidInput(
                f"leading {k}x{k} block is exactly singular; k exceeds rank")
        t = sla.solve_triangular(r11, r[:k, k:])
        rinv = sla.solve_triangular(r11, np.eye(k))
        omega = np.linalg.norm(rinv, axis=1)   # row norms of inv(R11)
        r22 = r[k:, k:]
        gamma = (np.linalg.norm(r22, axis=0) if r22.shape[0] > 0
                 else np.zeros(n - k))
        rho_sq = t * t + np.outer(omega * omega, gamma * gamma)
        i, j = np.unravel_index(np.argmax(rho_sq), rho_sq.shape)
        if rho_sq[i, j] <= f_sq:
            break
        if swaps >= max_swaps:
            raise NonConvergence(
                f"srrqr exceeded {max_swaps} interchanges (f={f})")
        perm[[i, k + j]] = perm[[k + j, i]]
        r = sla.qr(a[:, perm], mode="raw")[1]
        swaps += 1
    return PivotedQR(r=r, pivots=perm, swaps=swaps)


def _lupp(a):
    """Packed dgetrf factors of a validated copy of ``a``, and the perm.

    ``a[perm[:min(m, n)]] = L @ U``, L unit lower with |L_ij| <= 1. A
    zero pivot is not an error here, so LAPACK's ``info`` is not read.
    """
    a = _validate_matrix(a)
    lu, piv, _ = lapack.dgetrf(a)
    perm = np.arange(a.shape[0])
    for i, p in enumerate(piv):                   # LAPACK's row interchanges
        perm[i], perm[p] = perm[p], perm[i]
    return lu, perm


def lu_pivots(a):
    """Row order of LU with partial pivoting of ``a``, pivot rows first.

    The first j pivots depend on the first j columns of ``a`` only.
    """
    return _lupp(a)[1]


def lu_row_id(c):
    """Row interpolative decomposition of a tall block C (m, k) by LUPP.

    From ``C[perm] = [L1; L2] @ U``, ``C[perm[k:]] = t @ C[perm[:k]]``
    with ``t = L2 @ inv(L1)`` of shape (m - k, k): one dgetrf and one
    right-side unit-lower triangular solve. L1 is unit triangular, so
    t is finite even for rank-deficient C, and |L| <= 1 keeps it small
    in practice (Dong and Martinsson, "Simpler is better", Adv. Comput.
    Math. 2023). Returns ``(perm, t)``, skeleton rows first in perm.
    """
    lu, perm = _lupp(c)
    m, k = lu.shape
    if k > m:
        raise InvalidInput(f"row ID needs a tall block, got shape {lu.shape}")
    t = blas.dtrsm(1.0, lu[:k], lu[k:], side=1, lower=1, diag=1)
    return perm, t


def eps_rank_from_rdiag(r, rel_tol):
    """Count diagonal entries of a triangular factor above a relative cut.

    Returns ``|{i : |r_ii| > rel_tol * |r_00|}|``; zero for an all-zero
    factor. The leading entry plays the role of the largest singular
    value, which holds for factors produced by cpqr/srrqr.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 2:
        raise InvalidInput("r must be 2-d")
    if not np.isfinite(rel_tol) or rel_tol < 0:
        raise InvalidInput(f"rel_tol must be finite and >= 0, got {rel_tol}")
    d = np.abs(np.diag(r))
    if d.size == 0 or d[0] == 0.0:
        return 0
    return int(np.count_nonzero(d > rel_tol * d[0]))


class LowRankOperator:
    """Factored product ``left @ right`` of shape (m, n), never formed.

    The error estimator reads the two factors; exact-error reporting
    reads row blocks of the product.
    """

    def __init__(self, left, right):
        left = np.asarray(left, dtype=float)
        right = np.asarray(right, dtype=float)
        if left.ndim != 2 or right.ndim != 2 or left.shape[1] != right.shape[0]:
            raise InvalidInput("left/right factor shapes are incompatible")
        self.left = left
        self.right = right

    @property
    def shape(self):
        return (self.left.shape[0], self.right.shape[1])

    @property
    def rank(self):
        return self.left.shape[1]

    def row_block(self, idx):
        idx = np.atleast_1d(np.asarray(idx, dtype=np.intp))
        return self.left[idx, :] @ self.right


def stable_cur_eval(c, u, r):
    """Evaluate ``C @ pinv(U) @ R`` through a truncated SVD of U.

    Singular values of U at or below ``eps * max(U.shape) * sigma_max(U)``
    are dropped before inversion, so a nearly singular core cannot
    inject noise or NaNs into the product.

    Parameters
    ----------
    c : ndarray
        Column block, shape (m, j).
    u : ndarray
        Core block, shape (i, j).
    r : ndarray
        Row block, shape (i, n).

    Returns
    -------
    LowRankOperator
        Factored form of the product, rank at most min(U.shape).
    """
    c = np.asarray(c, dtype=float)
    u = np.asarray(u, dtype=float)
    r = np.asarray(r, dtype=float)
    if c.ndim != 2 or u.ndim != 2 or r.ndim != 2:
        raise InvalidInput("c, u, r must be 2-d")
    if c.shape[1] != u.shape[1] or u.shape[0] != r.shape[0]:
        raise InvalidInput(
            f"inconsistent CUR shapes: C{c.shape}, U{u.shape}, R{r.shape}")
    if not (np.isfinite(c).all() and np.isfinite(u).all()
            and np.isfinite(r).all()):
        raise InvalidInput("CUR blocks contain non-finite entries")
    m, n = c.shape[0], r.shape[1]
    if u.size == 0:
        return LowRankOperator(np.zeros((m, 0)), np.zeros((0, n)))
    p, s, qt = np.linalg.svd(u, full_matrices=False)
    if s[0] == 0.0:
        return LowRankOperator(np.zeros((m, 0)), np.zeros((0, n)))
    keep = s > _EPS * max(u.shape) * s[0]
    left = (c @ qt[keep, :].T) / s[keep][None, :]
    right = p[:, keep].T @ r
    return LowRankOperator(left, right)
