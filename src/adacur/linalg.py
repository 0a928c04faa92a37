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
from scipy.linalg import lapack

from .errors import InvalidInput, NonConvergence, check_int

__all__ = [
    "PivotedQR",
    "cpqr",
    "srrqr",
    "lu_pivots",
    "RowID",
    "lu_row_id",
    "eps_rank_from_rdiag",
    "LowRankOperator",
    "truncated_svd",
    "times_pinv",
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
    kept: the Householder vectors below R's diagonal are zeroed in
    place, so a short wide input's R is LAPACK's array itself, and Q is
    never formed.
    dgeqp3 reads more than its minimum workspace of 3n + 1 only in its
    blocked code, which it runs when the block size nb its query
    reports is below min(m, n). Otherwise the minimum gives the same
    factor without the (n + 1) nb block, which is 1.3 MB, three times
    the matrix, at oversampling's 10 x 4910 greedy pick.

    Parameters
    ----------
    a : ndarray
        Matrix with finite entries, shape (m, n).

    Returns
    -------
    PivotedQR
    """
    a = _validate_matrix(a)
    m, n = a.shape
    lwork = int(lapack.dgeqp3(a, lwork=-1)[3][0])
    if (lwork - 2 * n) // (n + 1) >= min(m, n):
        lwork = 3 * n + 1
    qr, piv = lapack.dgeqp3(a, lwork=lwork)[:2]
    k = min(m, n)
    # a tall factor's leading rows are copied out, so that R does not
    # keep the whole factor alive
    r = qr if m <= n else qr[:k].copy(order="F")
    r[:, :k][np.tri(k, k, -1, dtype=bool)] = 0.0
    return PivotedQR(r=r, pivots=(piv - 1).astype(np.intp), swaps=0)


def srrqr(a, f=2.0, k=None, rank_tol=None):
    """Strong rank-revealing QR in the style of Gu and Eisenstat.

    Starts from the greedy pivoted factorization and exchanges leading
    and trailing columns while any entry of the coupling matrix
    ``inv(R11) @ R12``, combined with the inverse-row/trailing-column
    norm product, exceeds f. On exit the leading k columns satisfy

        max |inv(R11) @ R12| <= f
        sigma_min(R11) >= sigma_k(A) / sqrt(1 + f^2 k (n - k))

    The test reads R only, so each interchange re-factors the permuted
    matrix for R alone and Q is never formed. The guarantee holds for
    the k tested only, so a caller that keeps the columns above a rank
    cut passes that cut as ``rank_tol``.

    Parameters
    ----------
    a : ndarray
        Matrix with finite entries, shape (m, n).
    f : float
        Interchange threshold, f >= 1. Larger values mean fewer swaps
        and a weaker bound. Default 2.
    k : int, optional
        Size of the leading block. Defaults to
        :func:`eps_rank_from_rdiag` of the greedy factorization's R at
        ``rank_tol``, so no second QR is needed.
    rank_tol : float, optional
        Relative cut for that default, finite and >= 0; give k or
        rank_tol, not both. Defaults to eps * n, for the numerical rank
        at machine precision.

    Returns
    -------
    PivotedQR
        With ``swaps`` set to the number of interchanges performed.
    """
    a = _validate_matrix(a)
    if not np.isfinite(f) or f < 1.0:
        raise InvalidInput(f"interchange threshold f must be >= 1, got {f}")
    m, n = a.shape
    if k is not None and rank_tol is not None:
        raise InvalidInput("give k or rank_tol, not both")
    base = cpqr(a)
    if k is None:
        k = eps_rank_from_rdiag(
            base.r, _EPS * n if rank_tol is None else rank_tol)
    else:
        k = check_int("k", k, 1)
        if k > min(m, n):
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
        # inv(R11) by dtrtri, a third of the flops of solving for it,
        # and T = inv(R11) @ R12 from it
        rinv = lapack.dtrtri(r11)[0]
        t = rinv @ r[:k, k:]
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
    """Packed dgetrf factors of a validated ``a``, and the row order.

    ``a[perm[:min(m, n)]] = L @ U``, L unit lower with |L_ij| <= 1. A
    zero pivot is not an error here, so LAPACK's ``info`` is not read.
    """
    lu, piv, _ = lapack.dgetrf(a)
    # LAPACK applies its own row interchanges to 0..m-1, held exactly
    # as floats, in one call instead of a Python swap per pivot
    order = lapack.dlaswp(np.arange(a.shape[0], dtype=float)[:, None], piv)
    return lu, order[:, 0].astype(np.intp)


def lu_pivots(a):
    """Row order of LU with partial pivoting of ``a``, pivot rows first.

    The first j pivots depend on the first j columns of ``a`` only.
    """
    return _lupp(_validate_matrix(a))[1]


class RowID:
    """Row interpolative decomposition of C (m, k) held as its LU factor.

    ``perm`` puts the k skeleton rows first and ``lu`` is dgetrf's
    packed (m, k) factor of C[perm], L1 unit lower in its leading k
    rows and L2 below them, so that ``C[perm[k:]] = t @ C[perm[:k]]``
    with t = L2 inv(L1). t is not kept: oversampling reads L1 and L2.
    """

    __slots__ = ("perm", "lu")

    def __init__(self, perm, lu):
        self.perm, self.lu = perm, lu


def lu_row_id(c):
    """Row interpolative decomposition of a tall block C (m, k) by LUPP.

    From ``C[perm] = [L1; L2] @ U``, ``C[perm[k:]] = t @ C[perm[:k]]``
    with ``t = L2 @ inv(L1)`` of shape (m - k, k). L1 is unit
    triangular, so t is finite even for rank-deficient C, and |L| <= 1
    keeps it small in practice (Dong and Martinsson, "Simpler is
    better", Adv. Comput. Math. 2023). Returns a :class:`RowID` after
    one dgetrf, skeleton rows first in its perm; t is never formed.
    """
    c = _validate_matrix(c)
    if c.shape[1] > c.shape[0]:
        raise InvalidInput(f"row ID needs a tall block, got shape {c.shape}")
    lu, perm = _lupp(c)
    return RowID(perm, lu)


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

    ``CURFactors.operator()`` builds one for exact-error reporting,
    which reads row blocks of the product, and for users of stored
    factors; there ``left`` is C pinv(U) and ``right`` is R, so
    ``rank``, the inner dimension, is the number of rows of U. The
    error estimator never forms one: it scores C pinv(U) R from its
    matrix sketch and the row block alone.
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


def truncated_svd(u):
    """Thin SVD ``(p, s, vt)`` of a CUR core U, small singular values dropped.

    Singular values at or below ``eps * max(U.shape) * sigma_max(U)``
    are removed with their vectors, all of them for a zero or empty U,
    so ``vt.T @ diag(1 / s) @ p.T`` is the truncated pseudoinverse of U
    and never divides by a value near zero. This drop rule defines
    every pinv(U) in the package: :func:`times_pinv` takes a QR solve
    instead only when its guard proves that the rule drops nothing.
    """
    i, j = u.shape
    if u.size == 0:
        return np.zeros((i, 0)), np.zeros(0), np.zeros((0, j))
    p, s, vt = np.linalg.svd(u, full_matrices=False)
    keep = s > _EPS * max(u.shape) * s[0]
    return p[:, keep], s[keep], vt[keep, :]


def times_pinv(x, u):
    """``x @ pinv(U)`` for a CUR core U, pinv(U) truncated as by truncated_svd.

    A tall U (i >= j) is factored by pivoted QR, ``U[:, P] = Q R``. If
    ``|inv(R)|_F * |R|_F * eps * max(U.shape) < 1``, then sigma_min(U)
    >= 1 / |inv(R)|_F exceeds the drop threshold, which is at most
    ``eps * max(U.shape) * |R|_F``, so :func:`truncated_svd` would drop
    nothing and ``pinv(U) = P inv(R) Q.T``. The product then costs a QR,
    a triangular inverse, a GEMM and Q applied from its Householder
    reflectors, about a quarter of an SVD with vectors at the 102x92
    cores of ``speed``. A wide, empty or nearly singular U takes the
    truncated SVD.

    Parameters
    ----------
    x : ndarray
        Shape (s, j). Any other shape raises InvalidInput; the entries
        of x and U are not scanned.
    u : ndarray
        Core with finite entries, shape (i, j).

    Returns
    -------
    ndarray
        Shape (s, i).
    """
    if np.ndim(x) != 2 or np.ndim(u) != 2 or x.shape[1] != u.shape[1]:
        raise InvalidInput(f"x{np.shape(x)} and U{np.shape(u)} must be 2-d "
                           "with as many columns")
    i, j = u.shape
    if 0 < j <= i:
        (qr, tau), r, piv = sla.qr(u, mode="raw", pivoting=True,
                                   check_finite=False)
        rinv, info = lapack.dtrtri(r)
        if (info == 0 and np.linalg.norm(rinv) * np.linalg.norm(r)
                * _EPS * max(i, j) < 1.0):
            # [x P inv(R), 0] Q_full.T, with Q applied from its reflectors
            y = np.zeros((x.shape[0], i))
            y[:, :j] = x[:, piv] @ rinv
            return lapack.dormqr("R", "T", qr, tau, y,
                                 lwork=64 * max(1, x.shape[0]))[0]
    p, s, vt = truncated_svd(u)
    return ((x @ vt.T) / s) @ p.T


def stable_cur_eval(c, u, r):
    """Evaluate ``C @ pinv(U) @ R`` as ``(C pinv(U)) @ R``.

    The left factor is :func:`times_pinv` of C and U, the product the
    error estimator scores, so U's small singular values are dropped by
    the one rule of :func:`truncated_svd` and a nearly singular core
    cannot inject noise or NaNs into the product.

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
        Factored form of the product, with inner dimension (``rank``)
        i, the number of rows of U, whatever the drop rule removes.
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
    return LowRankOperator(times_pinv(c, u), r)
