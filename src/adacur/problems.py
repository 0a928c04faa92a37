"""Parameter-dependent test matrices and exact error measurement.

Four families: an orthogonally-mixed exponential spectrum with known
singular values, a discrete Schrodinger-type matrix ODE integrated
with fixed-step RK4, a block construction whose late-blooming block
defeats index-only rank tracking, and a large low-rank-plus-sparse
sequence for timing runs that is never densified.
"""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import IntegratorAccuracy, InvalidInput, check_int
from .oracles import DenseOracle, LowRankPlusSparseOracle, ParamMatrixSequence
from .sketch import derive_seed

__all__ = [
    "make_synthetic_expm",
    "synthetic_expm_singvals",
    "make_schrodinger",
    "make_adversarial",
    "make_speed_problem",
    "true_relative_error",
]


# -- orthogonal mixing of an exponential spectrum -----------------------

def _haar(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _skew_schur(w):
    """Real Schur form of a skew-symmetric matrix: rotation generators.

    Returns the orthogonal Z and the list of (index, angle) pairs such
    that Z.T @ w @ Z is block diagonal with 2x2 blocks
    [[0, theta], [-theta, 0]].

    Angles are read from the explicitly conjugated S = Z.T @ w @ Z
    rather than from the returned quasi-triangular factor: LAPACK
    standardizes 2x2 blocks as a scaled rotation whose off-diagonal
    magnitudes differ, while S is skew to rounding, so the averaged
    entry is the angle to machine precision.
    """
    t, z = sla.schur(w, output="real")
    s = z.T @ w @ z
    pairs = []
    i = 0
    n = w.shape[0]
    while i < n - 1:
        if t[i + 1, i] != 0.0:
            pairs.append((i, 0.5 * (s[i, i + 1] - s[i + 1, i])))
            i += 2
        else:
            i += 1
    return z, pairs


def _apply_rotations_left(a, pairs, tau):
    """In-place row mixing by the block-rotation exponential."""
    for i, th in pairs:
        c, s = np.cos(tau * th), np.sin(tau * th)
        top = c * a[i, :] + s * a[i + 1, :]
        a[i + 1, :] = -s * a[i, :] + c * a[i + 1, :]
        a[i, :] = top
    return a


def synthetic_expm_singvals(n, t):
    """Exact singular values ``exp(t) * 2**-j``, j = 1..n, descending."""
    return np.exp(t) * np.power(2.0, -np.arange(1, n + 1, dtype=float))


def make_synthetic_expm(n=200, q=101, seed=0):
    """Smoothly rotating matrix with exactly known singular values.

    ``A(t) = expm(t W1) @ (exp(t) D) @ expm(t W2)`` on t in [0, 1],
    with D = diag(2^-1, ..., 2^-n) and random skew-symmetric W1, W2.
    The orthogonal exponentials leave the singular values at
    ``exp(t) * 2**-j`` while rotating the singular subspaces, so rank
    behavior is known in closed form at every t.

    The skew exponentials are evaluated through one real Schur
    factorization per W and closed-form 2x2 rotation blocks per t.
    """
    n, q = check_int("n", n, 2), check_int("q", q, 1)
    rng = np.random.default_rng(derive_seed(check_int("seed", seed), 0x5E17))
    g1 = rng.standard_normal((n, n))
    g2 = rng.standard_normal((n, n))
    z1, pairs1 = _skew_schur(0.5 * (g1 - g1.T))
    z2, pairs2 = _skew_schur(0.5 * (g2 - g2.T))
    d = np.power(2.0, -np.arange(1, n + 1, dtype=float))
    # A(t) = exp(t) * Z1 R1(t) [Z1^T D Z2] R2(t) Z2^T
    core = z1.T @ (d[:, None] * z2)
    params = np.linspace(0.0, 1.0, q)

    def provider(j):
        t = params[j]
        mid = core.copy()
        _apply_rotations_left(mid, pairs1, t)
        _apply_rotations_left(mid.T, pairs2, -t)  # column mixing
        a = np.exp(t) * (z1 @ mid @ z2.T)
        return DenseOracle(a)

    return ParamMatrixSequence(params, provider, (n, n))


# -- Schrodinger-type matrix ODE ----------------------------------------

def make_schrodinger(n=128, q=101, seed=0, t_end=0.1, zero_potential=False):
    """Matrix ODE ``A' = (D A + A D)/2 - V A V`` integrated with RK4.

    D is the 1-d second-difference matrix tridiag(-1, 2, -1) and V the
    diagonal potential ``1 - cos(2 pi j / n)`` for j = -n/2 .. n/2 - 1.
    A(0) is random with singular values 10^-1, ..., 10^-n. Snapshots
    are taken at q equispaced parameters in [0, t_end].

    The initial fixed step obeys ``h <= 1 / (4 L)`` for the crude
    operator bound L = |D|_1 + max(V)^2. Accuracy is certified by
    step halving: the full integration is repeated at half the step
    and the final states must agree to 1e-10 relative, otherwise the
    step is halved and the pair retried; after several halvings
    :class:`IntegratorAccuracy` is raised. The returned snapshots are
    always from the finer of the certified pair.

    ``zero_potential=True`` drops the V term, for which the flow has
    the closed form ``expm(t D / 2) A0 expm(t D / 2)`` used by tests.
    """
    n, q = check_int("n", n, 2), check_int("q", q, 2)
    if not 0.0 < t_end < np.inf:
        raise InvalidInput(f"t_end must be finite and positive, got {t_end!r}")
    rng = np.random.default_rng(derive_seed(check_int("seed", seed), 0x5C40))
    sig0 = np.power(10.0, -np.arange(1, n + 1, dtype=float))
    a0 = (_haar(n, rng) * sig0[None, :]) @ _haar(n, rng).T
    d_mat = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                     offsets=(-1, 0, 1), format="csr")
    j = np.arange(n) - n // 2
    v = np.zeros(n) if zero_potential else 1.0 - np.cos(2.0 * np.pi * j / n)

    def rhs(a):
        out = 0.5 * (d_mat @ a + (d_mat @ a.T).T)
        if v.any():
            out -= v[:, None] * a * v[None, :]
        return out

    def rk4_step(a, h):
        k1 = rhs(a)
        k2 = rhs(a + 0.5 * h * k1)
        k3 = rhs(a + 0.5 * h * k2)
        k4 = rhs(a + h * k3)
        return a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    params = np.linspace(0.0, t_end, q)
    dt = params[1] - params[0]
    lbound = 4.0 + float(np.max(v)) ** 2 if v.any() else 4.0
    substeps = max(1, int(np.ceil(dt * 4.0 * lbound)))

    def integrate(nsub):
        a = a0.copy()
        states = [a0.copy()]
        h = dt / nsub
        for _ in range(q - 1):
            for _ in range(nsub):
                a = rk4_step(a, h)
            states.append(a.copy())
        return states

    states = None
    diff = np.inf
    for _ in range(7):
        coarse = integrate(substeps)[-1]
        states = integrate(2 * substeps)
        denom = np.linalg.norm(states[-1])
        diff = np.linalg.norm(coarse - states[-1]) / denom
        if diff <= 1e-10:
            break
        substeps *= 2
    else:
        raise IntegratorAccuracy(
            f"step-halving check failed after refinement: "
            f"relative difference {diff:.3e}")

    def provider(jdx):
        return DenseOracle(states[jdx])

    return ParamMatrixSequence(params, provider, (n, n))


# -- block construction that defeats index-only tracking ----------------

def make_adversarial(seed=0, q=101):
    """300-by-100 block matrix whose dominant block switches over time.

    The top-left 100x20 block is a fixed Gaussian; rows 100..299 of the
    last ten columns hold ``c(t) * t * A2`` with ``c(t) = 10**(-5 + t/10)``
    and Gaussian A2, over 101 equispaced t in [0, 100]. The second
    block starts exactly zero and grows until it dominates, but it is
    invisible from the initially selected rows and columns: an
    algorithm that never looks outside its index set cannot notice the
    switch, while error-estimating algorithms track it.
    """
    q = check_int("q", q, 2)
    rng = np.random.default_rng(derive_seed(check_int("seed", seed), 0xADE2))
    a1 = rng.standard_normal((100, 20))
    a2 = rng.standard_normal((200, 10))
    params = np.linspace(0.0, 100.0, q)

    def provider(jdx):
        t = params[jdx]
        a = np.zeros((300, 100))
        a[:100, :20] = a1
        a[100:, 90:] = (10.0 ** (-5.0 + t / 10.0) * t) * a2
        return DenseOracle(a)

    return ParamMatrixSequence(params, provider, (300, 100))


# -- large low-rank plus accumulating sparse noise ----------------------

def make_speed_problem(m=5000, n=1000, r=100, q=51, seed=0,
                       delta=1e-12, density=1e-5):
    """Low-rank matrix plus slowly accumulating sparse perturbations.

    ``A(0) = U diag(sigma) V.T`` with orthonormal factors and sigma
    geometrically spaced from 1 to 1e-8; each later step adds
    ``delta * X_i`` with X_i sparse Gaussian of the given density. The
    oracles keep the low-rank-plus-sparse form, so matvecs cost
    O((m + n) r + nnz) and the full matrix is never formed.

    Oracles are built on demand and share one premultiplied low-rank
    factor; the cumulative sparse term is advanced incrementally for
    sequential access. The sequence does not cache oracles (a full
    cache of cumulative sparse terms would be quadratic in q).
    """
    m, n, r = check_int("m", m, 1), check_int("n", n, 1), check_int("r", r, 1)
    q, seed = check_int("q", q, 1), check_int("seed", seed)
    if min(m, n) <= r:
        raise InvalidInput("need r < min(m, n)")
    if not 0.0 < density <= 1.0:
        raise InvalidInput(f"density must lie in (0, 1], got {density!r}")
    if not np.isfinite(delta):
        raise InvalidInput(f"delta must be finite, got {delta!r}")
    rng = np.random.default_rng(derive_seed(seed, 0x59EE))
    u = np.linalg.qr(rng.standard_normal((m, r)))[0]
    v = np.linalg.qr(rng.standard_normal((n, r)))[0]
    sigma = np.logspace(0.0, -8.0, r)
    nnz = max(1, int(round(m * n * density)))

    def draw_sparse(i):
        """delta * X_i; its distinct flat positions, sorted, are already
        in canonical CSR order."""
        g = np.random.default_rng(derive_seed(seed, 0x4A55, i))
        flat = g.choice(m * n, size=nnz, replace=False)
        vals = g.standard_normal(nnz)
        order = np.argsort(flat)
        row, col = np.divmod(flat[order], n)
        ptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(np.bincount(row, minlength=m), out=ptr[1:])
        return sp.csr_matrix((delta * vals[order], col, ptr), shape=(m, n))

    state = {"i": 0, "s": None}  # cumulative delta * sum_{j<=i} X_j

    def cumulative(i):
        if i == 0:
            return None
        if state["s"] is None or state["i"] > i:
            state["i"], state["s"] = 0, None
        s = state["s"] if state["s"] is not None else sp.csr_matrix((m, n))
        for j in range(state["i"] + 1, i + 1):
            s = s + draw_sparse(j)
        state["i"], state["s"] = i, s
        return s

    low_rank = LowRankPlusSparseOracle(u, sigma, v)

    def provider(i):
        return low_rank.with_sparse(cumulative(i))

    params = np.arange(q, dtype=float)
    return ParamMatrixSequence(params, provider, (m, n),
                               cache_oracles=False)


# -- exact error measurement --------------------------------------------

def true_relative_error(oracle, approx, block_rows=256):
    """Exact ``|A - approx|_F / |A|_F`` accumulated over row blocks.

    ``approx`` is a LowRankOperator or anything with an ``operator()``
    method returning one (CUR factors). Reads the full matrix once in
    blocks of ``block_rows`` rows; meant for validation, not for the
    algorithms' cost budgets.
    """
    check_int("block_rows", block_rows, 1)
    op = approx.operator() if hasattr(approx, "operator") else approx
    m, n = oracle.shape
    if op.shape != (m, n):
        raise InvalidInput(f"operator shape {op.shape} != oracle {oracle.shape}")
    num_sq = 0.0
    den_sq = 0.0
    for start in range(0, m, block_rows):
        idx = np.arange(start, min(start + block_rows, m))
        blk = oracle.row_block(idx)
        den_sq += float(np.sum(blk * blk))
        resid = blk - op.row_block(idx)
        num_sq += float(np.sum(resid * resid))
    if den_sq == 0.0:
        return 0.0
    return float(np.sqrt(num_sq / den_sq))
