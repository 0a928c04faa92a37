"""Tests for sketch-based rank estimation."""

import inspect
import warnings

import numpy as np
import pytest

from adacur.errors import InvalidInput
from adacur.oracles import DenseOracle
from adacur.rankest import estimate_rank
from adacur.sketch import GaussianEmbedding, SparseSignEmbedding, derive_seed


def diag_oracle(diag, m, n):
    a = np.zeros((m, n))
    d = np.asarray(diag, dtype=float)
    a[:len(d), :len(d)] = np.diag(d)
    return DenseOracle(a)


def redrawn_estimate(oracle, abs_tol, seed, s_init=8,
                     embedding=SparseSignEmbedding):
    """Reference loop: both embeddings redrawn from their seeds each round.

    Each round draws fresh ``embedding`` instances of the round's size
    for both sides and sketches A with the left one's new rows only.
    It stops below the tolerance, once both sides are exact, or at
    s = min(m, n). Returns the final (row_sketch, singular values) pair.
    """
    m, n = oracle.shape
    s_top = min(m, n)
    seed_left = derive_seed(seed, 0x1EF7)
    seed_right = derive_seed(seed, 0x516B)
    s = min(s_init, s_top)
    x_raw = None
    while True:
        if 2 * s >= m:
            x = oracle.row_block(np.arange(m))
        else:
            g1 = embedding(s, m, seed_left).raw
            if x_raw is None:
                x_raw = oracle.rmatmat(g1.T).T
            elif x_raw.shape[0] < s:
                fresh = g1[x_raw.shape[0]:]
                x_raw = np.vstack([x_raw, oracle.rmatmat(fresh.T).T])
            x = x_raw / np.sqrt(s)
        if 4 * s >= n:
            y = x
        else:
            g2 = embedding(2 * s, n, seed_right).raw
            y = (x @ g2.T) / np.sqrt(2 * s)
        sig = np.linalg.svd(y, compute_uv=False)
        if sig[-1] < abs_tol or (2 * s >= m and 4 * s >= n) or s >= s_top:
            return x, sig
        s = min(2 * s, s_top)


class TestGrownEmbeddings:
    # the last case is square and full rank: both sides go exact at
    # s = 32, below s = min(m, n) = 40, and the loop stops there
    @pytest.mark.parametrize("m,n,r", [(400, 300, 20), (300, 200, 40),
                                       (500, 90, 12), (120, 400, 25),
                                       (40, 40, 40)])
    def test_matches_redrawn_reference(self, m, n, r):
        gen = np.random.default_rng(m + n + r)
        a = gen.standard_normal((m, r)) @ gen.standard_normal((r, n))
        for seed in (0, 7):
            est = estimate_rank(DenseOracle(a), 1e-6, seed=seed)
            x, sig = redrawn_estimate(DenseOracle(a), 1e-6, seed)
            np.testing.assert_array_equal(est.row_sketch, x)
            np.testing.assert_array_equal(est.sketch_singular_values, sig)
            assert est.sketch_size == x.shape[0]
            assert est.rank == np.count_nonzero(sig > 1e-6) == r


class TestSketchQuality:
    def test_mean_rank_matches_gaussian_sketch(self):
        # the sparse sign sketch must see as many singular values above
        # the tolerance as the same estimator over Gaussian embeddings;
        # a normalization slip between blocks shows as a lower mean.
        # The spectrum is the speed problem's (rank 100, 1 to 1e-8) at
        # its rank tolerance: 97 singular values lie above it, and a
        # single estimate spreads by about 0.5
        gen = np.random.default_rng(11)
        u = np.linalg.qr(gen.standard_normal((2000, 100)))[0]
        v = np.linalg.qr(gen.standard_normal((400, 100)))[0]
        a = (u * np.logspace(0, -8, 100)) @ v.T
        orc, tol = DenseOracle(a), 1.58e-8
        sparse, gauss = [], []
        for seed in range(30):
            sparse.append(estimate_rank(orc, tol, seed).rank)
            sig = redrawn_estimate(orc, tol, seed,
                                   embedding=GaussianEmbedding)[1]
            gauss.append(np.count_nonzero(sig > tol))
        assert abs(np.mean(sparse) - np.mean(gauss)) <= 0.5


class TestArguments:
    @pytest.mark.parametrize("kwargs", [
        dict(abs_tol=True), dict(abs_tol="1e-6"), dict(abs_tol=np.nan),
        dict(abs_tol=np.inf), dict(abs_tol=0.0), dict(seed=1.5),
        dict(seed=True), dict(seed="1")])
    def test_bad_argument_rejected(self, kwargs):
        orc = DenseOracle(np.eye(30))
        with pytest.raises(InvalidInput):
            estimate_rank(orc, **{"abs_tol": 1e-6, "seed": 1, **kwargs})

    def test_numpy_scalars_pass(self):
        orc = DenseOracle(np.eye(30))
        est = estimate_rank(orc, np.float32(0.5), np.int64(1))
        assert est.rank == estimate_rank(orc, 0.5, 1).rank == 30

    def test_signature_is_oracle_tol_seed(self):
        # the sketch bound is internal: no fourth argument is taken
        params = inspect.signature(estimate_rank).parameters
        assert list(params) == ["oracle", "abs_tol", "seed"]
        with pytest.raises(TypeError):
            estimate_rank(DenseOracle(np.eye(30)), 0.5, 1, 30)


class TestEstimateRank:
    def test_zero_matrix(self):
        est = estimate_rank(DenseOracle(np.zeros((30, 20))), 1e-6, seed=0)
        assert est.rank == 0

    def test_clear_gap(self):
        # singular values 1, 1e-1, 1e-9, ...: exactly two sit above 1e-6
        d = [1.0, 1e-1] + [1e-9] * 10
        hits = 0
        for seed in range(20):
            est = estimate_rank(diag_oracle(d, 200, 150), 1e-6, seed=seed)
            hits += (est.rank == 2)
        assert hits >= 18

    def test_full_rank_identity_is_resolved_or_flagged(self):
        # a 10x10 identity at tolerance 0.5 has full rank, which the
        # exact path counts
        assert estimate_rank(DenseOracle(np.eye(10)), 0.5, seed=0).rank == 10

    def test_monotone_in_tolerance(self, rng):
        a = rng.standard_normal((100, 80)) @ np.diag(np.logspace(0, -12, 80))
        a = a @ rng.standard_normal((80, 80))
        ranks = []
        for tol in [1e-2, 1e-4, 1e-6, 1e-8]:
            est = estimate_rank(DenseOracle(a), tol, seed=4)
            ranks.append(est.rank)
        assert all(r1 <= r2 for r1, r2 in zip(ranks, ranks[1:]))

    def test_rank_never_exceeds_sketch(self, rng):
        a = rng.standard_normal((60, 60))
        est = estimate_rank(DenseOracle(a), 1e-3, seed=1)
        assert est.rank <= est.sketch_size

    def test_matvec_budget_is_sketch_rows(self, rng):
        # the oracle pays one adjoint matvec per accumulated sketch row
        a = rng.standard_normal((80, 15)) @ rng.standard_normal((15, 70))
        orc = DenseOracle(a)
        before = orc.counters.rmatvecs
        est = estimate_rank(orc, 1e-8, seed=2)
        spent = orc.counters.rmatvecs - before
        assert spent == est.sketch_size

    def test_sketch_is_reusable(self, rng):
        # the returned row sketch spans enough of the row space to feed
        # the pivot search without another pass over A
        a = rng.standard_normal((60, 8)) @ rng.standard_normal((8, 50))
        est = estimate_rank(DenseOracle(a), 1e-8, seed=3)
        assert est.rank == 8
        assert est.row_sketch.shape[1] == 50
        s = np.linalg.svd(est.row_sketch, compute_uv=False)
        assert s[8] <= 1e-10 * s[0]

    @pytest.mark.parametrize("shape", [(10, 1000), (1000, 10)])
    def test_full_rank_count_is_final(self, shape):
        # a count of min(m, n) cannot grow, so it ends the estimate
        orc = DenseOracle(np.random.default_rng(5).standard_normal(shape))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate_rank(orc, 1e-8, seed=0).rank == 10

    @pytest.mark.parametrize("shape, r, svd_shapes", [
        ((400, 300), 20, [(8, 16), (16, 32), (32, 64)]),
        ((40, 40), 40, [(8, 16), (16, 40), (40, 40)]),
        ((1000, 10), 10, [(8, 10), (10, 10)]),
    ], ids=["below_tolerance", "both_sides_exact", "min_dimension"])
    def test_stopping_rule(self, shape, r, svd_shapes, monkeypatch):
        # the loop stops at the first of: smallest sketched singular value
        # below abs_tol, both sides exact (s = 32 for 40x40, before
        # s = min(m, n) = 40), s = min(m, n); no round follows the stop
        gen = np.random.default_rng(sum(shape) + r)
        a = gen.standard_normal((shape[0], r)) @ gen.standard_normal(
            (r, shape[1]))
        svd = np.linalg.svd
        seen = []

        def counted_svd(y, *args, **kwargs):
            seen.append(y.shape)
            return svd(y, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        est = estimate_rank(DenseOracle(a), 1e-6, seed=0)
        assert seen == svd_shapes
        assert est.rank == r
        assert est.sketch_size == svd_shapes[-1][0]
        below = est.sketch_singular_values[-1] < 1e-6
        assert below == (r < min(shape))

    def test_exact_saturation_small_matrix(self):
        # once the sketch covers the whole dimension the answer is exact
        d = np.ones(6)
        est = estimate_rank(diag_oracle(d, 6, 6), 0.5, seed=0)
        assert est.rank == 6

    def test_estimate_within_factor_two_of_true(self, rng):
        # on random low-rank-plus-noise inputs the estimated epsilon-rank
        # lands within a factor of 2 of the SVD answer
        good = 0
        for seed in range(20):
            gen = np.random.default_rng(seed)
            r = int(gen.integers(3, 15))
            a = gen.standard_normal((120, 15)) * np.logspace(0, -8, 15)
            a = a @ gen.standard_normal((15, 100))
            tol = 1e-4 * np.linalg.norm(a, 2)
            true = int(np.sum(np.linalg.svd(a, compute_uv=False) > tol))
            est = estimate_rank(DenseOracle(a), tol, seed=seed + 50)
            if true == 0:
                good += (est.rank == 0)
            else:
                good += (0.5 * true <= est.rank <= 2 * true)
        assert good >= 18
