"""Tests for sketch-based rank estimation."""

import warnings

import numpy as np
import pytest

from adacur.errors import InvalidInput, RankTolNotResolved
from adacur.oracles import DenseOracle
from adacur.rankest import estimate_rank
from adacur.sketch import GaussianEmbedding, SparseSignEmbedding, derive_seed


def diag_oracle(diag, m, n):
    a = np.zeros((m, n))
    d = np.asarray(diag, dtype=float)
    a[:len(d), :len(d)] = np.diag(d)
    return DenseOracle(a)


def redrawn_estimate(oracle, abs_tol, seed, s_init=8, s_max=None,
                     embedding=SparseSignEmbedding):
    """Reference loop: both embeddings redrawn from their seeds each round.

    Each round draws fresh ``embedding`` instances of the round's size
    for both sides and sketches A with the left one's new rows only.
    Returns the final (row_sketch, singular values) pair.
    """
    m, n = oracle.shape
    s_max = min(m, n) if s_max is None else s_max
    seed_left = derive_seed(seed, 0x1EF7)
    seed_right = derive_seed(seed, 0x516B)
    s = min(s_init, s_max)
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
        if sig[-1] < abs_tol or s >= s_max:
            return x, sig
        s = min(2 * s, s_max)


class TestGrownEmbeddings:
    @pytest.mark.parametrize("m,n,r", [(400, 300, 20), (300, 200, 40),
                                       (500, 90, 12), (120, 400, 25)])
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

    def test_unresolved_matches_redrawn_reference(self):
        gen = np.random.default_rng(3)
        a = gen.standard_normal((400, 300))
        with pytest.raises(RankTolNotResolved) as info:
            estimate_rank(DenseOracle(a), 1e-6, seed=1, s_max=40)
        x, sig = redrawn_estimate(DenseOracle(a), 1e-6, 1, s_max=40)
        np.testing.assert_array_equal(info.value.estimate.row_sketch, x)
        np.testing.assert_array_equal(
            info.value.estimate.sketch_singular_values, sig)


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
        dict(seed=True), dict(seed="1"), dict(s_max=10.0), dict(s_max=True),
        dict(s_max=0), dict(s_max=31)])
    def test_bad_argument_rejected(self, kwargs):
        orc = DenseOracle(np.eye(30))
        with pytest.raises(InvalidInput):
            estimate_rank(orc, **{"abs_tol": 1e-6, "seed": 1, **kwargs})

    def test_numpy_scalars_pass(self):
        orc = DenseOracle(np.eye(30))
        est = estimate_rank(orc, np.float32(0.5), np.int64(1), np.int32(30))
        assert est.rank == estimate_rank(orc, 0.5, 1, 30).rank == 30


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
        # a 10x10 identity at tolerance 0.5 has full rank; the estimator
        # must either say 10 (exact path) or admit it could not resolve
        orc = DenseOracle(np.eye(10))
        try:
            est = estimate_rank(orc, 0.5, seed=0)
            assert est.rank == 10
        except RankTolNotResolved as exc:
            assert exc.estimate.rank <= 10

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
        try:
            est = estimate_rank(DenseOracle(a), 1e-3, seed=1)
        except RankTolNotResolved as exc:
            est = exc.estimate
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
        # a count of min(m, n) cannot grow, so it resolves the estimate;
        # a cap below min(m, n) still leaves it unresolved
        orc = DenseOracle(np.random.default_rng(5).standard_normal(shape))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate_rank(orc, 1e-8, seed=0).rank == 10
        with pytest.raises(RankTolNotResolved) as info:
            estimate_rank(orc, 1e-8, seed=0, s_max=8)
        assert info.value.estimate.rank == 8

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
