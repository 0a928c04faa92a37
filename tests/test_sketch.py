"""Tests for Gaussian sketching and the growable embedding."""

import copy

import numpy as np
import pytest

from adacur.errors import InvalidInput
from adacur.oracles import DenseOracle
from adacur.sketch import GaussianEmbedding, derive_seed, row_sketch


def normalized(sketch_rows, dim, seed):
    """Embedding scaled by 1/sqrt(sketch_rows), norm-preserving in mean."""
    return GaussianEmbedding(sketch_rows, dim, seed,
                             scale=1.0 / np.sqrt(sketch_rows))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, 5) == derive_seed(3, 5)

    def test_order_sensitive(self):
        assert derive_seed(3, 5) != derive_seed(5, 3)

    def test_fits_in_64_bits(self):
        for parts in [(0,), (1, 2, 3), (2**63, 17)]:
            s = derive_seed(*parts)
            assert 0 <= s < 2**64


class TestDrawGaussian:
    def test_deterministic(self):
        g1 = GaussianEmbedding(4, 100, seed=7).raw
        g2 = GaussianEmbedding(4, 100, seed=7).raw
        np.testing.assert_array_equal(g1, g2)

    def test_seed_changes_draw(self):
        g1 = GaussianEmbedding(4, 100, seed=7).raw
        g2 = GaussianEmbedding(4, 100, seed=8).raw
        assert not np.array_equal(g1, g2)

    def test_normalized_column_norms_concentrate(self):
        # with s = 500 rows and 1/sqrt(s) scaling, each column of the
        # embedding has expected squared norm 1
        g = normalized(500, 400, seed=0).matrix
        norms = np.linalg.norm(g, axis=0)
        frac = np.mean((norms >= 0.8) & (norms <= 1.2))
        assert frac >= 0.95

    def test_unnormalized_unit_variance(self):
        g = GaussianEmbedding(100, 1000, seed=3).raw
        v = g.var()
        assert 0.9 <= v <= 1.1

    def test_scaling_relation(self):
        a = normalized(25, 60, seed=11).matrix
        b = GaussianEmbedding(25, 60, seed=11).raw
        np.testing.assert_allclose(a * np.sqrt(25.0), b, rtol=1e-13)


class TestGaussianEmbedding:
    def test_prefix_property(self):
        # growing the embedding keeps the old rows bit-for-bit: the
        # counter-based generator makes row blocks reproducible
        small = GaussianEmbedding(8, 50, seed=5)
        big = GaussianEmbedding(16, 50, seed=5)
        np.testing.assert_array_equal(small.raw, big.raw[:8])

    def test_grown_matches_fresh(self):
        e = GaussianEmbedding(8, 50, seed=5)
        g = e.grown(16)
        f = GaussianEmbedding(16, 50, seed=5)
        np.testing.assert_array_equal(g.raw, f.raw)

    def test_grown_chain_matches_fresh(self):
        # each growth draws only the new rows; the chain still equals a
        # fresh draw, and growing the same embedding twice or growing a
        # copy of it gives the same rows again
        fresh = GaussianEmbedding(128, 50, seed=5).raw
        e = GaussianEmbedding(8, 50, seed=5)
        for rows in (16, 32, 64, 128):
            first, second = e.grown(rows), e.grown(rows)
            np.testing.assert_array_equal(first.raw, fresh[:rows])
            np.testing.assert_array_equal(second.raw, fresh[:rows])
            np.testing.assert_array_equal(copy.copy(e).grown(rows).raw,
                                          fresh[:rows])
            np.testing.assert_array_equal(e.raw, fresh[:e.sketch_rows])
            e = first
        np.testing.assert_array_equal(e.grown(128).raw, fresh)

    def test_grown_must_not_shrink(self):
        e = GaussianEmbedding(8, 50, seed=5)
        with pytest.raises(InvalidInput):
            e.grown(4)

    def test_matrix_scaling(self):
        e = normalized(9, 30, seed=2)
        np.testing.assert_allclose(e.matrix, e.raw / 3.0, rtol=1e-15)
        f = GaussianEmbedding(9, 30, seed=2)
        np.testing.assert_array_equal(f.matrix, f.raw)


class TestRowSketch:
    def test_identity_embedding_reproduces_rows(self, rng):
        a = rng.standard_normal((6, 10))
        e = GaussianEmbedding(6, 6, seed=0)
        e._raw = np.eye(6)
        e.scale = 1.0
        np.testing.assert_allclose(row_sketch(e, DenseOracle(a)), a,
                                   rtol=1e-13)

    def test_rank_one_row_space_preserved(self, rng):
        u = rng.standard_normal(40)
        v = rng.standard_normal(30)
        a = np.outer(u, v)
        sk = row_sketch(GaussianEmbedding(5, 40, seed=3), DenseOracle(a))
        # every sketch row is a multiple of v
        for i in range(5):
            c = sk[i] @ v / (v @ v)
            np.testing.assert_allclose(sk[i], c * v, atol=1e-12)

    def test_frobenius_norm_bracket(self, rng):
        # normalized sketch preserves the Frobenius norm within a factor
        # of 2 in nearly every trial on a high-stable-rank matrix
        ok = 0
        a = rng.standard_normal((80, 60))
        na = np.linalg.norm(a)
        for trial in range(100):
            sk = row_sketch(normalized(5, 80, seed=trial), DenseOracle(a))
            ns = np.linalg.norm(sk)
            ok += (na / 2 < ns <= 2 * na)
        assert ok >= 99

    def test_two_sided_sketch_sees_rank(self, rng):
        # sketching both sides of a rank-r matrix leaves the trailing
        # singular value at the noise floor
        r = 4
        a = rng.standard_normal((50, 40)) @ np.diag(
            [1, 1, 1, 1] + [0] * 36) @ rng.standard_normal((40, 40))
        left = row_sketch(GaussianEmbedding(10, 50, seed=1), DenseOracle(a))
        gam2 = normalized(20, 40, seed=2)
        y = left @ gam2.matrix.T
        s = np.linalg.svd(y, compute_uv=False)
        assert s[r] <= 1e-10 * s[0]

    def test_counts_rmatvecs(self, rng):
        a = rng.standard_normal((20, 15))
        orc = DenseOracle(a)
        before = orc.counters.rmatvecs
        row_sketch(GaussianEmbedding(7, 20, seed=0), orc)
        assert orc.counters.rmatvecs - before == 7
