"""Tests for the Gaussian and sparse sign embeddings and sketch packs."""

import copy

import numpy as np
import pytest

from adacur.errors import InvalidInput
from adacur.oracles import DenseOracle
from adacur.sketch import (GaussianEmbedding, SketchPack, SparseSignEmbedding,
                           derive_seed, row_sketch)

EMBEDDINGS = [GaussianEmbedding, SparseSignEmbedding]


def reference_rows(emb):
    """Dense rows of a SparseSignEmbedding, one column and band at a
    time: block j's word k, read as bytes of the band type, gives band
    b's row (low bits) and sign (top bit) in byte b."""
    out = np.zeros((emb.sketch_rows, emb.dim))
    lo = 0
    for j, words in enumerate(emb._words):
        hi = 2 * lo if j > 1 else 8 * (j + 1)
        w = (hi - lo) // 8
        kind = np.dtype("<u1" if w <= 128 else "<u2" if w <= 32768
                        else "<u4")
        vals = words.astype("<u8").view(kind).reshape(emb.dim, 8)
        top = 8 * kind.itemsize - 1
        for k in range(emb.dim):
            for b in range(8):
                row = lo + b * w + int(vals[k, b]) % w
                sign = -1.0 if int(vals[k, b]) >> top else 1.0
                if row < emb.sketch_rows:
                    out[row, k] = sign * np.sqrt(w)
        lo = hi
    return out


def normalized(sketch_rows, dim, seed):
    """Embedding scaled by 1/sqrt(sketch_rows), norm-preserving in mean."""
    emb = GaussianEmbedding(sketch_rows, dim, seed)
    emb._raw = emb.raw / np.sqrt(sketch_rows)
    return emb


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
        g = normalized(500, 400, seed=0).raw
        norms = np.linalg.norm(g, axis=0)
        frac = np.mean((norms >= 0.8) & (norms <= 1.2))
        assert frac >= 0.95

    def test_unnormalized_unit_variance(self):
        g = GaussianEmbedding(100, 1000, seed=3).raw
        v = g.var()
        assert 0.9 <= v <= 1.1


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


class TestRowSketch:
    def test_identity_embedding_reproduces_rows(self, rng):
        a = rng.standard_normal((6, 10))
        e = GaussianEmbedding(6, 6, seed=0)
        e._raw = np.eye(6)
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
        y = left @ gam2.raw.T
        s = np.linalg.svd(y, compute_uv=False)
        assert s[r] <= 1e-10 * s[0]

    def test_counts_rmatvecs(self, rng):
        a = rng.standard_normal((20, 15))
        orc = DenseOracle(a)
        before = orc.counters.rmatvecs
        row_sketch(GaussianEmbedding(7, 20, seed=0), orc)
        assert orc.counters.rmatvecs - before == 7


class TestSketchPack:
    def test_grown_matches_fresh_pack(self, rng):
        # appending the new rows' sketch equals sketching with the taller
        # embedding from scratch, and costs one rmatvec per new row only,
        # for either embedding class
        a = rng.standard_normal((40, 25))
        for cls in EMBEDDINGS:
            orc = DenseOracle(a)
            small = cls(5, 40, seed=9)
            pack = SketchPack(small, row_sketch(small, orc))
            before = orc.counters.rmatvecs
            for rows in (5, 12, 30):
                grown = pack.grown(orc, rows)
                assert orc.counters.rmatvecs - before == rows - 5
                fresh = cls(rows, 40, seed=9)
                np.testing.assert_array_equal(grown.embedding.raw, fresh.raw)
                np.testing.assert_array_equal(
                    grown.row_sketch, row_sketch(fresh, DenseOracle(a)))
                assert grown.residual_sketch is None
                before = orc.counters.rmatvecs
            np.testing.assert_array_equal(pack.embedding.raw, small.raw)


class TestSparseSignEmbedding:
    def test_reproducible_per_seed(self):
        a = SparseSignEmbedding(40, 300, seed=7).raw
        np.testing.assert_array_equal(
            a, SparseSignEmbedding(40, 300, seed=7).raw)
        assert not np.array_equal(a, SparseSignEmbedding(40, 300, seed=8).raw)

    def test_grown_matches_fresh(self):
        # doubling 8 -> 256 along the estimator's schedule, and to sizes
        # off it, where the last block is cut short
        fresh = SparseSignEmbedding(1000, 60, seed=5).raw
        e = SparseSignEmbedding(8, 60, seed=5)
        for rows in (16, 32, 64, 128, 256):
            e = e.grown(rows)
            np.testing.assert_array_equal(e.raw, fresh[:rows])
        for rows in (40, 1000):
            np.testing.assert_array_equal(
                SparseSignEmbedding(8, 60, seed=5).grown(rows).raw,
                fresh[:rows])
        cut = SparseSignEmbedding(40, 60, seed=5)
        np.testing.assert_array_equal(cut.raw, fresh[:40])
        np.testing.assert_array_equal(cut.grown(64).raw, fresh[:64])
        np.testing.assert_array_equal(cut.grown(1000).raw, fresh)

    def test_one_entry_per_band(self):
        # blocks of 8, 8, 16, ..., 512 rows, each in 8 bands of w rows;
        # w = 256 (the last block) takes two words per column
        g = SparseSignEmbedding(4096, 50, seed=3).raw
        for lo, hi in [(0, 8), (8, 16), (16, 32), (128, 256), (2048, 4096)]:
            w = (hi - lo) // 8
            bands = g[lo:hi].reshape(8, w, 50)
            np.testing.assert_array_equal(
                np.count_nonzero(bands, axis=1), np.ones((8, 50)))
            assert set(np.abs(bands[bands != 0])) == {np.sqrt(w)}

    def test_dense_rows_are_the_words_densified(self):
        # rows built column by column from the words, as the class
        # docstring defines them; built transposed, so that the adjoint
        # product gets a C-ordered operand
        e = SparseSignEmbedding(300, 40, seed=2)
        want = reference_rows(e)
        for start, stop in [(0, 300), (0, 8), (3, 40), (100, 257),
                            (16, 32), (299, 300)]:
            got = e.dense_rows(start, stop)
            assert got.T.flags.c_contiguous
            np.testing.assert_array_equal(got, want[start:stop])

    def test_row_sketch_hands_a_c_ordered_operand(self, rng):
        seen = []

        class Spy(DenseOracle):
            def _rmatmat(self, x):
                seen.append(x.flags.c_contiguous)
                return super()._rmatmat(x)

        emb = SparseSignEmbedding(24, 30, seed=1)
        row_sketch(emb, Spy(rng.standard_normal((30, 5))))
        SketchPack(emb, np.zeros((24, 5))).grown(
            Spy(rng.standard_normal((30, 5))), 64)
        assert seen == [True, True]

    def test_dense_rows_slice_raw(self):
        e = SparseSignEmbedding(300, 40, seed=2)
        for start, stop in [(0, 300), (3, 40), (100, 257), (16, 32)]:
            np.testing.assert_array_equal(e.dense_rows(start, stop),
                                          e.raw[start:stop])
        # the dense form is not kept: each access forms it anew
        assert e.raw is not e.raw

    def test_norm_preserved_in_mean(self, rng):
        # unit-variance entries: E ||Sx||^2 / s = ||x||^2 at every s,
        # also on a cut-short last block (the mean's relative spread is
        # about sqrt(2 / s / 200), under 1% here)
        x = rng.standard_normal(500)
        for s in (128, 200):
            mean = np.mean([np.sum((SparseSignEmbedding(s, 500, seed).raw
                                    @ x) ** 2) / s for seed in range(200)])
            assert abs(mean / (x @ x) - 1) <= 0.05

    def test_row_sketch_counts_rmatvecs(self, rng):
        a = rng.standard_normal((30, 15))
        orc = DenseOracle(a)
        sk = row_sketch(SparseSignEmbedding(20, 30, seed=0), orc)
        assert orc.counters.rmatvecs == 20
        np.testing.assert_allclose(
            sk, SparseSignEmbedding(20, 30, seed=0).raw @ a, rtol=1e-13)


@pytest.mark.parametrize("cls", EMBEDDINGS)
class TestEmbeddingArguments:
    @pytest.mark.parametrize("rows,dim,seed", [
        (2.5, 10, 0), (True, 10, 0), (0, 10, 0), (2, 0, 0), (2, 10.0, 0),
        (2, 10, -1), (2, 10, 1.5), (2, 10, True)])
    def test_bad_shape_or_seed_rejected(self, cls, rows, dim, seed):
        with pytest.raises(InvalidInput):
            cls(rows, dim, seed)

    @pytest.mark.parametrize("rows", [6.5, True, 1])
    def test_bad_growth_rejected(self, cls, rows):
        with pytest.raises(InvalidInput):
            cls(2, 10, 0).grown(rows)

    def test_numpy_integers_pass(self, cls):
        e = cls(np.int64(2), np.int32(10), np.uint64(3)).grown(np.int64(4))
        np.testing.assert_array_equal(e.raw, cls(4, 10, 3).raw)
