"""Seeded sketching: Gaussian and sparse sign embeddings.

Both embeddings are generated with numpy's Philox counter-based bit
generator, so the same (rows, dim, seed) triple reproduces the same
entries bit for bit, and a taller embedding drawn from the same seed
extends a shorter one row for row. An embedding keeps the generator
state reached after its last draw, so growing it draws only the new
rows and appends them; the result equals a fresh draw of the taller
embedding.

:class:`SparseSignEmbedding` serves rank detection, where any subspace
embedding will do and drawing is the cost that matters.
:class:`GaussianEmbedding` serves error estimation, whose probability
bounds are Gaussian results.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, check_int

__all__ = [
    "GaussianEmbedding",
    "SparseSignEmbedding",
    "SketchPack",
    "row_sketch",
    "derive_seed",
]


def derive_seed(*parts):
    """Mix integer parts into a fresh 64-bit seed, deterministically."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def _check_shape(emb):
    """The shared argument check of both embedding classes; numpy
    integers are stored as ints."""
    emb.sketch_rows = check_int("sketch_rows", emb.sketch_rows, 1)
    emb.dim = check_int("dim", emb.dim, 1)
    emb.seed = check_int("seed", emb.seed, 0)


def _check_growth(emb, rows):
    """``rows`` as an int, once it is a valid row count to grow to."""
    rows = check_int("rows", rows, 1)
    if rows < emb.sketch_rows:
        raise InvalidInput("grown() cannot shrink an embedding")
    return rows


@dataclass
class GaussianEmbedding:
    """A seeded s-by-dim Gaussian sketching matrix of unit-variance entries.

    Callers that want a normalized embedding (an approximate isometry
    on low-dimensional subspaces) divide what it sketches by sqrt(s).
    """

    sketch_rows: int
    dim: int
    seed: int
    _raw: np.ndarray = field(default=None, repr=False, compare=False)
    _state: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _check_shape(self)
        if self._raw is None:
            gen = np.random.Generator(np.random.Philox(self.seed))
            self._raw = gen.standard_normal((self.sketch_rows, self.dim))
            self._state = gen.bit_generator.state

    @property
    def raw(self):
        """The unit-variance entries, shape (sketch_rows, dim)."""
        return self._raw

    def dense_rows(self, start, stop):
        """Rows ``start:stop`` of :attr:`raw`."""
        return self._raw[start:stop]

    def grown(self, rows):
        """Same-seed embedding with more rows; old rows kept.

        Resumes the Philox stream where this embedding's draw stopped,
        draws only the ``rows - sketch_rows`` new rows and stacks them
        under the existing ones, which equals a fresh draw of ``rows``
        rows bit for bit. This embedding is left unchanged, so growing
        it (or a copy) again yields the same rows.
        """
        rows = _check_growth(self, rows)
        bitgen = np.random.Philox(self.seed)
        bitgen.state = self._state
        gen = np.random.Generator(bitgen)
        fresh = gen.standard_normal((rows - self.sketch_rows, self.dim))
        return GaussianEmbedding(rows, self.dim, self.seed,
                                 _raw=np.vstack([self._raw, fresh]),
                                 _state=bitgen.state)


# Nonzeros per column in each block of a sparse sign embedding.
_BANDS = 8
_BAND_INDEX = np.arange(_BANDS)[:, None]


def _block_span(j):
    """Rows [start, stop) of block j: blocks hold 8, 8, 16, 32, ... rows."""
    return (0, _BANDS) if j == 0 else (_BANDS << (j - 1), _BANDS << j)


def _blocks_for(rows):
    """Number of blocks that cover the first ``rows`` rows."""
    return max(1, (rows - 1).bit_length() - 2)


def _band_type(w):
    """Unsigned type that holds one band's row (low bits) and sign (top
    bit) for bands of w rows: 8, 16 or 32 bits."""
    return np.dtype("<u1" if w <= 1 << 7 else "<u2" if w <= 1 << 15
                    else "<u4")


def _draw_blocks(bitgen, first, stop, dim):
    """Raw words of blocks ``first:stop``: one word per column and byte
    of the band type."""
    out = []
    for j in range(first, stop):
        start, end = _block_span(j)
        width = _band_type((end - start) // _BANDS).itemsize
        out.append(bitgen.random_raw(dim * width))
    return out


@dataclass
class SparseSignEmbedding:
    """A seeded s-by-dim sparse sign embedding of unit-variance entries.

    Rows come in blocks of 8, 8, 16, 32, ... rows, the doubling
    schedule of the rank estimator. A block of b rows is split into 8
    bands of w = b/8 rows, and each column holds exactly one entry
    ±sqrt(w) per band, at a uniform row of it (the Kane–Nelson block
    construction). Every entry has mean 0 and variance 1, as a
    Gaussian embedding's does, so callers normalize by sqrt(s) alike,
    also when the last block is cut short by ``sketch_rows``.

    One raw Philox word per column and block holds all eight bands: the
    low bits of each byte give the row within the band, its top bit the
    sign (bands wider than 128 rows take 16 or 32 bits, so two or four
    words). Only these words are stored; :attr:`raw` densifies once, on
    first access, and :meth:`dense_rows` densifies the rows asked for.
    """

    sketch_rows: int
    dim: int
    seed: int
    _words: list = field(default=None, repr=False, compare=False)
    _state: dict = field(default=None, repr=False, compare=False)
    _raw: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _check_shape(self)
        if self._words is None:
            bitgen = np.random.Philox(self.seed)
            self._words = _draw_blocks(bitgen, 0,
                                       _blocks_for(self.sketch_rows), self.dim)
            self._state = bitgen.state

    @property
    def raw(self):
        """The dense entries, shape (sketch_rows, dim)."""
        if self._raw is None:
            self._raw = self.dense_rows(0, self.sketch_rows)
        return self._raw

    def dense_rows(self, start, stop):
        """Rows ``start:stop`` as a dense array, built from the words."""
        dim = self.dim
        out = np.zeros((stop - start, dim))
        for j, words in enumerate(self._words):
            lo, hi = _block_span(j)
            if hi <= start or lo >= stop:
                continue
            w = (hi - lo) // _BANDS
            kind = _band_type(w)
            # band-major, so that the scatter below walks the block row
            # by row
            vals = np.ascontiguousarray(words.astype("<u8", copy=False).view(
                kind).reshape(dim, _BANDS).T)
            entry = (vals >> (8 * kind.itemsize - 1)).astype(float)
            entry *= -2.0 * np.sqrt(w)
            entry += np.sqrt(w)
            inside = start <= lo and hi <= stop
            block = (out[lo - start:hi - start] if inside
                     else np.zeros((hi - lo, dim)))
            bands = block.reshape(_BANDS, w, dim)
            if w == 1:    # the first two blocks: one row per band
                bands[:, 0] = entry
            else:
                bands[_BAND_INDEX, vals & (w - 1), np.arange(dim)] = entry
            if not inside:
                a, z = max(lo, start), min(hi, stop)
                out[a - start:z - start] = block[a - lo:z - lo]
        return out

    def grown(self, rows):
        """Same-seed embedding with more rows; old rows kept.

        Resumes the Philox stream where this embedding's draw stopped
        and draws only the blocks not yet drawn, which equals a fresh
        draw of ``rows`` rows bit for bit. If :attr:`raw` was formed
        here, the new embedding's is too, densifying only the new rows.
        This embedding is left unchanged.
        """
        rows = _check_growth(self, rows)
        bitgen = np.random.Philox(self.seed)
        bitgen.state = self._state
        words = self._words + _draw_blocks(bitgen, len(self._words),
                                           _blocks_for(rows), self.dim)
        emb = SparseSignEmbedding(rows, self.dim, self.seed, _words=words,
                                  _state=bitgen.state)
        if self._raw is not None:
            emb._raw = np.vstack([self._raw,
                                  emb.dense_rows(self.sketch_rows, rows)])
        return emb


def row_sketch(embedding, oracle):
    """Compute ``G @ A`` through adjoint matvecs of the oracle.

    The embedding acts on the row space: one adjoint matvec per sketch
    row, which the oracle's counters record.
    """
    if embedding.dim != oracle.nrows:
        raise InvalidInput(
            f"embedding dim {embedding.dim} != oracle rows {oracle.nrows}")
    return oracle.rmatmat(embedding.dense_rows(0, embedding.sketch_rows).T).T


@dataclass
class SketchPack:
    """Reusable state of one sketch of A.

    ``row_sketch`` is G @ A for the embedding G (either class) and
    ``residual_sketch`` is G @ (A - CUR) for the factors it was last
    evaluated against. Reusing the pack recomputes only the residual.
    """

    embedding: GaussianEmbedding | SparseSignEmbedding
    row_sketch: np.ndarray
    residual_sketch: np.ndarray = None

    def grown(self, oracle, rows):
        """Pack of a ``rows``-row embedding from the same seed, no residual.

        Draws only the new embedding rows and appends their sketch, one
        adjoint matvec each, to G @ A; the result equals a fresh pack of
        the taller embedding bit for bit.
        """
        emb = self.embedding.grown(rows)
        fresh = emb.dense_rows(self.embedding.sketch_rows, rows)
        return SketchPack(emb, np.vstack([self.row_sketch,
                                          oracle.rmatmat(fresh.T).T]))
