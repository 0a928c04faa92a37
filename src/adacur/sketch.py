"""Seeded Gaussian sketching.

Embeddings are generated with numpy's Philox counter-based bit
generator, so the same (rows, dim, seed) triple reproduces the same
entries bit for bit, and a taller embedding drawn from the same seed
extends a shorter one row for row. An embedding keeps the generator
state reached after its last row, so growing it draws only the new
rows and appends them; the result equals a fresh draw of the taller
embedding.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput

__all__ = [
    "GaussianEmbedding",
    "SketchPack",
    "row_sketch",
    "derive_seed",
]


def derive_seed(*parts):
    """Mix integer parts into a fresh 64-bit seed, deterministically."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


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
        if self.sketch_rows <= 0 or self.dim <= 0:
            raise InvalidInput("embedding dimensions must be positive")
        if self._raw is None:
            gen = np.random.Generator(np.random.Philox(self.seed))
            self._raw = gen.standard_normal((self.sketch_rows, self.dim))
            self._state = gen.bit_generator.state

    @property
    def raw(self):
        """The unit-variance entries, shape (sketch_rows, dim)."""
        return self._raw

    def grown(self, rows):
        """Same-seed embedding with more rows; old rows kept.

        Resumes the Philox stream where this embedding's draw stopped,
        draws only the ``rows - sketch_rows`` new rows and stacks them
        under the existing ones, which equals a fresh draw of ``rows``
        rows bit for bit. This embedding is left unchanged, so growing
        it (or a copy) again yields the same rows.
        """
        if rows < self.sketch_rows:
            raise InvalidInput("grown() cannot shrink an embedding")
        bitgen = np.random.Philox(self.seed)
        bitgen.state = self._state
        gen = np.random.Generator(bitgen)
        fresh = gen.standard_normal((rows - self.sketch_rows, self.dim))
        return GaussianEmbedding(rows, self.dim, self.seed,
                                 _raw=np.vstack([self._raw, fresh]),
                                 _state=bitgen.state)


def row_sketch(embedding, oracle):
    """Compute ``G @ A`` through adjoint matvecs of the oracle.

    The embedding acts on the row space: one adjoint matvec per sketch
    row, which the oracle's counters record.
    """
    if embedding.dim != oracle.nrows:
        raise InvalidInput(
            f"embedding dim {embedding.dim} != oracle rows {oracle.nrows}")
    return oracle.rmatmat(embedding.raw.T).T


@dataclass
class SketchPack:
    """Reusable state of one error-estimation sketch.

    ``row_sketch`` is G @ A for the embedding G and ``residual_sketch``
    is G @ (A - CUR) for the factors it was last evaluated against.
    Reusing the pack recomputes only the residual.
    """

    embedding: GaussianEmbedding
    row_sketch: np.ndarray
    residual_sketch: np.ndarray = None

    def grown(self, oracle, rows):
        """Pack of a ``rows``-row embedding from the same seed, no residual.

        Draws only the new embedding rows and appends their sketch, one
        adjoint matvec each, to G @ A; the result equals a fresh pack of
        the taller embedding bit for bit.
        """
        emb = self.embedding.grown(rows)
        fresh = emb.raw[self.embedding.sketch_rows:]
        return SketchPack(emb, np.vstack([self.row_sketch,
                                          oracle.rmatmat(fresh.T).T]))
