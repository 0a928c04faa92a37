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
    "draw_gaussian",
    "row_sketch",
    "derive_seed",
]


def derive_seed(*parts):
    """Mix integer parts into a fresh 64-bit seed, deterministically."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class GaussianEmbedding:
    """A seeded s-by-dim Gaussian sketching matrix.

    ``scale`` multiplies the raw unit-variance entries: 1/sqrt(s) for a
    normalized embedding (approximate isometry on low-dimensional
    subspaces), 1.0 for raw entries as used by the norm estimator.
    """

    sketch_rows: int
    dim: int
    seed: int
    scale: float = 1.0
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
        """Unit-variance entries, before scaling."""
        return self._raw

    @property
    def matrix(self):
        """Scaled entries, shape (sketch_rows, dim)."""
        return self._raw if self.scale == 1.0 else self.scale * self._raw

    def grown(self, rows):
        """Same-seed, same-scale embedding with more rows; old rows kept.

        Resumes the Philox stream where this embedding's draw stopped,
        draws only the ``rows - sketch_rows`` new rows and stacks them
        under the existing ones, which equals a fresh draw of ``rows``
        rows bit for bit. This embedding is left unchanged, so growing
        it (or a copy) again yields the same rows.
        """
        if rows < self.sketch_rows:
            raise InvalidInput("grown() cannot shrink an embedding")
        if rows == self.sketch_rows:
            return GaussianEmbedding(rows, self.dim, self.seed, self.scale,
                                     _raw=self._raw, _state=self._state)
        bitgen = np.random.Philox(self.seed)
        bitgen.state = self._state
        gen = np.random.Generator(bitgen)
        fresh = gen.standard_normal((rows - self.sketch_rows, self.dim))
        return GaussianEmbedding(rows, self.dim, self.seed, self.scale,
                                 _raw=np.vstack([self._raw, fresh]),
                                 _state=bitgen.state)


def draw_gaussian(sketch_rows, dim, seed, normalized=True):
    """Draw a seeded Gaussian embedding.

    Parameters
    ----------
    sketch_rows, dim : int
        Shape of the embedding.
    seed : int
        Any 64-bit value; equal seeds give bitwise-equal embeddings.
    normalized : bool
        Scale entries by 1/sqrt(sketch_rows) so the sketch preserves
        norms in expectation. Pass False for raw unit-variance entries.
    """
    scale = 1.0 / np.sqrt(sketch_rows) if normalized else 1.0
    return GaussianEmbedding(int(sketch_rows), int(dim), int(seed), scale)


def row_sketch(embedding, oracle):
    """Compute ``G @ A`` through adjoint matvecs of the oracle.

    The embedding acts on the row space: one adjoint matvec per sketch
    row, which the oracle's counters record.
    """
    if embedding.dim != oracle.nrows:
        raise InvalidInput(
            f"embedding dim {embedding.dim} != oracle rows {oracle.nrows}")
    return oracle.rmatmat(embedding.matrix.T).T


@dataclass
class SketchPack:
    """Reusable state of one error-estimation sketch.

    ``row_sketch`` is G @ A for the raw (unscaled) embedding G and
    ``residual_sketch`` is G @ (A - CUR) for the factors it was last
    evaluated against. Reusing the pack recomputes only the residual.
    """

    embedding: GaussianEmbedding
    row_sketch: np.ndarray
    residual_sketch: np.ndarray = None
