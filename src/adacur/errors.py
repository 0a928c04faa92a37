"""Exception types shared across the package, and its input helpers."""

import os
import sys
import warnings

import numpy as np

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def warn_caller(message, category=UserWarning):
    """Issue a warning attributed to the first frame outside this package.

    A warning raised deep inside a driver then names the line of the
    user's code that called into the package, however many package
    frames lie in between.
    """
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(
            _PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


class InvalidInput(ValueError):
    """Arguments violate a documented precondition."""


def check_int(name, value, low=None):
    """``value`` as an int, once it is an integer of at least ``low``.

    numpy integers pass and bools do not; anything else raises
    :class:`InvalidInput` naming ``name``.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (low is not None and value < low)):
        kind = {None: "an integer", 0: "a non-negative integer",
                1: "a positive integer"}.get(low, f"an integer >= {low}")
        raise InvalidInput(f"{name} must be {kind}, got {value!r}")
    return int(value)


def check_indices(name, idx, bound=None):
    """``idx`` as a 1-d intp array, once it holds indices in [0, bound).

    A scalar is one index, and an empty array of any dtype passes.
    More than one dimension, a non-integer dtype (bools included) or a
    negative index raises :class:`InvalidInput` naming ``name``, as does
    an index at or above ``bound`` when one is given.
    """
    idx = np.atleast_1d(np.asarray(idx))
    if idx.ndim > 1:
        raise InvalidInput(f"{name} must be 1-d, got shape {idx.shape}")
    if idx.size == 0:
        return idx.astype(np.intp)
    if idx.dtype.kind not in "iu":
        raise InvalidInput(f"{name} must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.intp)
    if idx.min() < 0 or (bound is not None and idx.max() >= bound):
        span = "[0, inf)" if bound is None else f"[0, {bound})"
        raise InvalidInput(f"{name} out of range {span}")
    return idx


class NonConvergence(RuntimeError):
    """An iteration exceeded its safeguard limit."""


class ZeroMatrixSketch(RuntimeError):
    """The norm-estimation sketch of the matrix is identically zero."""


class NonFiniteSnapshot(RuntimeError):
    """A matrix of the sequence holds a NaN or infinite entry.

    Raised on the blocks a step fetches anyway (sketches of the matrix,
    its row block), not by a separate scan. ``step`` is the index of
    the offending step, which the drivers fill in; it is None when the
    matrix was handed to a routine directly. A bad snapshot is bad
    data, not a bad argument, so this is not an :class:`InvalidInput`.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step

    def __str__(self):
        message = super().__str__()
        return message if self.step is None else f"step {self.step}: {message}"


def check_finite(what, block):
    """``block``; a NaN or inf in it raises NonFiniteSnapshot naming what."""
    if not np.isfinite(block).all():
        raise NonFiniteSnapshot(f"{what} holds non-finite entries")
    return block


class IntegratorAccuracy(RuntimeError):
    """Step-halving check of the fixed-step integrator exceeded tolerance."""


class ParseError(ValueError):
    """A file could not be parsed. Carries the offending line number.

    ``detail`` is the message without its ``line N:`` prefix, for
    callers that re-raise with more context.
    """

    def __init__(self, message, line=None):
        self.detail = message
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
