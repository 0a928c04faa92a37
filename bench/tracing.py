"""Span tracing installed on the adacur package from outside it.

A :class:`Tracer` wraps callables so that each call records one span:
its name, start, end and the index of the span that was open when it
began. Wrappers are installed on the module-level names the callers
actually look up (``adacur.driver.estimate_cur_error``, not only
``adacur.normest.estimate_cur_error``), and on the public methods of
``MatrixOracle`` and ``GaussianEmbedding``. The package itself is not
modified; :meth:`Tracer.installed` restores every original on exit.

Self time of a span is its duration minus the durations of its direct
children. Calls run on one thread, so children never overlap and the
self times of all spans under a root add up to the root's duration.

Flop counts are computed from the recorded call shapes with textbook
Householder and SVD operation counts; they are not measured.
"""

import contextlib
import functools
import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder with per-name call and quantity tallies."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.counts = defaultdict(int)
        self.drawn_by_seed = defaultdict(int)
        self.largest_by_seed = defaultdict(int)
        self.missing = []

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def _close(self, idx):
        self.ends[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record the body of a ``with`` block as one span."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` recording a span per call.

        ``before(tracer, args, kwargs)`` and
        ``after(tracer, args, kwargs, result)`` run outside the span and
        add call-shape quantities to :attr:`counts`.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch ``(owner, attr, name, before, after)`` targets, then restore.

        Targets whose attribute does not exist are skipped and listed in
        :attr:`missing`, so a renamed function shows up as untraced time
        in its caller instead of stopping the run.
        """
        saved = []
        self.missing = []
        try:
            for owner, attr, name, before, after in targets:
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def record_draw(self, seed, size):
        """Tally ``size`` Gaussians drawn from the stream of ``seed``."""
        self.drawn_by_seed[seed] += size
        self.largest_by_seed[seed] = max(self.largest_by_seed[seed], size)

    def redraw_ratio(self):
        """Gaussians drawn over the size of the largest embedding per seed.

        1.0 means every Gaussian was drawn once; growing an embedding by
        regenerating it from its seed pushes the ratio above 1.
        """
        largest = sum(self.largest_by_seed.values())
        return sum(self.drawn_by_seed.values()) / largest if largest else 0.0

    def self_times(self):
        """Per-name (self seconds, calls) over all closed spans."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = defaultdict(float)
        calls = defaultdict(int)
        for i, name in enumerate(self.names):
            out[name] += (self.ends[i] - self.starts[i]) - child[i]
            calls[name] += 1
        return out, calls

    def root_seconds(self):
        """Summed duration of spans that have no parent."""
        return sum(self.ends[i] - self.starts[i]
                   for i, p in enumerate(self.parents) if p < 0)


# -- call-shape probes ---------------------------------------------------

def qr_flops(m, n):
    """Householder QR of an m-by-n matrix plus its thin Q factor.

    Factorization 4mnk - 2(m + n)k^2 + 4k^3/3 and thin-Q formation
    2mk^2 - 2k^3/3 with k = min(m, n) (LAPACK working note 41);
    column-pivoting norm updates are left out.
    """
    k = min(m, n)
    return int(4 * m * n * k - 2 * (m + n) * k * k + 4 * k ** 3 / 3
               + 2 * m * k * k - 2 * k ** 3 / 3)


def thin_svd_flops(m, n):
    """Golub-Reinsch thin SVD with both factors: 14 M N^2 + 8 N^3."""
    big, small = max(m, n), min(m, n)
    return int(14 * big * small * small + 8 * small ** 3)


def _count(key, amount):
    def after(tracer, args, kwargs, result):
        tracer.counts[key] += amount(args, kwargs, result)
    return after


def _columns(args, kwargs, result):
    return np.shape(args[1])[1]


def _cpqr_flops(args, kwargs, result):
    return qr_flops(*np.shape(args[0]))


def _cur_eval_flops(args, kwargs, result):
    (m, j), (i, _), n = np.shape(args[0]), np.shape(args[1]), np.shape(args[2])[1]
    k = result.rank
    return thin_svd_flops(i, j) + 2 * m * j * k + 2 * k * i * n


def _embedding_draw(tracer, args, kwargs):
    emb = args[0]
    if emb._raw is None:
        tracer.record_draw(emb.seed, emb.sketch_rows * emb.dim)


def _embedding_grow(tracer, args, kwargs):
    emb = args[0]
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    if rows > emb.sketch_rows:
        tracer.record_draw(emb.seed, rows * emb.dim)


def _file_bytes(tracer, args, kwargs):
    tracer.counts["fileio.bytes_read"] += os.path.getsize(args[0])


def _values_parsed(args, kwargs, result):
    mat = result[1]
    return int(mat.nnz) if hasattr(mat, "nnz") else int(mat.size)


def package_targets():
    """Every traced call site of the package, as install targets.

    Names are ``<module>.<function>``; :data:`LAYER_TIMES` groups them
    into per-module metrics.
    """
    from adacur import (driver, fast, fileio, linalg, normest, oracles,
                        oversample, pivoting, rankest, sketch)

    mo, emb = oracles.MatrixOracle, sketch.GaussianEmbedding
    one = _count("oracles.matvecs", lambda a, k, r: 1)
    many = _count("oracles.matvecs", _columns)
    r_one = _count("oracles.rmatvecs", lambda a, k, r: 1)
    r_many = _count("oracles.rmatvecs", _columns)
    cpqr = ("linalg.cpqr", None, _count("linalg.cpqr_flops", _cpqr_flops))
    cur_eval = ("linalg.stable_cur_eval", None,
                _count("linalg.stable_cur_eval_flops", _cur_eval_flops))
    srrqr = ("linalg.srrqr", None,
             _count("linalg.srrqr_swaps", lambda a, k, r: r.swaps))
    return [
        (mo, "matvec", "oracles.matvec", None, one),
        (mo, "matmat", "oracles.matmat", None, many),
        (mo, "rmatvec", "oracles.rmatvec", None, r_one),
        (mo, "rmatmat", "oracles.rmatmat", None, r_many),
        (mo, "row_block", "oracles.row_block", None, None),
        (mo, "col_block", "oracles.col_block", None, None),
        (mo, "submatrix", "oracles.submatrix", None, None),
        (emb, "__post_init__", "sketch.embedding", _embedding_draw, None),
        (emb, "grown", "sketch.grown", _embedding_grow, None),
        (rankest, "row_sketch", "sketch.row_sketch", None, None),
        (pivoting, "row_sketch", "sketch.row_sketch", None, None),
        (normest, "row_sketch", "sketch.row_sketch", None, None),
        (pivoting, "estimate_rank", "rankest.estimate_rank", None, None),
        (driver, "rand_pivot_rankest", "pivoting.rand_pivot_rankest",
         None, None),
        (fast, "rand_pivot_rankest", "pivoting.rand_pivot_rankest",
         None, None),
        (pivoting, "rand_pivot", "pivoting.rand_pivot", None, None),
        (driver, "oversample_rows_multi", "oversample.oversample_rows_multi",
         None, None),
        (fast, "oversample_rows_multi", "oversample.oversample_rows_multi",
         None, None),
        (fast, "oversample_rows", "oversample.oversample_rows", None, None),
        (oversample, "oversample_rows", "oversample.oversample_rows",
         None, None),
        (driver, "cpqr", *cpqr),
        (pivoting, "cpqr", *cpqr),
        (oversample, "cpqr", *cpqr),
        (linalg, "cpqr", *cpqr),
        (driver, "srrqr", *srrqr),
        (fast, "srrqr", *srrqr),
        (driver, "stable_cur_eval", *cur_eval),
        (normest, "stable_cur_eval", *cur_eval),
        (driver, "estimate_cur_error", "normest.estimate_cur_error",
         None, None),
        (driver, "refine_indices", "driver.refine_indices", None,
         _count("driver.refine_accepted", lambda a, k, r: int(bool(r[2])))),
        (fileio, "load_sequence_dir", "fileio.load_sequence_dir",
         None, None),
        (fileio, "read_matrix_market", "fileio.read_matrix_market",
         _file_bytes, _count("fileio.values_parsed", _values_parsed)),
    ]


# Per-module self-time metrics (milliseconds) and the span names they sum.
LAYER_TIMES = {
    "problems.oracle_build_ms": ("problems.provider",),
    "oracles.matmat_ms": ("oracles.matvec", "oracles.matmat",
                          "oracles.rmatvec", "oracles.rmatmat"),
    "oracles.block_ms": ("oracles.row_block", "oracles.col_block",
                         "oracles.submatrix"),
    "sketch.embedding_ms": ("sketch.embedding", "sketch.grown",
                            "sketch.row_sketch"),
    "rankest.ms": ("rankest.estimate_rank",),
    "pivoting.ms": ("pivoting.rand_pivot_rankest", "pivoting.rand_pivot"),
    "oversample.ms": ("oversample.oversample_rows_multi",
                      "oversample.oversample_rows"),
    "linalg.cpqr_ms": ("linalg.cpqr",),
    "linalg.srrqr_ms": ("linalg.srrqr",),
    "linalg.stable_cur_eval_ms": ("linalg.stable_cur_eval",),
    "normest.ms": ("normest.estimate_cur_error",),
    "driver.refine_ms": ("driver.refine_indices",),
    "loop.self_ms": ("loop",),
    "fileio.read_ms": ("fileio.read_matrix_market",),
    "fileio.assemble_ms": ("fileio.load_sequence_dir",),
}


def layer_metrics(tracer):
    """Generic per-module metrics of everything the tracer recorded."""
    secs, calls = tracer.self_times()
    unknown = set(secs) - {n for names in LAYER_TIMES.values() for n in names}
    if unknown:
        raise ValueError(f"spans without a layer metric: {sorted(unknown)}")
    out = {metric: 1e3 * sum(secs.get(n, 0.0) for n in names)
           for metric, names in LAYER_TIMES.items()}
    c = tracer.counts
    refines = calls.get("driver.refine_indices", 0)
    out.update({
        "oracles.matvecs": c["oracles.matvecs"],
        "oracles.rmatvecs": c["oracles.rmatvecs"],
        "oracles.col_block_calls": calls.get("oracles.col_block", 0),
        "sketch.redraw_ratio": tracer.redraw_ratio(),
        "rankest.calls": calls.get("rankest.estimate_rank", 0),
        "oversample.calls": calls.get("oversample.oversample_rows", 0),
        "linalg.cpqr_flops": c["linalg.cpqr_flops"],
        "linalg.srrqr_swaps": c["linalg.srrqr_swaps"],
        "linalg.stable_cur_eval_flops": c["linalg.stable_cur_eval_flops"],
        "normest.calls": calls.get("normest.estimate_cur_error", 0),
        "driver.refine_calls": refines,
        "driver.refine_accept_ratio": (c["driver.refine_accepted"] / refines
                                       if refines else 0.0),
        "fileio.bytes_read": c["fileio.bytes_read"],
        "fileio.values_parsed": c["fileio.values_parsed"],
    })
    return out
