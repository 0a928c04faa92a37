"""Certified rank-adaptive CUR tracking of a matrix sequence.

Per parameter value the driver first tries to reuse the previous
step's row/column indices, certifying them with a sketched relative
error estimate. If the estimate exceeds the tolerance it refines the
index sets in place (append residual-guided columns, read the enlarged
column block once, grow rows on it, order its cross as the fast driver
orders its core, truncate to the new rank) with its sketch doubled up
to four times until an attempt passes, or else recomputes the indices
from scratch. The counters h1 and h2 track how often the two repair
paths fire after the first step.
"""

import numbers
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ZeroMatrixSketch, check_int
from .linalg import (cpqr, eps_rank_from_rdiag, lu_pivots, lu_row_id, srrqr,
                     stable_cur_eval)
from .normest import estimate_cur_error
from .oversample import oversample_rows_multi
from .pivoting import IndexSelection, rand_pivot_rankest
from .problems import true_relative_error
from .sketch import derive_seed

__all__ = ["AdaCurConfig", "StepTrace", "CURFactors", "adacur_run",
           "refine_indices", "recompute_baseline_run"]


def _check_config(cfg, **least):
    """Validate the fields the driver configs share, at construction.

    ``least`` maps each integer count field to its smallest allowed
    value; ``seed`` must be an integer too (numpy ints pass, bools do
    not). ``tol`` must be a real number in (0, 1), and the flags the
    config has must be bools (numpy bools pass).
    """
    check_int("seed", cfg.seed)
    for name, low in least.items():
        check_int(name, getattr(cfg, name), low)
    if not isinstance(cfg.tol, numbers.Real) or not 0.0 < cfg.tol < 1.0:
        raise InvalidInput(f"tol must be a real in (0, 1), got {cfg.tol!r}")
    for name in ("true_error", "store_factors"):
        value = getattr(cfg, name, False)
        if not isinstance(value, (bool, np.bool_)):
            raise InvalidInput(f"{name} must be a bool, got {value!r}")


@dataclass
class AdaCurConfig:
    """Settings for the certified adaptive driver.

    ``tol`` is the relative Frobenius error target; ``err_samples`` the
    sketch rows used for certification; ``oversample`` the number of
    extra rows kept beyond the square cross. The rank-truncation
    tolerance is 0.5 * tol / sqrt(n). A failed refinement is retried
    with ``err_samples`` doubled, up to four times, before the step
    recomputes.
    ``true_error`` additionally records the exact relative error per
    step (reads the full matrix; for reporting only). With
    ``store_factors`` off the returned factors carry indices only,
    which keeps long large runs from pinning memory.
    """

    tol: float
    err_samples: int = 5
    oversample: int = 0
    seed: int = 0
    true_error: bool = False
    store_factors: bool = True

    def __post_init__(self):
        _check_config(self, err_samples=1, oversample=0)


@dataclass
class StepTrace:
    """Per-step record of what the driver did and what it cost."""

    step: int
    t: float
    rank: int
    est_rel_err: float | None
    true_rel_err: float | None
    action: str
    h1_cum: int
    h2_cum: int
    matvecs: int
    wall_ms: float
    entries_read: int = 0


@dataclass
class CURFactors:
    """Explicit CUR factors tied to an index selection.

    ``u`` equals ``c`` restricted to the selected (+extra) rows and
    ``r`` restricted to the selected columns, elementwise. When a run
    is configured not to store factors the three arrays are None and
    only ``selection`` is meaningful.
    """

    c: np.ndarray | None
    u: np.ndarray | None
    r: np.ndarray | None
    selection: IndexSelection

    @property
    def rank(self):
        return int(self.selection.cols.size)

    def operator(self):
        """``LowRankOperator(C pinv(U), R)``, C pinv(U) as the estimator
        scores it; its ``rank`` is the row count, extra rows included."""
        if self.c is None:
            raise InvalidInput("factors were not stored for this step")
        return stable_cur_eval(self.c, self.u, self.r)


# Share of the tolerance left to rank truncation: the rank tolerance is
# _RANK_SAFETY * tol / sqrt(n).
_RANK_SAFETY = 0.5


def _rank_tol(cfg, n):
    return _RANK_SAFETY * cfg.tol / np.sqrt(n)


def _grow(ids, row_id, count):
    """``ids`` and ``count`` more indices oversampled from ``row_id``.

    Every growth of a row or column set goes through here; ``row_id``
    is the LU row ID of the block whose rows the indices pick.
    """
    if count <= 0:
        return ids
    return np.concatenate([ids, oversample_rows_multi(row_id, ids, count)])


def _extract_factors(oracle, sel, col_block=None, row_block=None):
    """Fetch C and R for ``sel`` and slice U out of the shared entries.

    U is taken from the fetched row block and written back into the
    column block so the factor cross-consistency is exact even when an
    oracle's row and column fetches round intermediate products
    differently. ``col_block`` is ``A[:, sel.cols]`` and ``row_block``
    is ``A[sel.all_rows, :]`` if the caller already fetched them; they
    become C and R, and C is overwritten in place.
    """
    m, n = oracle.shape
    if sel.is_empty:
        return CURFactors(np.zeros((m, 0)), np.zeros((0, 0)),
                          np.zeros((0, n)), sel)
    rows = sel.all_rows
    rfac = oracle.row_block(rows) if row_block is None else row_block
    c = oracle.col_block(sel.cols) if col_block is None else col_block
    u = rfac[:, sel.cols].copy()
    c[rows, :] = u
    return CURFactors(c, u, rfac, sel)


def _order_cross(rows, cols, g, rank_tol):
    """Order the cross ``g = A[rows, cols]``; return (rows, cols, rank).

    One strong rank-revealing QR of g orders the columns, and its R
    diagonal gives the rank. LUPP of the column-ordered g orders the
    rows; its first r pivots depend on the first r columns only, so they
    are the skeleton rows of the r leading pivot columns.
    """
    col_qr = srrqr(g)
    rank = eps_rank_from_rdiag(col_qr.r, rank_tol)
    return rows[lu_pivots(g[:, col_qr.pivots])], cols[col_qr.pivots], rank


def refine_indices(oracle, sel, pack, cfg):
    """Minor modification of an index selection against the residual.

    Appends residual-guided columns J1, from column-pivoted QR of the
    residual sketch on the unchosen columns (one per sketch row), and
    reads the enlarged column block A[:, J + J1] once. Every other
    step works on that block: ``|J1|`` new rows grow by :func:`_grow`
    on its row ID (of its first m columns if it is wide), the enlarged
    cross is its row slice and is ordered by :func:`_order_cross` and
    truncated to the revealed rank, the kept columns become C, and
    ``oversample`` extra rows grow on C's row ID as a recompute grows
    them. The error is re-estimated reusing the pack's matrix sketch.

    Returns the refined selection's :class:`CURFactors`, the new error
    estimate, and whether the estimate meets the tolerance. The
    estimate scores those factors from the pack's matrix sketch and
    their row block, so an attempt reads one column block and one row
    block; ``factors.selection`` is the refined selection.
    """
    if pack.residual_sketch is None:
        raise InvalidInput("pack must carry a residual sketch")
    m, n = oracle.shape
    es = pack.residual_sketch
    rows = sel.all_rows
    unchosen_cols = np.setdiff1d(np.arange(n), sel.cols)
    j1 = np.array([], dtype=np.intp)
    if unchosen_cols.size:
        j1 = unchosen_cols[cpqr(es[:, unchosen_cols]).pivots[:es.shape[0]]]
    cols = np.concatenate([sel.cols, j1])
    blk = oracle.col_block(cols)
    rows = _grow(rows, lu_row_id(blk[:, :m]), min(j1.size, m - rows.size))
    # order column positions in blk, so the kept ones slice C out of it
    rows, pos, rank = _order_cross(rows, np.arange(cols.size), blk[rows],
                                   _rank_tol(cfg, n))
    rows, c = rows[:rank], blk[:, pos[:rank]]
    if rank:
        rows = _grow(rows, lu_row_id(c), min(cfg.oversample, m - rank))
    sel_new = IndexSelection(rows[:rank], cols[pos[:rank]], rows[rank:])
    fac = _extract_factors(oracle, sel_new, c)
    est = estimate_cur_error(oracle, sel_new.cols, fac.r, reuse=pack)
    return fac, est, est.rel_error <= cfg.tol


_H1_ACTIONS = ("MINOR_MOD", "TRUNCATE")
_H2_ACTIONS = ("RECOMPUTE", "EXPAND")


def _track(seq, cfg, step):
    """The step loop the drivers share; ``step`` is the per-step policy.

    ``step(j, oracle)`` returns ``(factors, action, est_rel_err)``. This
    loop meters each step's oracle reads and wall time, tallies h1
    (MINOR_MOD, TRUNCATE) and h2 (RECOMPUTE, EXPAND) from step 2 on,
    records exact errors when ``cfg.true_error`` asks for them, drops
    the factor arrays unless ``cfg.store_factors`` keeps them, and
    attaches to any escaping exception the traces made so far as
    ``partial_trace`` and, unless it already names one, the index of
    the step that raised it as ``step``.
    """
    if len(seq) == 0:
        raise InvalidInput("sequence is empty")
    results = []
    h1 = h2 = 0
    try:
        for j in range(len(seq)):
            oracle = seq.oracle(j)
            counters = oracle.counters
            mark = counters.total_matvecs, counters.entries_read
            t0 = time.perf_counter()
            fac, action, est_val = step(j, oracle)
            matvecs = counters.total_matvecs - mark[0]
            entries = counters.entries_read - mark[1]
            wall_ms = 1e3 * (time.perf_counter() - t0)
            if j > 0:
                h1 += action in _H1_ACTIONS
                h2 += action in _H2_ACTIONS
            true_val = None
            if getattr(cfg, "true_error", False):
                true_val = true_relative_error(oracle, fac.operator())
            trace = StepTrace(step=j, t=float(seq.params[j]), rank=fac.rank,
                              est_rel_err=est_val, true_rel_err=true_val,
                              action=action, h1_cum=h1, h2_cum=h2,
                              matvecs=matvecs, wall_ms=wall_ms,
                              entries_read=entries)
            if not cfg.store_factors:
                fac = CURFactors(None, None, None, fac.selection)
            results.append((fac, trace))
    except Exception as exc:
        if getattr(exc, "step", None) is None:
            exc.step = j
        exc.partial_trace = [tr for _, tr in results]
        raise
    return results


def _estimate(oracle, cfg, j, fac, reuse=None):
    """Sketched relative error of ``fac``; None if the matrix sketch is zero."""
    try:
        return estimate_cur_error(oracle, fac.selection.cols, fac.r,
                                  s=cfg.err_samples,
                                  seed=derive_seed(cfg.seed, j, 0xE5),
                                  reuse=reuse)
    except ZeroMatrixSketch:
        return None


def _scratch_step(oracle, cfg, j, reuse=None):
    """Recompute the indices from scratch and estimate the error.

    The extra rows are oversampled on the row ID the row pivots came
    from, and the column block read for the pivots becomes C.
    """
    m, n = oracle.shape
    sel, c, row_id = rand_pivot_rankest(oracle, _rank_tol(cfg, n),
                                        derive_seed(cfg.seed, j, 0x5C))
    r = sel.rows.size
    if r:
        rows = _grow(sel.rows, row_id, min(cfg.oversample, m - r))
        sel = IndexSelection(rows[:r], sel.cols, rows[r:])
    fac = _extract_factors(oracle, sel, c)
    est = _estimate(oracle, cfg, j, fac, reuse)
    return fac, "RECOMPUTE", 0.0 if est is None else est.rel_error


# Refinement attempts see s, 2s, 4s, 8s and 16s sketch rows.
_DOUBLINGS = 4


def _adaptive_step(oracle, cfg, j, sel):
    """Reuse ``sel``, else refine it at growing sketches, else recompute."""
    fac = _extract_factors(oracle, sel)
    est = _estimate(oracle, cfg, j, fac)
    if est is None:
        # a zero matrix is exact with no indices; dropping a non-empty
        # selection counts as a recomputation
        action = "REUSE" if sel.is_empty else "RECOMPUTE"
        return _extract_factors(oracle, IndexSelection.empty()), action, 0.0
    if est.rel_error <= cfg.tol:
        return fac, "REUSE", est.rel_error
    if not sel.is_empty:
        pack = est.pack
        for attempt in range(1 + _DOUBLINGS):
            if attempt:
                # the reused factors' residual on the taller sketch
                grown = pack.grown(oracle, 2 * pack.embedding.sketch_rows)
                pack = estimate_cur_error(oracle, sel.cols, fac.r,
                                          reuse=grown).pack
            fac_new, est_new, ok = refine_indices(oracle, sel, pack, cfg)
            if ok:
                return fac_new, "MINOR_MOD", est_new.rel_error
    return _scratch_step(oracle, cfg, j, reuse=est.pack)


def adacur_run(seq, cfg):
    """Track ``seq`` with certified accuracy; one (factors, trace) per step.

    The first step computes indices from scratch and is labeled
    RECOMPUTE, but does not count toward h2: the cumulative h1/h2
    fields count minor modifications and recomputations from step 2 on.
    If an exception escapes mid-run the traces produced so far are
    attached to it as ``partial_trace``.
    """
    sel = IndexSelection.empty()

    def step(j, oracle):
        nonlocal sel
        out = (_scratch_step(oracle, cfg, j) if j == 0
               else _adaptive_step(oracle, cfg, j, sel))
        sel = out[0].selection
        return out

    return _track(seq, cfg, step)


def recompute_baseline_run(seq, cfg):
    """From-scratch index computation at every step, for comparison runs.

    Every step behaves like the adaptive driver's first step; h2 counts
    the recomputations from step 2 on (h1 stays zero).
    """
    return _track(seq, cfg, lambda j, oracle: _scratch_step(oracle, cfg, j))
