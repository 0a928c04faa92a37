"""Certified rank-adaptive CUR tracking of a matrix sequence.

Per parameter value the driver first tries to reuse the previous
step's row/column indices, certifying them with a sketched relative
error estimate. If the estimate exceeds the tolerance it refines the
index sets in place (append residual-guided pivots, order the enlarged
cross as the fast driver orders its core, truncate to the new rank); if
even that fails it recomputes the indices from scratch. The counters h1
and h2 track how often the two repair paths fire after the first step.
"""

import numbers
import time
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInput, NonFiniteSnapshot, ZeroMatrixSketch,
                     warn_caller)
from .linalg import (cpqr, eps_rank_from_rdiag, lu_pivots, srrqr,
                     stable_cur_eval)
from .normest import estimate_cur_error
from .oversample import oversample_rows_multi
from .pivoting import IndexSelection, rand_pivot_rankest
from .problems import true_relative_error
from .sketch import SketchPack, derive_seed

__all__ = ["AdaCurConfig", "StepTrace", "CURFactors", "adacur_run",
           "refine_indices", "recompute_baseline_run"]


def _check_config(cfg, **least):
    """Validate the fields the driver configs share, at construction.

    ``least`` maps each integer count field to its smallest allowed
    value; ``seed`` must be an integer too (numpy ints pass, bools do
    not). ``tol`` must be a real number in (0, 1), and the flags the
    config has must be bools (numpy bools pass).
    """
    for name in (*least, "seed"):
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if not isinstance(cfg.tol, numbers.Real) or not 0.0 < cfg.tol < 1.0:
        raise InvalidInput(f"tol must be a real in (0, 1), got {cfg.tol!r}")
    for name in ("escalate_s", "true_error", "store_factors"):
        value = getattr(cfg, name, False)
        if not isinstance(value, (bool, np.bool_)):
            raise InvalidInput(f"{name} must be a bool, got {value!r}")
    for name, low in least.items():
        if getattr(cfg, name) < low:
            raise InvalidInput(f"{name} must be >= {low}")


@dataclass
class AdaCurConfig:
    """Settings for the certified adaptive driver.

    ``tol`` is the relative Frobenius error target; ``err_samples`` the
    sketch rows used for certification; ``oversample`` the number of
    extra rows kept beyond the square cross. The rank-truncation
    tolerance is 0.5 * tol / sqrt(n).
    ``escalate_s`` retries a failed refinement with a doubled sketch
    (up to four doublings) before falling back to recomputation.
    ``true_error`` additionally records the exact relative error per
    step (reads the full matrix; for reporting only). With
    ``store_factors`` off the returned factors carry indices only,
    which keeps long large runs from pinning memory.
    """

    tol: float
    err_samples: int = 5
    oversample: int = 0
    seed: int = 0
    escalate_s: bool = False
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
        """Stable factored evaluation of C pinv(U) R."""
        if self.c is None:
            raise InvalidInput("factors were not stored for this step")
        return stable_cur_eval(self.c, self.u, self.r)


# Share of the tolerance left to rank truncation: the rank tolerance is
# _RANK_SAFETY * tol / sqrt(n).
_RANK_SAFETY = 0.5


def _rank_tol(cfg, n):
    return _RANK_SAFETY * cfg.tol / np.sqrt(n)


def _scratch_factors(oracle, cfg, seed):
    """Factors from scratch: sketched rank estimate, pivots, extra rows.

    The column block A[:, J] read for the row pivots becomes C, and the
    row ID its pivots came from gives the oversampling basis, so each
    such step reads the block once and factors it once. Both live only
    inside this call; the block also in the factors it returns.
    """
    sel, c, row_id = rand_pivot_rankest(oracle, _rank_tol(cfg, oracle.ncols),
                                        seed)
    p = min(cfg.oversample, oracle.nrows - sel.rows.size)
    if p > 0 and not sel.is_empty:
        extra = oversample_rows_multi(row_id, sel.rows, p)
        sel = IndexSelection(sel.rows, sel.cols, extra)
    return _extract_factors(oracle, sel, c)


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

    Appends residual-guided column pivots and matching row pivots from
    the unchosen index sets (column-pivoted QR of the residual sketch
    and of the new columns), orders the enlarged cross by
    :func:`_order_cross`, truncates to the revealed rank (keeping
    ``oversample`` extra rows), and re-estimates the error reusing the
    pack's matrix sketch.

    Returns the refined selection's :class:`CURFactors`, the new error
    estimate, and whether the estimate meets the tolerance. The
    estimate scores those factors from the pack's matrix sketch and
    their row block, so a caller that keeps them reads C and R once;
    ``factors.selection`` is the refined selection.
    """
    if pack.residual_sketch is None:
        raise InvalidInput("pack must carry a residual sketch")
    m, n = oracle.shape
    es = pack.residual_sketch
    s_piv = es.shape[0]

    chosen_rows = sel.all_rows
    unchosen_cols = np.setdiff1d(np.arange(n), sel.cols)
    j1 = np.array([], dtype=np.intp)
    if unchosen_cols.size:
        piv = cpqr(es[:, unchosen_cols]).pivots
        j1 = unchosen_cols[piv[:min(s_piv, unchosen_cols.size)]]
    unchosen_rows = np.setdiff1d(np.arange(m), chosen_rows)
    i1 = np.array([], dtype=np.intp)
    if unchosen_rows.size and j1.size:
        blk = oracle.submatrix(unchosen_rows, j1)
        piv = cpqr(blk.T).pivots
        i1 = unchosen_rows[piv[:min(s_piv, unchosen_rows.size)]]

    rows2 = np.concatenate([chosen_rows, i1])
    cols2 = np.concatenate([sel.cols, j1])
    rows2, cols2, r_new = _order_cross(rows2, cols2,
                                       oracle.submatrix(rows2, cols2),
                                       _rank_tol(cfg, n))

    p_eff = cfg.oversample
    if r_new + p_eff > rows2.size:
        p_eff = rows2.size - r_new
        warn_caller(
            f"refinement has only {rows2.size} candidate rows; "
            f"shrinking oversampling to {p_eff} for this step")
    sel_new = IndexSelection(rows2[:r_new], cols2[:r_new],
                             rows2[r_new:r_new + p_eff])
    fac = _extract_factors(oracle, sel_new)
    est = estimate_cur_error(oracle, sel_new.cols, fac.r, reuse=pack)
    return fac, est, est.rel_error <= cfg.tol


def _grow_pack(oracle, pack, new_rows, fac):
    """Double-size replacement pack for ``fac``; only fresh rows touch A."""
    emb = pack.embedding.grown(new_rows)
    fresh = emb.raw[pack.embedding.sketch_rows:]
    xs = np.vstack([pack.row_sketch, oracle.rmatmat(fresh.T).T])
    return estimate_cur_error(oracle, fac.selection.cols, fac.r,
                              reuse=SketchPack(emb, xs)).pack


_H1_ACTIONS = ("MINOR_MOD", "TRUNCATE")
_H2_ACTIONS = ("RECOMPUTE", "EXPAND")


def _track(seq, cfg, step):
    """The step loop the drivers share; ``step`` is the per-step policy.

    ``step(j, oracle)`` returns ``(factors, action, est_rel_err)``. This
    loop meters each step's oracle reads and wall time, tallies h1
    (MINOR_MOD, TRUNCATE) and h2 (RECOMPUTE, EXPAND) from step 2 on,
    records exact errors when ``cfg.true_error`` asks for them, drops
    the factor arrays unless ``cfg.store_factors`` keeps them, and
    attaches the traces made so far to any escaping exception as
    ``partial_trace``; a :class:`NonFiniteSnapshot` also gets the index
    of the step that raised it.
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
        if isinstance(exc, NonFiniteSnapshot) and exc.step is None:
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
    """Recompute the indices from scratch and estimate the error."""
    fac = _scratch_factors(oracle, cfg, derive_seed(cfg.seed, j, 0x5C))
    est = _estimate(oracle, cfg, j, fac, reuse)
    return fac, "RECOMPUTE", 0.0 if est is None else est.rel_error


def _adaptive_step(oracle, cfg, j, sel):
    """Reuse ``sel``, else refine it (with escalation), else recompute."""
    fac = _extract_factors(oracle, sel)
    est = _estimate(oracle, cfg, j, fac)
    if est is None:
        # a zero matrix is exact with no indices; dropping a non-empty
        # selection counts as a recomputation
        action = "REUSE" if sel.is_empty else "RECOMPUTE"
        return _extract_factors(oracle, IndexSelection.empty()), action, 0.0
    if est.rel_error <= cfg.tol:
        return fac, "REUSE", est.rel_error
    fac_new, est_new, ok = refine_indices(oracle, sel, est.pack, cfg)
    if not ok and cfg.escalate_s:
        pack = est.pack
        for _ in range(4):
            pack = _grow_pack(oracle, pack, 2 * pack.embedding.sketch_rows,
                              fac)
            fac_new, est_new, ok = refine_indices(oracle, sel, pack, cfg)
            if ok:
                break
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
