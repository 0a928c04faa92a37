"""Sketch-free fast tracking of a matrix sequence through its cross.

Per step the driver reads only the small core block at the tracked
row/column indices (plus buffer and oversampling space), reorders both
index sets by strong rank-revealing QR of the core, and either
truncates on a rank decrease or replenishes indices on a rank
increase. There is no error estimation anywhere: speed comes from
never sketching the full matrix, at the price of missing changes that
happen entirely outside the tracked cross.
"""

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .driver import (CURFactors, StepTrace, _counters_delta, _counters_mark,
                     _extract_factors)
from .errors import InvalidInput
from .linalg import eps_rank_from_rdiag, srrqr
from .oversample import oversample_rows, oversample_rows_multi
from .pivoting import IndexSelection
# Bound under the public name, the module attribute that per-module
# tracing (bench/tracing.py) wraps; unlike the public function it also
# returns the column block A[:, J] it read.
from .pivoting import _rand_pivot_rankest_block as rand_pivot_rankest
from .sketch import derive_seed

__all__ = ["FastConfig", "fastadacur_run"]


@dataclass
class FastConfig:
    """Settings for the sketch-free driver.

    ``buffer`` is the number of extra columns (and rows) tracked beyond
    the current rank; it bounds how much the rank can grow per step.
    ``oversample`` adds rows beyond that for factor quality. The rank
    tolerance is rank_safety * tol / sqrt(n) against the core's
    R-factor diagonal. ``store_factors`` off skips factor extraction
    entirely; the per-step work is then just the core read and two
    small factorizations.
    """

    tol: float
    buffer: int = 5
    oversample: int = 0
    seed: int = 0
    rank_safety: float = 0.5
    srrqr_f: float = 2.0
    store_factors: bool = True

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise InvalidInput(f"tol must be in (0, 1), got {self.tol}")
        if self.buffer < 0 or self.oversample < 0:
            raise InvalidInput("buffer and oversample must be >= 0")
        if not (0.0 < self.rank_safety <= 1.0):
            raise InvalidInput("rank_safety must be in (0, 1]")
        if not 1.0 <= self.srrqr_f < np.inf:
            raise InvalidInput(
                f"srrqr_f must be finite and >= 1, got {self.srrqr_f}")


def _factor_selection(i_idx, j_idx, r, p):
    """Selection of the leading r (+p) factor indices from tracked sets."""
    return IndexSelection(i_idx[:r], j_idx[:r], i_idx[r:r + p])


def _slice_factors(c, rfac, i_lead, j_lead, sel):
    """Assemble CURFactors from prefetched blocks, stitching U exactly."""
    u = rfac[:, j_lead].copy()
    c = c.copy()
    c[i_lead, :] = u
    return CURFactors(c, u, rfac, sel)


def _scratch_cross(oracle, cfg):
    """Tracked indices, rank and factors of the first step, from scratch.

    Keeps rank+buffer columns and rank+buffer+oversample rows. The
    column block A[:, J] read for the row pivots serves the row
    oversampling and becomes C, so it is read once; it lives only
    inside this call and the factors it returns.
    """
    m, n = oracle.shape
    b, p = cfg.buffer, cfg.oversample
    sel, c = rand_pivot_rankest(oracle,
                                cfg.rank_safety * cfg.tol / np.sqrt(n),
                                derive_seed(cfg.seed, 0xFA))
    r = int(sel.cols.size)
    i_idx, j_idx = sel.rows, sel.cols
    extra_rows = min(p + b, m - r)
    extra_cols = min(b, n - r)
    if r > 0 and extra_rows > 0:
        i_new = oversample_rows_multi(oracle, i_idx, j_idx, extra_rows,
                                      col_block=c)
        i_idx = np.concatenate([i_idx, i_new])
    if r > 0 and extra_cols > 0:
        j_new = oversample_rows_multi(oracle.T, j_idx, sel.rows, extra_cols)
        j_idx = np.concatenate([j_idx, j_new])
    fac_sel = _factor_selection(i_idx, j_idx, r, min(p, i_idx.size - r))
    fac = (_extract_factors(oracle, fac_sel, c) if cfg.store_factors
           else CURFactors(None, None, None, fac_sel))
    return i_idx, j_idx, r, fac


def fastadacur_run(seq, cfg):
    """Track ``seq`` without error estimation; one (factors, trace) per step.

    Step 1 computes indices from scratch (action RECOMPUTE), keeping
    rank+buffer columns and rank+buffer+oversample rows. Later steps
    act on the core block only: action TRUNCATE when the revealed rank
    did not grow, EXPAND when it did (replenishing indices through
    trailing-subspace oversampling on the already-fetched factor
    blocks). In the trace, h1 accumulates TRUNCATE and h2 EXPAND
    actions from step 2 on; est_rel_err is always None.
    """
    if len(seq) == 0:
        raise InvalidInput("sequence is empty")
    b, p = cfg.buffer, cfg.oversample
    results = []
    h1 = h2 = 0
    i_idx = np.array([], dtype=np.intp)
    j_idx = np.array([], dtype=np.intp)
    r = 0
    try:
        for j in range(len(seq)):
            oracle = seq.oracle(j)
            m, n = oracle.shape
            mark = _counters_mark(oracle)
            t0 = time.perf_counter()

            if j == 0:
                i_idx, j_idx, r, fac = _scratch_cross(oracle, cfg)
                action = "RECOMPUTE"
            else:
                if i_idx.size == 0 or j_idx.size == 0:
                    r0 = 0
                    action = "TRUNCATE"
                    i_perm, j_perm = i_idx, j_idx
                else:
                    core = oracle.submatrix(i_idx, j_idx)
                    col_qr = srrqr(core, f=cfg.srrqr_f)
                    row_qr = srrqr(core.T, f=cfg.srrqr_f)
                    tolr = cfg.rank_safety * cfg.tol / np.sqrt(n)
                    r0 = eps_rank_from_rdiag(col_qr.r, tolr)
                    i_perm = i_idx[row_qr.pivots]
                    j_perm = j_idx[col_qr.pivots]

                if r0 <= r:
                    action = "TRUNCATE"
                    h1 += 1
                    i_idx = i_perm[:min(r0 + b + p, i_perm.size)]
                    j_idx = j_perm[:min(r0 + b, j_perm.size)]
                    p_eff = min(p, i_idx.size - r0)
                    fac_sel = _factor_selection(i_idx, j_idx, r0, p_eff)
                    fac = (_extract_factors(oracle, fac_sel)
                           if cfg.store_factors
                           else CURFactors(None, None, None, fac_sel))
                else:
                    action = "EXPAND"
                    h2 += 1
                    need_rows = min(r0 + b + p, m) - i_perm.size
                    need_cols = min(r0 + b, n) - j_perm.size
                    if r0 + b + p > m or r0 + b > n:
                        warnings.warn(
                            "tracked index sets clamped to the matrix "
                            "dimensions", stacklevel=2)
                    p_eff = min(p, i_perm.size - r0)
                    i_lead = i_perm[:r0 + p_eff]
                    j_lead = j_perm[:r0]
                    # the factor blocks double as the oversampling
                    # inputs, so expansion reads nothing beyond them
                    cblk = oracle.col_block(j_lead)
                    rblk_t = oracle.T.col_block(i_lead)
                    if need_rows > 0:
                        i_new = oversample_rows(oracle, i_perm, j_lead,
                                                need_rows, col_block=cblk,
                                                exclude=i_perm)
                        i_idx = np.concatenate([i_perm, i_new])
                    else:
                        i_idx = i_perm
                    if need_cols > 0:
                        j_new = oversample_rows(oracle.T, j_perm, i_lead,
                                                need_cols,
                                                col_block=rblk_t,
                                                exclude=j_perm)
                        j_idx = np.concatenate([j_perm, j_new])
                    else:
                        j_idx = j_perm
                    fac_sel = _factor_selection(i_idx, j_idx, r0, p_eff)
                    if cfg.store_factors:
                        fac = _slice_factors(cblk, rblk_t.T, i_lead,
                                             j_lead, fac_sel)
                    else:
                        fac = CURFactors(None, None, None, fac_sel)
                r = r0

            matvecs, entries = _counters_delta(oracle, mark)
            wall_ms = 1e3 * (time.perf_counter() - t0)
            trace = StepTrace(step=j, t=float(seq.params[j]), rank=r,
                              est_rel_err=None, true_rel_err=None,
                              action=action, h1_cum=h1, h2_cum=h2,
                              matvecs=matvecs, wall_ms=wall_ms,
                              entries_read=entries)
            results.append((fac, trace))
    except Exception as exc:
        exc.partial_trace = [tr for _, tr in results]
        raise
    return results
