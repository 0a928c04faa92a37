"""Sketch-free fast tracking of a matrix sequence through its cross.

Per step the driver reads only the small core block at the tracked
row/column indices (plus buffer and oversampling space), reorders both
index sets by strong rank-revealing QR of the core, and either
truncates on a rank decrease or replenishes indices on a rank
increase. There is no error estimation anywhere: speed comes from
never sketching the full matrix, at the price of missing changes that
happen entirely outside the tracked cross.
"""

from dataclasses import dataclass

import numpy as np

from .driver import (CURFactors, _check_config, _extract_factors, _rank_tol,
                     _track)
from .errors import warn_caller
from .linalg import eps_rank_from_rdiag, lu_row_id, srrqr
from .oversample import oversample_rows, oversample_rows_multi
from .pivoting import IndexSelection, rand_pivot_rankest
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
        _check_config(self, buffer=0, oversample=0)


def _scratch_cross(oracle, cfg):
    """Tracked indices and rank of the first step, from scratch.

    Keeps rank+buffer columns and rank+buffer+oversample rows. Also
    returns the column block A[:, J] read for the row pivots; it becomes
    C, so it is read once. The row oversampling takes its basis from the
    row ID those pivots came from; the column oversampling reads
    A[rows, :] and takes the LU row ID of its transpose.
    """
    m, n = oracle.shape
    b, p = cfg.buffer, cfg.oversample
    sel, c, row_id = rand_pivot_rankest(oracle, _rank_tol(cfg, n),
                                        derive_seed(cfg.seed, 0xFA))
    r = int(sel.cols.size)
    i_idx, j_idx = sel.rows, sel.cols
    extra_rows = min(p + b, m - r)
    extra_cols = min(b, n - r)
    if r > 0 and extra_rows > 0:
        i_new = oversample_rows_multi(oracle, i_idx, j_idx, extra_rows,
                                      row_id=row_id)
        i_idx = np.concatenate([i_idx, i_new])
    if r > 0 and extra_cols > 0:
        j_new = oversample_rows_multi(oracle.T, j_idx, sel.rows, extra_cols)
        j_idx = np.concatenate([j_idx, j_new])
    return i_idx, j_idx, r, c


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
    b, p = cfg.buffer, cfg.oversample
    i_idx = j_idx = np.array([], dtype=np.intp)
    r = 0

    def step(j, oracle):
        nonlocal i_idx, j_idx, r
        m, n = oracle.shape
        cblk = rblk = None
        if j == 0:
            i_idx, j_idx, r, cblk = _scratch_cross(oracle, cfg)
            action = "RECOMPUTE"
            p_eff = min(p, i_idx.size - r)
        else:
            if i_idx.size == 0 or j_idx.size == 0:
                r0, i_perm, j_perm = 0, i_idx, j_idx
            else:
                core = oracle.submatrix(i_idx, j_idx)
                col_qr = srrqr(core, f=cfg.srrqr_f)
                row_qr = srrqr(core.T, f=cfg.srrqr_f)
                r0 = eps_rank_from_rdiag(col_qr.r, _rank_tol(cfg, n))
                i_perm = i_idx[row_qr.pivots]
                j_perm = j_idx[col_qr.pivots]

            if r0 <= r:
                action = "TRUNCATE"
                i_idx = i_perm[:min(r0 + b + p, i_perm.size)]
                j_idx = j_perm[:min(r0 + b, j_perm.size)]
                p_eff = min(p, i_idx.size - r0)
            else:
                action = "EXPAND"
                need_rows = min(r0 + b + p, m) - i_perm.size
                need_cols = min(r0 + b, n) - j_perm.size
                if r0 + b + p > m or r0 + b > n:
                    warn_caller("tracked index sets clamped to the matrix "
                                "dimensions")
                p_eff = min(p, i_perm.size - r0)
                i_lead = i_perm[:r0 + p_eff]
                j_lead = j_perm[:r0]
                # the factor blocks double as the oversampling inputs,
                # so expansion reads nothing beyond them
                cblk = oracle.col_block(j_lead)
                rblk_t = oracle.T.col_block(i_lead)
                rblk = rblk_t.T
                i_idx, j_idx = i_perm, j_perm
                if need_rows > 0:
                    i_new = oversample_rows(oracle, i_perm, j_lead,
                                            need_rows, row_id=lu_row_id(cblk))
                    i_idx = np.concatenate([i_perm, i_new])
                if need_cols > 0:
                    # lu_row_id needs a tall block; past n lead rows the
                    # first n give a square one, whose basis is all of R^n
                    j_new = oversample_rows(oracle.T, j_perm, i_lead[:n],
                                            need_cols,
                                            row_id=lu_row_id(rblk_t[:, :n]))
                    j_idx = np.concatenate([j_perm, j_new])
            r = r0

        fac_sel = IndexSelection(i_idx[:r], j_idx[:r], i_idx[r:r + p_eff])
        fac = (_extract_factors(oracle, fac_sel, cblk, rblk)
               if cfg.store_factors
               else CURFactors(None, None, None, fac_sel))
        return fac, action, None

    return _track(seq, cfg, step)
