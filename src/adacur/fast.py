"""Sketch-free fast tracking of a matrix sequence through its cross.

Per step the driver reads only the small core block at the tracked
row/column indices (plus buffer and oversampling space). Strong
rank-revealing QR of the core orders the columns and reveals the rank;
LU with partial pivoting of the column-ordered core orders the rows.
The driver then either truncates on a rank decrease or replenishes
indices on a rank increase. There is no error estimation anywhere:
speed comes from never sketching the full matrix, at the price of
missing changes that happen entirely outside the tracked cross.
"""

from dataclasses import dataclass

import numpy as np

from .driver import (CURFactors, _check_config, _extract_factors,
                     _order_cross, _rank_tol, _track)
from .errors import NonFiniteSnapshot, warn_caller
# srrqr is no longer called here; the name stays because bench/tracing.py
# installs its srrqr wrapper on fast.srrqr and requires the attribute.
from .linalg import lu_row_id, srrqr  # noqa: F401
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
    tolerance is 0.5 * tol / sqrt(n) against the core's R-factor
    diagonal. ``store_factors`` off skips factor extraction entirely;
    the per-step work is then just the core read, its strong
    rank-revealing QR and one LU factorization.
    """

    tol: float
    buffer: int = 5
    oversample: int = 0
    seed: int = 0
    store_factors: bool = True

    def __post_init__(self):
        _check_config(self, buffer=0, oversample=0)


def _finite(block, what):
    """``block``, once its entries are known to be finite."""
    if not np.isfinite(block).all():
        raise NonFiniteSnapshot(f"{what} holds non-finite entries")
    return block


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
        i_new = oversample_rows_multi(row_id, i_idx, extra_rows)
        i_idx = np.concatenate([i_idx, i_new])
    if r > 0 and extra_cols > 0:
        col_id = lu_row_id(oracle.row_block(sel.rows).T)
        j_new = oversample_rows_multi(col_id, j_idx, extra_cols)
        j_idx = np.concatenate([j_idx, j_new])
    return i_idx, j_idx, r, c


def fastadacur_run(seq, cfg):
    """Track ``seq`` without error estimation; one (factors, trace) per step.

    Step 1 computes indices from scratch (action RECOMPUTE), keeping
    rank+buffer columns and rank+buffer+oversample rows. Later steps
    act on the core block only, ordered as :func:`driver._order_cross`
    orders a cross: sRRQR for the columns and the rank r0, LUPP for the
    rows. The action is TRUNCATE when the revealed rank did not grow,
    EXPAND when it did (replenishing indices through trailing-subspace
    oversampling on the already-fetched factor blocks). In the trace, h1
    accumulates TRUNCATE and h2 EXPAND actions from step 2 on;
    est_rel_err is always None. A non-finite entry in a block the step
    reads (the core, C or R) raises :class:`NonFiniteSnapshot`; one
    elsewhere goes unseen.
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
                core = _finite(oracle.submatrix(i_idx, j_idx), "core")
                i_perm, j_perm, r0 = _order_cross(i_idx, j_idx, core,
                                                  _rank_tol(cfg, n))

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
                cblk = _finite(oracle.col_block(j_lead), "column block")
                rblk = _finite(oracle.row_block(i_lead), "row block")
                i_idx, j_idx = i_perm, j_perm
                if need_rows > 0:
                    i_new = oversample_rows(lu_row_id(cblk), i_perm,
                                            need_rows)
                    i_idx = np.concatenate([i_perm, i_new])
                if need_cols > 0:
                    # lu_row_id needs a tall block; past n lead rows the
                    # first n give a square one, whose basis is all of R^n
                    j_new = oversample_rows(lu_row_id(rblk[:n].T), j_perm,
                                            need_cols)
                    j_idx = np.concatenate([j_perm, j_new])
            r = r0

        fac_sel = IndexSelection(i_idx[:r], j_idx[:r], i_idx[r:r + p_eff])
        if not cfg.store_factors:
            return CURFactors(None, None, None, fac_sel), action, None
        fac = _extract_factors(oracle, fac_sel, cblk, rblk)
        _finite(fac.c, "column block")
        _finite(fac.r, "row block")
        return fac, action, None

    return _track(seq, cfg, step)
