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

from .driver import (CURFactors, _check_config, _extract_factors, _grow,
                     _order_cross, _rank_tol, _track)
from .errors import check_finite, warn_caller
# srrqr and oversampling (both names) are called in the driver module
# only; bench/tracing.py wraps them here too and requires the attributes.
from .linalg import lu_row_id, srrqr  # noqa: F401
from .oversample import oversample_rows, oversample_rows_multi  # noqa: F401
from .pivoting import IndexSelection, rand_pivot_rankest
from .sketch import derive_seed

__all__ = ["FastConfig", "fastadacur_run"]


@dataclass
class FastConfig:
    """Settings for the sketch-free driver.

    ``buffer`` is the number of extra columns (and rows) tracked beyond
    the current rank; it bounds how much the rank can grow per step.
    The columns are refilled to it whenever the rank grows; the rows
    may run down to half of it (rounded up) beyond the oversampling
    before they are refilled, but never below the columns.
    ``oversample`` adds rows beyond that for factor quality. Nothing
    certifies this driver's error, and at the default 0 it misses the
    tolerance far more often: on ``make_synthetic_expm(n=200)`` at tol
    1e-8 and buffer 5, over problem seeds 0-11, 61 of 1,212 steps
    exceeded tol (worst 2.52 tol) at oversample 0 and none (worst 0.92
    tol) at oversample 5, with one BLAS thread; four threads round
    differently and give 63 (worst 3.95 tol) and none (worst 0.84 tol).
    The rank tolerance is 0.5 * tol / sqrt(n) against the core's
    R-factor diagonal. ``store_factors`` off skips factor extraction
    entirely; the per-step work is then just the core read, its strong
    rank-revealing QR and one LU factorization.
    """

    tol: float
    buffer: int = 5
    oversample: int = 0
    seed: int = 0
    store_factors: bool = True

    def __post_init__(self):
        _check_config(self, buffer=0, oversample=0)


def fastadacur_run(seq, cfg):
    """Track ``seq`` without error estimation; one (factors, trace) per step.

    A step with no tracked cross (the first step, or a later one whose
    cross emptied) selects pivots from scratch as the certified drivers
    do (action RECOMPUTE). Otherwise the core block alone is ordered as
    :func:`driver._order_cross` orders a cross: sRRQR for the columns
    and the rank r0, LUPP for the rows. The action is TRUNCATE when the
    revealed rank did not grow and EXPAND when it did. Whenever the rank
    grows, RECOMPUTE and EXPAND alike, the columns are replenished to
    r0+buffer by oversampling on the row ID of R's rows transposed. The
    rows are replenished to r0+buffer+oversample, by oversampling on the
    row ID of C = A[:, cols], at every RECOMPUTE and at an EXPAND whose
    rows hold fewer than ceil(buffer/2) beyond r0+oversample or fewer
    than r0+buffer in all. So the row buffer may run down to half
    before it is refilled, and an EXPAND that keeps its rows reads no C
    unless the factors need it. In the trace, h1 accumulates TRUNCATE
    and h2 EXPAND and RECOMPUTE actions from step 2 on; est_rel_err is
    always None. A non-finite entry in a block the step reads (the
    core, C or R) raises :class:`NonFiniteSnapshot`; one elsewhere goes
    unseen.
    """
    b, p = cfg.buffer, cfg.oversample
    i_idx = j_idx = np.array([], dtype=np.intp)
    r = 0

    def step(j, oracle):
        nonlocal i_idx, j_idx, r
        m, n = oracle.shape
        cblk = rblk = row_id = None
        if j_idx.size == 0:
            sel, cblk, row_id = rand_pivot_rankest(
                oracle, _rank_tol(cfg, n), derive_seed(cfg.seed, 0xFA))
            i_idx, j_idx, r0 = sel.rows, sel.cols, sel.cols.size
            action = "RECOMPUTE"
        else:
            core = check_finite("core", oracle.submatrix(i_idx, j_idx))
            i_idx, j_idx, r0 = _order_cross(i_idx, j_idx, core,
                                            _rank_tol(cfg, n))
            action = "TRUNCATE" if r0 <= r else "EXPAND"

        if r0 <= r:
            i_idx, j_idx = i_idx[:r0 + b + p], j_idx[:r0 + b]
        else:
            if action == "EXPAND":
                if r0 + b + p > m or r0 + b > n:
                    warn_caller("tracked index sets clamped to the matrix "
                                "dimensions")
                # the rows are refilled, through C, only once half the
                # row buffer beyond r0 + p is spent or they would no
                # longer cover the r0 + b columns; until then no C read
                if i_idx.size - r0 < max(b, p + (b + 1) // 2):
                    cblk = check_finite("column block",
                                        oracle.col_block(j_idx[:r0]))
            need_rows = min(r0 + b + p, m) - i_idx.size
            if need_rows > 0 and cblk is not None:
                if row_id is None:
                    row_id = lu_row_id(cblk)
                i_idx = _grow(i_idx, row_id, need_rows)
            # R, read once: its rows grow the columns, then it becomes
            # the factor. lu_row_id needs a tall block; past n rows the
            # first n give a square one, whose basis is all of R^n
            rblk = check_finite("row block", oracle.row_block(i_idx[:r0 + p]))
            need_cols = min(r0 + b, n) - j_idx.size
            if need_cols > 0:
                j_idx = _grow(j_idx, lu_row_id(rblk[:n].T), need_cols)
        r = r0
        fac_sel = IndexSelection(i_idx[:r], j_idx[:r], i_idx[r:r + p])
        if not cfg.store_factors:
            return CURFactors(None, None, None, fac_sel), action, None
        fac = _extract_factors(oracle, fac_sel, cblk, rblk)
        check_finite("column block", fac.c)
        check_finite("row block", fac.r)
        return fac, action, None

    return _track(seq, cfg, step)
