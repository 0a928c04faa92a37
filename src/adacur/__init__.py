"""Rank-adaptive CUR approximation of parameter-dependent matrices.

Two drivers track a matrix sequence A(t) through row/column index
sets: :func:`adacur_run` certifies a relative-error tolerance per step
with sketched error estimation, and :func:`fastadacur_run` trades the
certificate away for speed by reading only a small core block per
step. Supporting pieces (pivoting, oversampling, rank and norm
estimation, test problems, Matrix Market and CSV IO) are importable
from their submodules as well.
"""

from .driver import (AdaCurConfig, CURFactors, StepTrace, adacur_run,
                     recompute_baseline_run, refine_indices)
from .errors import (IntegratorAccuracy, InvalidInput, NonConvergence,
                     ParseError, RankTolNotResolved, ZeroMatrixSketch)
from .fast import FastConfig, fastadacur_run
from .fileio import (load_sequence_dir, read_matrix_market, read_trace_csv,
                     write_matrix_market, write_trace_csv)
from .linalg import (LowRankOperator, cpqr, eps_rank_from_rdiag, srrqr,
                     stable_cur_eval)
from .normest import ErrorEstimate, estimate_cur_error
from .oracles import (DenseOracle, LowRankPlusSparseOracle, MatrixOracle,
                      OracleCounters, ParamMatrixSequence, SparseOracle)
from .oversample import oversample_rows, oversample_rows_multi
from .pivoting import IndexSelection, rand_pivot, rand_pivot_rankest
from .problems import (make_adversarial, make_schrodinger,
                       make_speed_problem, make_synthetic_expm,
                       synthetic_expm_singvals, true_relative_error)
from .rankest import RankEstimate, estimate_rank
from .sketch import GaussianEmbedding, SketchPack, derive_seed

__version__ = "0.1.0"

__all__ = [
    "AdaCurConfig", "CURFactors", "StepTrace", "adacur_run",
    "recompute_baseline_run", "refine_indices",
    "FastConfig", "fastadacur_run",
    "IntegratorAccuracy", "InvalidInput", "NonConvergence", "ParseError",
    "RankTolNotResolved", "ZeroMatrixSketch",
    "load_sequence_dir", "read_matrix_market", "read_trace_csv",
    "write_matrix_market", "write_trace_csv",
    "LowRankOperator", "cpqr", "eps_rank_from_rdiag", "srrqr",
    "stable_cur_eval",
    "ErrorEstimate", "estimate_cur_error",
    "DenseOracle", "LowRankPlusSparseOracle", "MatrixOracle",
    "OracleCounters", "ParamMatrixSequence", "SparseOracle",
    "oversample_rows", "oversample_rows_multi",
    "IndexSelection", "rand_pivot", "rand_pivot_rankest",
    "make_adversarial", "make_schrodinger", "make_speed_problem",
    "make_synthetic_expm", "synthetic_expm_singvals", "true_relative_error",
    "RankEstimate", "estimate_rank",
    "GaussianEmbedding", "SketchPack", "derive_seed",
    "__version__",
]
