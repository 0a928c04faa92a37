"""The benchmark's three workloads, built from a seed.

``speed``
    ``make_speed_problem`` at its defaults (5000x1000, rank 100, 51
    steps, uncached low-rank-plus-sparse oracles) with the settings of
    acceptance test C10. The paper's timing problem: tall m-by-k kernels
    and matvecs dominate, and oracle construction happens inside the
    sweep because the sequence does not cache oracles.
``dense-repair``
    ``make_synthetic_expm`` (n=200) and ``make_schrodinger`` (n=128) at
    tol 1e-10, two instances of each, oracle caches warmed. Ranks
    move, so refinement, recomputation, EXPAND steps, small sRRQR/SVD
    calls and per-call overhead dominate. It runs on request but is not
    listed in BENCHMARK.json: timed by the median sweep, its times
    spread by up to 0.37 (IQR over median) over ten workload seeds on
    a shared machine, beyond the largest allowed regression bound, and
    two workloads leave room for 30 s runs.
``mtx-sparse``
    ``make_adversarial`` snapshots written as coordinate Matrix Market
    files and read back with ``load_sequence_dir``, at tol 1e-4. The
    own-data path: the only workload that exercises the ``fileio`` parser
    and ``SparseOracle`` extraction.

Each driver runs with its problem's seed plus one, so ``--seed 0`` runs
the C10 configuration (problem seed 0, driver seed 1) on ``speed``.
There fastadacur also runs on ``FAST_PROBLEMS - 1`` further problems
(seeds ``seed + FAST_PROBLEM_STRIDE * j``), with driver seeds
``seed + 1`` to ``seed + FAST_SEEDS`` on each. Whether it expands its
cross zero to three times (about 0.6M entries and a tall QR each time,
so 2.2M to 4.0M entries and 0.48 to 0.72 s per call) depends on both
seeds: the mean of three calls on one problem spread 0.21 (IQR over
median) over ten workload seeds, twelve calls on one problem 0.07 to
0.11, and the 24 calls on eight problems 0.056 and 0.082. The problems build
their oracles on demand, so the extra ones cost little set-up.
``dense-repair`` generates problem seeds 2 * seed and 2 * seed + 1:
adacur's repair work varies from instance to instance (a few Schrodinger
instances in ten need several extra recomputations), and averaging two
instances damps that part of the run-to-run spread.
"""

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import scipy.sparse as sp

from adacur import (AdaCurConfig, FastConfig, adacur_run, fastadacur_run,
                    load_sequence_dir, make_adversarial, make_schrodinger,
                    make_speed_problem, make_synthetic_expm,
                    recompute_baseline_run, write_matrix_market)

DRIVERS = ("adacur", "fastadacur", "baseline")
RUNNERS = {"adacur": adacur_run, "fastadacur": fastadacur_run,
           "baseline": recompute_baseline_run}

SETUP_REPEATS = {"speed": 5, "dense-repair": 3, "mtx-sparse": 3}
FAST_PROBLEMS = 8
FAST_SEEDS = 3
FAST_PROBLEM_STRIDE = 10_000


@dataclass
class Case:
    """One driver call: a sequence and the settings to track it with."""

    label: str
    seq: object
    tol: float
    seed: int
    err_samples: int = 5
    oversample: int = 5
    buffer: int = 5
    store_factors: bool = True
    drivers: tuple = DRIVERS
    exact_errors: bool = True

    def config(self, driver, verify=False):
        """Driver config; ``verify`` keeps factors and exact errors."""
        keep = self.store_factors or verify
        if driver == "fastadacur":
            return FastConfig(tol=self.tol, buffer=self.buffer,
                              oversample=self.oversample, seed=self.seed,
                              store_factors=keep)
        return AdaCurConfig(tol=self.tol, err_samples=self.err_samples,
                            oversample=self.oversample, seed=self.seed,
                            store_factors=keep, true_error=verify)

    def run(self, driver, verify=False):
        return RUNNERS[driver](self.seq, self.config(driver, verify))


@dataclass
class Inputs:
    """A workload's built inputs and the counters of every oracle built."""

    cases: list
    load_s: float
    snapshot_dir: Path | None = None
    counters: list = field(default_factory=list)

    def cases_of(self, driver):
        return [case for case in self.cases if driver in case.drivers]

    @property
    def seqs(self):
        """Distinct sequences, in case order."""
        return list({id(case.seq): case.seq for case in self.cases}.values())

    def counter_totals(self):
        """(matvecs + rmatvecs, entries read) summed over all oracles."""
        return (sum(c.matvecs + c.rmatvecs for c in self.counters),
                sum(c.entries_read for c in self.counters))


def _tap(inputs):
    """Record the counters of each oracle the sequences build, then warm."""
    for seq in inputs.seqs:
        provider = seq.provider

        def recording(j, provider=provider):
            orc = provider(j)
            inputs.counters.append(orc.counters)
            return orc

        seq.provider = recording
        if seq.cache_oracles:
            for j in range(len(seq)):
                seq.oracle(j)
    return inputs


def build_speed(seed, workdir):
    t0 = time.perf_counter()
    seqs = [make_speed_problem(seed=seed + FAST_PROBLEM_STRIDE * j)
            for j in range(FAST_PROBLEMS)]
    load_s = time.perf_counter() - t0
    c10 = dict(err_samples=10, oversample=10, buffer=10, store_factors=False)
    cases = [Case("speed", seqs[0], 1e-6, seed + 1, **c10)]
    cases += [Case("speed", seq, 1e-6, seed + k, drivers=("fastadacur",),
                   exact_errors=False, **c10)
              for j, seq in enumerate(seqs)
              for k in range(1, FAST_SEEDS + 1) if (j, k) != (0, 1)]
    return _tap(Inputs(cases, load_s))


def build_dense_repair(seed, workdir):
    t0 = time.perf_counter()
    cases = []
    for ps in (2 * seed, 2 * seed + 1):
        cases += [Case("synthetic", make_synthetic_expm(n=200, seed=ps),
                       1e-10, ps + 1),
                  Case("schrodinger", make_schrodinger(n=128, seed=ps),
                       1e-10, ps + 1)]
    load_s = time.perf_counter() - t0
    return _tap(Inputs(cases, load_s))


def build_mtx_sparse(seed, workdir):
    adv = make_adversarial(seed=seed)
    snap = Path(tempfile.mkdtemp(prefix="mtx-", dir=workdir))
    for j in range(len(adv)):
        write_matrix_market(snap / f"step_{j}.mtx",
                            sp.csr_matrix(adv.oracle(j).array))
    (snap / "params.txt").write_text(
        "".join(f"{t!r}\n" for t in adv.params.tolist()), encoding="utf-8")
    t0 = time.perf_counter()
    seq = load_sequence_dir(snap)
    load_s = time.perf_counter() - t0
    cases = [Case("adversarial", seq, 1e-4, seed + 1)]
    return _tap(Inputs(cases, load_s, snapshot_dir=snap))


BUILDERS = {"speed": build_speed, "dense-repair": build_dense_repair,
            "mtx-sparse": build_mtx_sparse}
