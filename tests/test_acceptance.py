"""Acceptance suite: the ten primary behavioral criteria.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
the captured-output section of a failure report) and then asserts, so a
red run still shows the measured numbers for every criterion.
"""

import time

import numpy as np
import pytest

from adacur.driver import AdaCurConfig, adacur_run, recompute_baseline_run
from adacur.fast import FastConfig, fastadacur_run
from adacur.linalg import srrqr, stable_cur_eval
from adacur.normest import estimate_cur_error
from adacur.oracles import DenseOracle
from adacur.pivoting import IndexSelection, rand_pivot
from adacur.problems import (
    make_adversarial,
    make_schrodinger,
    make_speed_problem,
    make_synthetic_expm,
    true_relative_error,
)
from adacur.sketch import GaussianEmbedding

SYNTH_N = 200
SYNTH_STEPS = 101
SYNTH_SEEDS = range(5)
SYNTH_TOLS = (1e-6, 1e-8, 1e-10)


def report(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def synthetic_runs():
    """AdaCUR traces and per-sweep runtimes on the synthetic problem.

    One sequence per seed; for each tolerance a 5-seed sweep with
    p = s = 5 and exact errors recorded.
    """
    seqs = {k: make_synthetic_expm(n=SYNTH_N, q=SYNTH_STEPS, seed=k)
            for k in SYNTH_SEEDS}
    runs, sweep_secs = {}, {}
    for eps in SYNTH_TOLS:
        t0 = time.perf_counter()
        for k in SYNTH_SEEDS:
            cfg = AdaCurConfig(tol=eps, err_samples=5, oversample=5,
                               seed=k, true_error=True)
            runs[eps, k] = [tr for _, tr in adacur_run(seqs[k], cfg)]
        sweep_secs[eps] = time.perf_counter() - t0
    return seqs, runs, sweep_secs


@pytest.fixture(scope="module")
def synthetic_svd_spectra(synthetic_runs):
    """Per-seed, per-step singular values of the synthetic snapshots."""
    seqs, _, _ = synthetic_runs
    spectra = {}
    for k in SYNTH_SEEDS:
        cols = np.arange(SYNTH_N)
        spectra[k] = [np.linalg.svd(seqs[k].oracle(j).col_block(cols),
                                    compute_uv=False)
                      for j in range(SYNTH_STEPS)]
    return spectra


@pytest.fixture(scope="module")
def schrodinger_repairs():
    """Final h1 + h2 per (p, s, seed) on the Schrödinger problem.

    Refinement repairs every step here, so h2 alone is 0 throughout;
    the repair count h1 + h2 is what oversampling and sketch size move.
    """
    grid = [(0, 5), (5, 5), (10, 5), (10, 10), (10, 20)]
    out = {}
    for seed in range(10):
        seq = make_schrodinger(n=128, q=101, seed=seed)
        for p, s in grid:
            cfg = AdaCurConfig(tol=1e-10, err_samples=s, oversample=p,
                               seed=seed)
            res = adacur_run(seq, cfg)
            out[p, s, seed] = res[-1][1].h1_cum + res[-1][1].h2_cum
    return out


@pytest.fixture(scope="module")
def speed_sequence():
    return make_speed_problem(m=5000, n=1000, r=100, q=51, seed=0)


class TestToleranceAndRank:
    def test_c1_tolerance_tracking(self, synthetic_runs):
        _, runs, sweep_secs = synthetic_runs
        worst_ratio = 0.0
        for eps in SYNTH_TOLS:
            for k in SYNTH_SEEDS:
                worst = max(tr.true_rel_err for tr in runs[eps, k])
                worst_ratio = max(worst_ratio, worst / eps)
        slowest = max(sweep_secs.values())
        ok = worst_ratio <= 10.0 and slowest <= 60.0
        assert report(
            "C1 tolerance tracking", ok,
            f"max true err / eps {worst_ratio:.2f} <= 10, "
            f"slowest sweep {slowest:.1f}s <= 60s")

    def test_c2_rank_matching(self, synthetic_runs, synthetic_svd_spectra):
        _, runs, _ = synthetic_runs
        hits = total = 0
        for eps in SYNTH_TOLS:
            thr = eps / np.sqrt(SYNTH_N)
            for k in SYNTH_SEEDS:
                for j, tr in enumerate(runs[eps, k]):
                    svd_rank = int(np.sum(synthetic_svd_spectra[k][j] > thr))
                    hits += (abs(tr.rank - svd_rank) <= 3)
                    total += 1
        frac = hits / total
        ok = frac >= 0.95
        assert report("C2 rank matching", ok,
                      f"{hits}/{total} steps within +-3 ({100 * frac:.1f}%)")


class TestRecomputationTrends:
    def test_c3_oversampling_reduces_recomputation(self,
                                                   schrodinger_repairs):
        med = [float(np.median([schrodinger_repairs[p, 5, k]
                                for k in range(10)]))
               for p in (0, 5, 10)]
        ok = med[0] >= med[1] >= med[2] and med[0] > med[2]
        assert report("C3 oversampling trend", ok,
                      f"median h1 + h2 over p in {{0,5,10}}: {med}")

    def test_c4_error_samples_reduce_recomputation(self,
                                                   schrodinger_repairs):
        med = [float(np.median([schrodinger_repairs[10, s, k]
                                for k in range(10)]))
               for s in (5, 10, 20)]
        ok = med[0] >= med[1] >= med[2] and med[0] > med[2]
        assert report("C4 error-sample trend", ok,
                      f"median h1 + h2 over s in {{5,10,20}}: {med}")


class TestEstimatorTheory:
    def test_c5_norm_estimator_concentration(self):
        s = 5
        fails = 0
        min_stable = np.inf
        for trial in range(1000):
            gen = np.random.default_rng(trial)
            a = gen.standard_normal((200, 150))
            sv = np.linalg.svd(a, compute_uv=False)
            stable = (sv @ sv) / sv[0] ** 2
            min_stable = min(min_stable, stable)
            gam = GaussianEmbedding(s, 200, seed=10_000 + trial).raw
            na = np.linalg.norm(a)
            ns = np.linalg.norm(gam @ a) / np.sqrt(s)
            fails += not (na / 2 < ns <= 2 * na)
        ok = fails <= 10 and min_stable >= 25
        assert report(
            "C5 norm-estimator concentration", ok,
            f"{fails}/1000 outside bracket (<=10), "
            f"min stable rank {min_stable:.1f} >= 25")

    def test_c7_exact_recovery_and_estimator_agreement(self):
        # recovery is checked at the full rank; the factor-2 agreement
        # needs a nonzero residual, so the same instance is re-evaluated
        # with an undersized selection plus stabilizing extra rows
        recov_ok = 0
        agree = 0
        trials = 50
        for trial in range(trials):
            gen = np.random.default_rng(3000 + trial)
            r = int(gen.integers(16, 21))
            m = int(gen.integers(100, 201))
            n = int(gen.integers(100, 201))
            q1, _ = np.linalg.qr(gen.standard_normal((m, r)))
            q2, _ = np.linalg.qr(gen.standard_normal((n, r)))
            a = q1 @ q2.T
            orc = DenseOracle(a)
            sel = rand_pivot(orc, r, seed=5000 + trial)
            op = stable_cur_eval(a[:, sel.cols],
                                 a[np.ix_(sel.rows, sel.cols)],
                                 a[sel.rows, :])
            rec = (np.linalg.norm(a - op.left @ op.right)
                   / np.linalg.norm(a))
            recov_ok += (rec <= 1e-10)
            r_sel = r - 10
            sub = IndexSelection(sel.rows[:r_sel], sel.cols[:r_sel],
                                 sel.rows[r_sel:r_sel + 5])
            rows = sub.all_rows
            sub_op = stable_cur_eval(a[:, sub.cols],
                                     a[np.ix_(rows, sub.cols)], a[rows, :])
            est = estimate_cur_error(orc, sub.cols, a[rows, :], s=5,
                                     seed=7000 + trial)
            true = true_relative_error(orc, sub_op)
            agree += (0.5 * true <= est.rel_error <= 2.0 * true)
        ok = recov_ok == trials and agree >= 49
        assert report(
            "C7 exact recovery + estimator agreement", ok,
            f"recovery {recov_ok}/{trials}, factor-2 {agree}/{trials}")

    def test_c8_srrqr_guarantee(self):
        n, k, f = 50, 25, 2.0
        bound = np.sqrt(1.0 + f * f * k * (n - k))
        worst_inter, worst_floor = 0.0, np.inf
        for trial in range(100):
            gen = np.random.default_rng(trial)
            if trial % 2 == 0:
                a = gen.standard_normal((n, n))
            else:
                # graded family: Kahan-type triangles and column-scaled
                # Gaussians, the classic pivoting stress cases
                if trial % 4 == 1:
                    theta = 0.1 + 1.2 * gen.random()
                    c, s = np.cos(theta), np.sin(theta)
                    a = np.triu(-c * np.ones((n, n)), 1) + np.eye(n)
                    a *= np.power(s, np.arange(n))[:, None]
                else:
                    a = gen.standard_normal((n, n)) * np.logspace(
                        0, -12, n)[None, :]
            fac = srrqr(a, f=f, k=k)
            w = np.linalg.solve(fac.r[:k, :k], fac.r[:k, k:])
            worst_inter = max(worst_inter, np.abs(w).max())
            smin = np.linalg.svd(fac.r[:k, :k], compute_uv=False)[-1]
            sk = np.linalg.svd(a, compute_uv=False)[k - 1]
            worst_floor = min(worst_floor, smin / (sk / bound))
        ok = worst_inter <= f + 1e-8 and worst_floor >= 1.0
        assert report(
            "C8 sRRQR guarantee", ok,
            f"max |inv(R11) R12| {worst_inter:.3f} <= {f} + 1e-8, "
            f"min floor ratio {worst_floor:.3f} >= 1")


class TestAdversarialAndFrugality:
    def test_c6_adversarial_split(self):
        eps = 1e-4
        seq = make_adversarial(seed=0, q=101)
        fast_final = {}
        for b in (2, 5):
            for p in (2, 5):
                cfg = FastConfig(tol=eps, buffer=b, oversample=p, seed=0)
                res = fastadacur_run(seq, cfg)
                err = true_relative_error(seq.oracle(len(seq) - 1),
                                          res[-1][0].operator())
                fast_final[b, p] = err
        cfg = AdaCurConfig(tol=eps, err_samples=5, oversample=5, seed=0,
                           true_error=True)
        ada_worst = max(tr.true_rel_err
                        for _, tr in adacur_run(seq, cfg))
        ok = (all(e >= 100 * eps for e in fast_final.values())
              and ada_worst <= 10 * eps)
        assert report(
            "C6 adversarial split", ok,
            f"fast final errs {min(fast_final.values()):.2e}.."
            f"{max(fast_final.values()):.2e} >= {100 * eps:.0e}, "
            f"adacur worst {ada_worst:.2e} <= {10 * eps:.0e}")

    def test_c9_fastadacur_read_budget(self, speed_sequence):
        b = p = 5
        problems = [
            ("synthetic", make_synthetic_expm(n=SYNTH_N, q=SYNTH_STEPS,
                                              seed=0), 1e-6),
            ("schrodinger", make_schrodinger(n=128, q=101, seed=0), 1e-10),
            ("adversarial", make_adversarial(seed=0, q=101), 1e-4),
            ("speed", speed_sequence, 1e-6),
        ]
        worst_frac, worst_name = 0.0, ""
        ok = True
        for name, seq, tol in problems:
            m, n = seq.shape
            cfg = FastConfig(tol=tol, buffer=b, oversample=p, seed=0)
            traces = [tr for _, tr in fastadacur_run(seq, cfg)]
            for prev, tr in zip(traces, traces[1:]):
                # the tracked rank changes mid-step; the bound uses the
                # larger of the entry and exit ranks
                r = max(prev.rank, tr.rank)
                cap = (r + b + p) * (r + b) + (m + n) * (r + p)
                frac = tr.entries_read / cap
                if frac > worst_frac:
                    worst_frac, worst_name = frac, name
                ok = ok and tr.entries_read <= cap
        assert report(
            "C9 read budget", ok,
            f"worst reads/cap {worst_frac:.2f} on {worst_name} (<= 1)")

    def test_c10_relative_speed(self, speed_sequence):
        kw = dict(tol=1e-6, err_samples=10, oversample=10, seed=1,
                  store_factors=False)
        fast_cfg = FastConfig(tol=1e-6, buffer=10, oversample=10, seed=1,
                              store_factors=False)

        def wall(results):
            return sum(tr.wall_ms for _, tr in results)

        base, ada, fast = [], [], []
        for _ in range(3):
            base.append(wall(recompute_baseline_run(speed_sequence,
                                                    AdaCurConfig(**kw))))
            ada.append(wall(adacur_run(speed_sequence, AdaCurConfig(**kw))))
            fast.append(wall(fastadacur_run(speed_sequence, fast_cfg)))
        r1 = np.median(ada) / np.median(base)
        r2 = np.median(fast) / np.median(ada)
        ok = r1 <= 0.5 and r2 <= 0.5
        assert report(
            "C10 relative speed", ok,
            f"adacur/baseline {r1:.3f} <= 0.5, "
            f"fast/adacur {r2:.3f} <= 0.5, "
            f"medians base {np.median(base) / 1e3:.2f}s "
            f"ada {np.median(ada) / 1e3:.2f}s "
            f"fast {np.median(fast) / 1e3:.2f}s")
