"""Benchmark of the three adacur trackers on one workload.

Run from the repository root::

    python3 bench/run.py --workload speed --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it builds the workload's inputs, checks a reference
pass, times untraced calls of ``adacur_run``, ``fastadacur_run`` and
``recompute_baseline_run`` for ``--seconds`` seconds, measures memory
in a pass of its own, and prints every end-to-end metric. Times are
in reference seconds (see ``probe.py``): each wall time is scaled by
how fast a fixed job ran around it, so that the load other tenants put
on a shared machine cancels out. A driver's time is the median call of
each of its cases, averaged over the cases. With ``--trace 1`` it
instead alternates untraced and traced sweeps and prints the
per-module metrics of the traced ones. Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--json PATH`` also writes
the full result, with provenance and samples, to PATH.

Correctness: the reference pass keeps factors and computes each step's
exact relative error with ``problems.true_relative_error``. Every later
call must reproduce its traces (rank, action, estimate, counters), and
the counters read from the oracles must equal the sums in the traces.
A step of ``adacur`` or the baseline whose exact error exceeds 10 * tol
(the bound of acceptance test C1) counts as failed, as does every step
of a call that raises; ``fastadacur`` misses changes outside its cross
by design and is exempt.

BLAS is pinned to one thread before numpy is imported.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import signal
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
C1_BOUND = 10.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["speed", "dense-repair", "mtx-sparse"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--json", type=Path, help="also write the full result here")
    return p.parse_args(argv)


def declared_units(trace):
    """Metric names and units that BENCHMARK.json declares for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def git_commit():
    """HEAD commit read from .git without starting a process, or None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def tail(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


class Bench:
    """One benchmark run: inputs, reference traces, tallies.

    Cases are numbered per driver, in the order of ``cases_of(driver)``.
    """

    def __init__(self, inputs, workloads, probe):
        self.inputs = inputs
        self.wl = workloads
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {d: {} for d in workloads.DRIVERS}
        self.misses = {d: {} for d in workloads.DRIVERS}
        self.err_ratio = {}
        self.case_counts = {d: {} for d in workloads.DRIVERS}

    def fail(self, message):
        self.problems.append(message)

    def run_case(self, driver, k, verify=False, tracer=None):
        """One driver call on case ``k``; None if it raised."""
        case = self.inputs.cases_of(driver)[k]
        self.attempted += len(case.seq)
        try:
            if tracer is None:
                return case.run(driver, verify)
            with tracer.span("loop"):
                return case.run(driver, verify)
        except Exception:
            self.failed += len(case.seq)
            self.fail(f"{driver} raised on {case.label} seed {case.seed}")
            traceback.print_exc(file=sys.stderr)
            return None

    def sweep(self, driver, tracer=None):
        """One call per case of the driver; None if any call raised."""
        out = []
        for k in range(len(self.inputs.cases_of(driver))):
            res = self.run_case(driver, k, tracer=tracer)
            if res is None:
                return None
            out.append(res)
        return out

    # -- reference pass ---------------------------------------------------

    def verify(self):
        """Untimed pass with factors kept and exact errors per step.

        Cases without exact errors (the extra fastadacur seeds on
        ``speed``) are left out: their first later call is their
        reference.
        """
        from adacur import true_relative_error
        for driver in self.wl.DRIVERS:
            worst = 0.0
            for k, case in enumerate(self.inputs.cases_of(driver)):
                if not case.exact_errors:
                    continue
                res = self.run_case(driver, k, verify=True)
                if res is None:
                    continue
                if driver == "fastadacur":
                    errs = [true_relative_error(case.seq.oracle(j), fac)
                            for j, (fac, _) in enumerate(res)]
                else:
                    errs = [tr.true_rel_err for _, tr in res]
                ratios = [e / case.tol for e in errs]
                worst = max(worst, max(ratios))
                misses = (0 if driver == "fastadacur" else
                          sum(r > C1_BOUND for r in ratios))
                self.misses[driver][k] = misses
                self.failed += misses
                self.reference[driver][k] = self.rows(driver, case, res)
            self.err_ratio[driver] = worst

    @staticmethod
    def rows(driver, case, res):
        """Trace fields a repeat of the call must reproduce exactly.

        fastadacur reads C and R only when it keeps factors, so its
        entry counts are compared only between passes that agree on
        ``store_factors``.
        """
        entries = driver != "fastadacur" or case.store_factors
        return [(tr.step, tr.t, tr.rank, tr.est_rel_err, tr.action,
                 tr.h1_cum, tr.h2_cum, tr.matvecs,
                 tr.entries_read if entries else None) for _, tr in res]

    def check_case(self, driver, k, res, what):
        """Compare one driver call with the reference; tally its misses.

        The first call of a case without a reference becomes it. A call
        that reproduces the reference also reproduces its steps above
        the C1 bound, which count as failed again.
        """
        case = self.inputs.cases_of(driver)[k]
        rows = self.rows(driver, case, res)
        if rows != self.reference[driver].setdefault(k, rows):
            self.fail(f"{what} {driver} on {case.label} seed {case.seed} "
                      "differs from the reference pass")
        self.failed += self.misses[driver].get(k, 0)

    def check_counters(self, driver, results, counted, what):
        """Oracle counter deltas must equal the sums in the traces."""
        traced = (sum(tr.matvecs for res in results for _, tr in res),
                  sum(tr.entries_read for res in results for _, tr in res))
        if traced != counted:
            self.fail(f"{what} {driver}: oracle counters {counted} != "
                      f"trace sums {traced}")

    def check(self, driver, results, counted, what):
        """Compare a sweep with the reference and with the oracles."""
        for k, res in enumerate(results):
            self.check_case(driver, k, res, what)
        self.check_counters(driver, results, counted, what)

    def counted(self, call):
        """Time ``call()``: (start, wall seconds, result, counter deltas)."""
        gc.collect()
        mark = self.inputs.counter_totals()
        t0 = time.perf_counter()
        result = call()
        wall = time.perf_counter() - t0
        after = self.inputs.counter_totals()
        return t0, wall, result, (after[0] - mark[0], after[1] - mark[1])

    def counted_sweep(self, driver, tracer=None):
        return self.counted(lambda: self.sweep(driver, tracer=tracer))

    # -- end-to-end passes -----------------------------------------------

    def timed(self, seconds):
        """Untraced calls for ``seconds``, every case at least once.

        Each call goes to the driver with the least accumulated wall
        time, which takes its cases in turn, so a slow driver does not
        starve the fast ones of samples. Drivers with a case that has
        not run yet go first; after that a call starts only if its
        previous run would have ended in time. The probe runs before
        the first call and after each one. Returns the (start, wall
        seconds) of each case's calls, per driver.
        """
        drivers = self.wl.DRIVERS
        ncases = {d: len(self.inputs.cases_of(d)) for d in drivers}
        samples = {d: [[] for _ in range(ncases[d])] for d in drivers}
        spent = dict.fromkeys(drivers, 0.0)
        calls = dict.fromkeys(drivers, 0)
        end = time.perf_counter() + seconds

        def fits(d, now):
            last = samples[d][calls[d] % ncases[d]]
            return now + (last[-1][1] if last else 0.0) <= end

        self.probe.run()
        while True:
            now = time.perf_counter()
            ready = ([d for d in drivers if calls[d] < ncases[d]]
                     or [d for d in drivers if fits(d, now)])
            if not ready:
                break
            driver = min(ready, key=spent.get)
            k = calls[driver] % ncases[driver]
            calls[driver] += 1
            t0, wall, res, counted = self.counted(
                lambda: self.run_case(driver, k))
            self.probe.run()
            spent[driver] += wall
            if res is None:
                continue
            samples[driver][k].append((t0, wall))
            case = self.inputs.cases_of(driver)[k]
            self.case_counts[driver][k] = {
                "case": case.label, "driver_seed": case.seed,
                "matvecs": counted[0], "entries": counted[1]}
            self.check_case(driver, k, res, "timed")
            self.check_counters(driver, [res], counted, "timed")
        return samples

    def peak(self):
        """Highest tracemalloc peak of a single driver call, in MB.

        Only each driver's first case is measured: further cases differ
        from it in seeds alone.
        """
        worst = 0
        tracemalloc.start()
        try:
            for driver in self.wl.DRIVERS:
                gc.collect()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                res = self.run_case(driver, 0)
                if res is None:
                    continue
                worst = max(worst, tracemalloc.get_traced_memory()[1] - base)
                self.check_case(driver, 0, res, "peak pass")
                del res
        finally:
            tracemalloc.stop()
        return worst / 1e6


def setup(wl, name, seed, reps, workdir, probe):
    """Build the inputs ``reps`` times; keep the last build.

    Returns the inputs, the (start, wall seconds) of each build and the
    load time of each. The probe runs before the first build and after
    each one.
    """
    times, loads, inputs = [], [], None
    probe.run()
    for _ in range(reps):
        inputs = None
        gc.collect()
        t0 = time.perf_counter()
        inputs = wl.BUILDERS[name](seed, workdir)
        times.append((t0, time.perf_counter() - t0))
        loads.append(inputs.load_s)
        probe.run()
    return inputs, times, loads


def end_to_end(bench, args, setup_times, load_times):
    passes = {}
    t0 = time.perf_counter()
    bench.verify()
    passes["reference"] = time.perf_counter() - t0
    samples = bench.timed(args.seconds)
    passes["timed"] = time.perf_counter() - t0 - passes["reference"]
    peak_mb = bench.peak()
    passes["memory"] = time.perf_counter() - t0 - sum(passes.values())
    ref = bench.probe.reference_seconds
    metrics = {"setup_s": statistics.median(ref(*s) for s in setup_times)}
    calls, walls = {}, {}
    for d in bench.wl.DRIVERS:
        if not all(samples[d]):
            raise RuntimeError(f"a case of {d} has no successful timed call")
        per_case = [[ref(*c) for c in case] for case in samples[d]]
        counts = list(bench.case_counts[d].values())
        metrics[f"{d}_s"] = statistics.fmean(map(statistics.median, per_case))
        metrics[f"{d}_matvecs"] = statistics.fmean(c["matvecs"] for c in counts)
        metrics[f"{d}_entries"] = statistics.fmean(c["entries"] for c in counts)
        calls[d] = [v for case in per_case for v in case]
        walls[d] = [w for case in samples[d] for _, w in case]
    metrics["peak_mb"] = peak_mb
    notes = {"samples": samples, "setup_samples": setup_times,
             "pass_seconds": passes, "load_samples": load_times,
             "probe": {"reference_s": bench.probe.reference,
                       "starts": bench.probe.starts,
                       "values": bench.probe.values},
             "case_counts": {d: [c[k] for k in sorted(c)]
                             for d, c in bench.case_counts.items()},
             "calls": {d: len(v) for d, v in calls.items()},
             "wall_median": {d: statistics.median(w) for d, w in walls.items()},
             "tails": {d: tail(v) for d, v in calls.items()}}
    return metrics, notes


def traced(bench, args, tracing):
    """Untraced and traced sweeps in turn; per-module metrics per sweep.

    The order of the pair alternates from round to round so that
    ``trace.overhead_pct`` does not favour either side.
    """
    drivers = bench.wl.DRIVERS
    walls = {d: [0.0, 0.0] for d in drivers}
    layers = {d: {} for d in drivers}
    accounted, missing = [], set()
    targets = tracing.package_targets() + [
        (seq, "provider", "problems.provider", None, None)
        for seq in bench.inputs.seqs]
    rounds = 0
    end = time.perf_counter() + args.seconds
    while rounds == 0 or time.perf_counter() < end:
        for d in drivers:
            for with_trace in ((False, True), (True, False))[rounds % 2]:
                if not with_trace:
                    _, wall, res, counted = bench.counted_sweep(d)
                    if res is not None:
                        bench.check(d, res, counted, "untraced")
                        walls[d][0] += wall
                    continue
                tracer = tracing.Tracer()
                with tracer.installed(targets):
                    _, wall, res, counted = bench.counted_sweep(d, tracer)
                missing.update(tracer.missing)
                if res is None:
                    continue
                bench.check(d, res, counted, "traced")
                walls[d][1] += wall
                accounted.append(100.0 * tracer.root_seconds() / wall)
                lm = tracing.layer_metrics(tracer)
                if lm["oracles.matvecs"] + lm["oracles.rmatvecs"] != counted[0]:
                    bench.fail(f"{d}: traced matvec tally disagrees with "
                               "the oracle counters")
                lm.update(step_counts(d, res))
                for k, v in lm.items():
                    layers[d][k] = layers[d].get(k, 0.0) + v
        rounds += 1
    out = {}
    for d in drivers:
        for k, v in layers[d].items():
            if k.startswith("fileio."):
                continue
            if k.startswith("driver.refine") and d != "adacur":
                continue
            per = rounds if k.endswith("_ratio") else (
                rounds * len(bench.inputs.cases_of(d)))
            out[f"{d}.{k}"] = v / per
        out[f"{d}.{'fast' if d == 'fastadacur' else 'driver'}.err_ratio"] = \
            bench.err_ratio.get(d, 0.0)
    out.update(traced_load(bench, tracing))
    untraced = sum(w[0] for w in walls.values())
    out["trace.overhead_pct"] = 100.0 * (sum(w[1] for w in walls.values())
                                         / untraced - 1.0)
    out["trace.accounted_pct"] = min(accounted)
    if abs(out["trace.accounted_pct"] - 100.0) > 1.0:
        bench.fail("per-module self times do not account for a traced sweep")
    return out, {"rounds": rounds, "missing_targets": sorted(missing)}


def step_counts(driver, results):
    actions = [tr.action for res in results for _, tr in res]
    if driver == "fastadacur":
        return {"fast.truncate_steps": actions.count("TRUNCATE"),
                "fast.expand_steps": actions.count("EXPAND")}
    if driver == "adacur":
        return {"driver.reuse_steps": actions.count("REUSE"),
                "driver.minor_mod_steps": actions.count("MINOR_MOD"),
                "driver.recompute_steps": actions.count("RECOMPUTE")}
    return {}


def traced_load(bench, tracing):
    """fileio metrics from one traced read of the snapshot directory."""
    import adacur.fileio
    out = {"fileio.read_ms": 0.0, "fileio.assemble_ms": 0.0,
           "fileio.bytes_read": 0, "fileio.values_parsed": 0}
    snap = bench.inputs.snapshot_dir
    if snap is None:
        return out
    tracer = tracing.Tracer()
    with tracer.installed(tracing.package_targets()):
        adacur.fileio.load_sequence_dir(snap)
    lm = tracing.layer_metrics(tracer)
    return {k: lm[k] for k in out}


def report(args, prov, metrics, notes, bench):
    print(f"# adacur benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        extra = ""
        driver = name[:-2] if name.endswith("_s") else None
        if driver in notes.get("samples", {}):
            t = notes["tails"][driver]
            extra = (f"  median of {len(notes['samples'][driver])} case(s), "
                     f"{notes['calls'][driver]} calls") + (
                f"; p{t[0]:.0f} {t[1]:.4f}" if t else
                "; tail: fewer than 11 calls") + (
                f"; wall median {notes['wall_median'][driver]:.4f}")
        elif name.endswith("_flops"):
            extra = "  computed from call shapes"
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}{extra}")
    if bench.err_ratio:
        print("exact error / tol, worst step (reference pass): " + ", ".join(
            f"{d} {v:.4g}" for d, v in bench.err_ratio.items()))
    if "probe" in notes:
        pr = notes["probe"]
        print(f"times in reference seconds: wall seconds scaled by the "
              f"probe's {pr['reference_s']:g} s over its median "
              f"{statistics.median(pr['values']):.5f} s in "
              f"{len(pr['values'])} runs")
    if "load_samples" in notes:
        print(f"load_s (not gated): median "
              f"{statistics.median(notes['load_samples']):.4f} s of "
              f"{len(notes['load_samples'])} set-ups")
    if "pass_seconds" in notes:
        print("pass seconds: " + ", ".join(
            f"{k} {v:.1f}" for k, v in notes["pass_seconds"].items()))
    for message in bench.problems:
        print("CHECK FAILED: " + message)
    print(f"steps attempted {bench.attempted}, failed {bench.failed}")


def main(argv=None):
    args = parse_args(argv)
    # unwind on SIGTERM too, so the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for var in THREAD_VARS:  # before anything imports numpy
        os.environ[var] = "1"
    if not (SRC / "adacur" / "__init__.py").is_file():
        print(f"error: no adacur package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import probe
    import tracing
    import workloads

    prov = provenance(args)
    work_root = ROOT / "bench" / "_work"
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as workdir:
            reps = 1 if args.trace else workloads.SETUP_REPEATS[args.workload]
            machine = probe.Probe()
            inputs, setup_times, load_times = setup(
                workloads, args.workload, args.seed, reps, workdir, machine)
            bench = Bench(inputs, workloads, machine)
            if args.trace:
                bench.verify()
                values, notes = traced(bench, args, tracing)
            else:
                values, notes = end_to_end(bench, args, setup_times,
                                           load_times)
    finally:
        with contextlib.suppress(OSError):
            work_root.rmdir()
    units = declared_units(args.trace)
    if set(values) != set(units):
        print("error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    report(args, prov, metrics, notes, bench)
    result = {"correct": not bench.problems, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    if args.json:
        full = dict(result, provenance=prov, notes=notes,
                    err_ratio=bench.err_ratio, checks=bench.problems)
        args.json.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
