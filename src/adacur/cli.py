"""Command-line front end: build a problem, run a driver, write traces.

Examples
--------
Run the certified driver on the rotating synthetic problem and keep
the exact per-step error alongside the estimate::

    adacur --problem synthetic --algo adacur --tol 1e-8 --n 200 \
        --steps 101 --seed 1 --true-error --out run.csv

Compare against per-step recomputation on the large timing problem
(sizes fixed at 5000x1000, rank 100)::

    adacur --problem speed --algo recompute-baseline --tol 1e-6 \
        --err-samples 10 --oversample 10 --out base.csv
"""

import argparse
import sys

from .driver import AdaCurConfig, adacur_run, recompute_baseline_run
from .errors import InvalidInput, ParseError
from .fast import FastConfig, fastadacur_run
from .fileio import load_sequence_dir, write_trace_csv
from .problems import (make_adversarial, make_schrodinger, make_speed_problem,
                       make_synthetic_expm, true_relative_error)

__all__ = ["build_parser", "run_experiment", "main"]


def build_parser():
    p = argparse.ArgumentParser(
        prog="adacur",
        description="Rank-adaptive CUR tracking of parameter-dependent "
                    "matrices.")
    p.add_argument("--problem", required=True,
                   choices=["synthetic", "schrodinger", "adversarial",
                            "speed", "from-dir"],
                   help="test problem family, or from-dir to load "
                        "step_<k>.mtx files")
    p.add_argument("--dir", help="directory for --problem from-dir")
    p.add_argument("--algo", default="adacur",
                   choices=["adacur", "fastadacur", "recompute-baseline"])
    p.add_argument("--tol", type=float, default=1e-6,
                   help="relative error tolerance (default 1e-6)")
    p.add_argument("--oversample", type=int, default=0,
                   help="extra rows kept beyond the square cross (default "
                        "0; at 0 fastadacur misses --tol far more often "
                        "than at 5)")
    p.add_argument("--err-samples", type=int, default=5, dest="err_samples",
                   help="sketch rows for error estimation (adacur)")
    p.add_argument("--buffer", type=int, default=5,
                   help="buffer index space (fastadacur)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=None,
                   help="problem size for synthetic (default 200) and "
                        "schrodinger (default 128); other problems have "
                        "fixed sizes")
    p.add_argument("--steps", type=int, default=None,
                   help="number of parameter values (default 101; "
                        "51 for speed)")
    p.add_argument("--true-error", action="store_true", dest="true_error",
                   help="record the exact relative error per step "
                        "(reads the full matrix)")
    p.add_argument("--out", help="trace CSV output path")
    p.add_argument("--gnuplot",
                   help="also emit a gnuplot script plotting the CSV")
    p.add_argument("--seeds", metavar="A..B",
                   help="run a batch of seeds A through B inclusive, "
                        "each writing <out>_seed<k>.csv")
    return p


def _build_sequence(ns):
    # forward only the sizes given, so the defaults live in `problems`
    q = {} if ns.steps is None else {"q": ns.steps}
    n = {} if ns.n is None else {"n": ns.n}
    if ns.problem == "synthetic":
        return make_synthetic_expm(seed=ns.seed, **n, **q)
    if ns.problem == "schrodinger":
        return make_schrodinger(seed=ns.seed, **n, **q)
    if ns.problem == "adversarial":
        return make_adversarial(seed=ns.seed, **q)
    if ns.problem == "speed":
        return make_speed_problem(seed=ns.seed, **q)
    if ns.dir is None:
        raise InvalidInput("--problem from-dir requires --dir")
    return load_sequence_dir(ns.dir)


def _run(ns, seq, seed):
    # the CLI writes traces only, so the drivers keep factors only to
    # score fastadacur's exact errors; factors kept otherwise would
    # hold every step's oracle
    if ns.algo == "fastadacur":
        cfg = FastConfig(tol=ns.tol, buffer=ns.buffer,
                         oversample=ns.oversample, seed=seed,
                         store_factors=ns.true_error)
        results = fastadacur_run(seq, cfg)
        if ns.true_error:
            for j, (fac, tr) in enumerate(results):
                tr.true_rel_err = true_relative_error(seq.oracle(j), fac)
        return results
    cfg = AdaCurConfig(tol=ns.tol, err_samples=ns.err_samples,
                       oversample=ns.oversample, seed=seed,
                       true_error=ns.true_error, store_factors=False)
    run = adacur_run if ns.algo == "adacur" else recompute_baseline_run
    return run(seq, cfg)


def _summarize(ns, seed, traces, out):
    total_ms = sum(tr.wall_ms for tr in traces)
    h1, h2 = traces[-1].h1_cum, traces[-1].h2_cum
    ests = [tr.est_rel_err for tr in traces if tr.est_rel_err is not None]
    parts = [f"{ns.algo} on {ns.problem}: {len(traces)} steps",
             f"seed {seed}", f"final rank {traces[-1].rank}",
             f"h1 {h1}", f"h2 {h2}", f"wall {total_ms / 1e3:.3f}s"]
    if ests:
        parts.append(f"max est err {max(ests):.3e}")
    trues = [tr.true_rel_err for tr in traces if tr.true_rel_err is not None]
    if trues:
        parts.append(f"max true err {max(trues):.3e}")
    if out:
        parts.append(f"wrote {out}")
    print(", ".join(parts))


_GNUPLOT = """\
# generated companion plot script; run: gnuplot {script}
set datafile separator ','
set datafile missing ''
set terminal pngcairo size 900,700
set output '{stem}.png'
set multiplot layout 2,1
set logscale y
set xlabel 't'
set ylabel 'relative error'
plot '{csv}' using 2:4 with linespoints pt 6 title 'estimated', \\
     '{csv}' using 2:5 with linespoints pt 4 title 'true'
unset logscale y
set ylabel 'rank'
plot '{csv}' using 2:3 with steps lw 2 title 'rank'
unset multiplot
"""


def _emit_gnuplot(script_path, csv_path):
    stem = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
    with open(script_path, "w", encoding="utf-8") as f:
        f.write(_GNUPLOT.format(script=script_path, stem=stem,
                                csv=csv_path))


def _parse_seed_range(text):
    m = text.split("..")
    if len(m) != 2:
        raise InvalidInput(f"--seeds expects A..B, got {text!r}")
    try:
        a, b = int(m[0]), int(m[1])
    except ValueError:
        raise InvalidInput(f"--seeds expects integers, got {text!r}") from None
    if b < a:
        raise InvalidInput(f"--seeds range is empty: {text}")
    return range(a, b + 1)


def run_experiment(ns):
    """Run one experiment (or a seed batch); returns the exit code."""
    try:
        if ns.gnuplot and not ns.out:
            raise InvalidInput("--gnuplot requires --out")
        seeds = (_parse_seed_range(ns.seeds) if ns.seeds
                 else [ns.seed])
        seq = _build_sequence(ns)
    except (InvalidInput, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        for seed in seeds:
            results = _run(ns, seq, seed)
            traces = [tr for _, tr in results]
            out = None
            if ns.out:
                out = ns.out
                if ns.seeds:
                    stem = out[:-4] if out.endswith(".csv") else out
                    out = f"{stem}_seed{seed}.csv"
                write_trace_csv(traces, out)
                if ns.gnuplot:
                    script = ns.gnuplot
                    if ns.seeds:
                        script = f"{script}_seed{seed}"
                    _emit_gnuplot(script, out)
            _summarize(ns, seed, traces, out)
    except (InvalidInput, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed usage or help
        return 0 if exc.code == 0 else 2
    return run_experiment(ns)


if __name__ == "__main__":
    sys.exit(main())
