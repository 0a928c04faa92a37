"""Golden-trace guard: refactors must leave every driver's trace as is.

``tests/data/golden_traces.json`` holds every ``StepTrace`` field but
``wall_ms`` for the three drivers on small instances of the built-in
problems at driver seeds 0 and 3. Strings and integers must match
exactly and floats to a relative 1e-12. A change that means to alter
traces first lists what moved, per case the largest relative change of
each float field and any int or string field that moved (exit status 1
if any case differs), then regenerates the file and says why in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden_traces.py --diff
    PYTHONPATH=src python tests/test_golden_traces.py --write
"""

import json
import math
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

import pytest

import conftest  # noqa: F401  pins BLAS to one thread, also for --write
from adacur.driver import AdaCurConfig, adacur_run, recompute_baseline_run
from adacur.fast import FastConfig, fastadacur_run
from adacur.problems import (make_adversarial, make_schrodinger,
                             make_speed_problem, make_synthetic_expm)

GOLDEN = Path(__file__).parent / "data" / "golden_traces.json"

# problem -> (sequence builder, tol)
PROBLEMS = {
    "synthetic": (lambda: make_synthetic_expm(n=60, q=11, seed=0), 1e-8),
    "schrodinger": (lambda: make_schrodinger(n=32, q=11, seed=0), 1e-10),
    "adversarial": (lambda: make_adversarial(seed=0, q=21), 1e-4),
    "speed": (lambda: make_speed_problem(m=600, n=200, r=20, q=6, seed=0),
              1e-6),
}
DRIVERS = ("adacur", "baseline", "fastadacur")
SEEDS = (0, 3)
CASES = [f"{p}/{d}/{s}" for p in PROBLEMS for d in DRIVERS for s in SEEDS]


@cache
def _sequence(problem):
    return PROBLEMS[problem][0]()


def run_case(case):
    """Trace of one ``problem/driver/seed`` case, without ``wall_ms``."""
    problem, driver, seed = case.split("/")
    _, tol = PROBLEMS[problem]
    if driver == "fastadacur":
        cfg = FastConfig(tol=tol, buffer=4, oversample=2, seed=int(seed))
        run = fastadacur_run
    else:
        cfg = AdaCurConfig(tol=tol, oversample=3, seed=int(seed),
                           true_error=True)
        run = adacur_run if driver == "adacur" else recompute_baseline_run
    traces = []
    for _, tr in run(_sequence(problem), cfg):
        row = asdict(tr)
        del row["wall_ms"]
        traces.append(row)
    return traces


def differences(got, want):
    """``(step, field, got, want)`` for every field that does not match."""
    if len(got) != len(want):
        return [(None, "steps", len(got), len(want))]
    out = []
    for g, w in zip(got, want):
        for key, value in w.items():
            same = (math.isclose(g.get(key), value, rel_tol=1e-12)
                    if isinstance(value, float) else g.get(key) == value)
            if not same:
                out.append((w["step"], key, g.get(key), value))
    return out


def diff_report(golden):
    """Print what moved from ``golden`` per case; the count of cases.

    Per case: the largest relative change of each float field that
    moved, and which int or string fields moved, if any. A last line
    gives each float field's largest change over all cases.
    """
    changed = 0
    overall = {}
    for case in CASES:
        got, want = run_case(case), golden[case]
        diffs = differences(got, want)
        if not diffs:
            continue
        changed += 1
        if diffs[0][0] is None:
            print(f"{case}: {len(got)} steps != {len(want)}")
            continue
        floats, exact = {}, set()
        for _, key, g, w in diffs:
            if isinstance(g, float) and isinstance(w, float):
                rel = abs(g - w) / abs(w) if w else math.inf
                floats[key] = max(floats.get(key, 0.0), rel)
            else:
                exact.add(key)
        for key, rel in floats.items():
            overall[key] = max(overall.get(key, 0.0), rel)
        parts = [f"{key} max rel change {rel:.3g}"
                 for key, rel in sorted(floats.items())]
        parts.append("int/str fields moved: " + ", ".join(sorted(exact))
                     if exact else "no int or str field moved")
        print(f"{case}: {'; '.join(parts)}")
    print(f"{changed} of {len(CASES)} cases differ from {GOLDEN.name}")
    if overall:
        print("largest float changes: " + ", ".join(
            f"{key} {rel:.3g}" for key, rel in sorted(overall.items())))
    return changed


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_trace_matches_golden(golden, case):
    got = run_case(case)
    assert all(g.keys() == w.keys() for g, w in zip(got, golden[case]))
    diffs = differences(got, golden[case])
    assert not diffs, "step {} {}: {!r} != {!r}".format(*diffs[0])


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(1 if diff_report(json.loads(GOLDEN.read_text())) else 0)
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --diff | --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({c: run_case(c) for c in CASES}, indent=1)
                      + "\n")
    print(f"wrote {len(CASES)} traces to {GOLDEN}")
