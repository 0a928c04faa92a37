"""Tests of the benchmark's own tracing and machine-speed probe.

Run from the repository root with ``python3 -m pytest bench``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import probe  # noqa: E402
import tracing  # noqa: E402
from adacur import (AdaCurConfig, FastConfig, GaussianEmbedding,  # noqa: E402
                    adacur_run, fastadacur_run, make_speed_problem,
                    make_synthetic_expm, recompute_baseline_run)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    leaf = tr.wrap("leaf", lambda: clock.advance(2.0))

    def body():
        clock.advance(1.0)
        leaf()
        leaf()
        clock.advance(3.0)

    mid = tr.wrap("mid", body)
    with tr.span("root"):
        clock.advance(0.5)
        mid()
        leaf()
        clock.advance(0.25)
    secs, calls = tr.self_times()
    assert dict(secs) == {"root": 0.75, "mid": 4.0, "leaf": 6.0}
    assert dict(calls) == {"root": 1, "mid": 1, "leaf": 3}
    assert tr.root_seconds() == sum(secs.values()) == 10.75


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def boom():
        clock.advance(1.0)
        raise ValueError

    with tr.span("root"):
        with pytest.raises(ValueError):
            tr.wrap("boom", boom)()
        clock.advance(1.0)
    secs, _ = tr.self_times()
    assert dict(secs) == {"root": 1.0, "boom": 1.0}


def test_redraw_ratio_counts_regenerated_rows():
    original = GaussianEmbedding.grown
    tr = tracing.Tracer()
    with tr.installed(tracing.package_targets()):
        emb = GaussianEmbedding(8, 50, seed=3)
        emb = emb.grown(16).grown(32)
        emb.grown(32)  # same size: reuses the rows it has
        GaussianEmbedding(4, 50, seed=9)
    assert GaussianEmbedding.grown is original
    assert sum(tr.drawn_by_seed.values()) == (8 + 16 + 32 + 4) * 50
    assert tr.redraw_ratio() == (8 + 16 + 32 + 4) / (32 + 4)


def test_missing_target_is_skipped_and_listed():
    tr = tracing.Tracer()
    with tr.installed([(tracing, "no_such_function", "x", None, None)]):
        pass
    assert tr.missing == ["tracing.no_such_function"]


def test_qr_flops_square():
    # 4n^3/3 for the factorization plus 4n^3/3 for the thin Q
    assert tracing.qr_flops(30, 30) == 8 * 30 ** 3 // 3


def _fields(results):
    return [(tr.step, tr.t, tr.rank, tr.est_rel_err, tr.true_rel_err,
             tr.action, tr.h1_cum, tr.h2_cum, tr.matvecs, tr.entries_read)
            for _, tr in results]


@pytest.mark.parametrize("driver", ["adacur", "fastadacur", "baseline"])
@pytest.mark.parametrize("problem", ["synthetic", "speed"])
def test_wrappers_leave_traces_and_counters_unchanged(driver, problem):
    if problem == "synthetic":
        seq, tol = make_synthetic_expm(n=40, q=6, seed=2), 1e-8
    else:
        seq, tol = make_speed_problem(m=300, n=80, r=10, q=4, seed=2), 1e-6
    if driver == "fastadacur":
        cfg, run = FastConfig(tol=tol, buffer=3, oversample=2), fastadacur_run
    else:
        cfg = AdaCurConfig(tol=tol, oversample=2)
        run = adacur_run if driver == "adacur" else recompute_baseline_run

    plain = _fields(run(seq, cfg))
    tr = tracing.Tracer()
    targets = tracing.package_targets() + [
        (seq, "provider", "problems.provider", None, None)]
    with tr.installed(targets):
        with tr.span("loop"):
            traced = _fields(run(seq, cfg))
    assert traced == plain
    assert tr.missing == []
    layers = tracing.layer_metrics(tr)
    assert (layers["oracles.matvecs"] + layers["oracles.rmatvecs"]
            == sum(row[8] for row in traced))
    times = sum(v for k, v in layers.items() if k.endswith("ms"))
    assert times == pytest.approx(1e3 * tr.root_seconds(), rel=1e-9)


def test_probe_scales_wall_time_by_the_runs_around_it():
    machine = probe.Probe()
    machine.starts = [0.0, 1.0, 10.0, 30.0]
    machine.values = [0.010, 0.020, 0.030, 0.060]
    # runs starting at 0, 1 and 10 lie within PAD_S of [1, 9]
    assert machine.around(1.0, 9.0) == pytest.approx(0.020)
    assert machine.reference_seconds(1.0, 8.0) == pytest.approx(
        8.0 * probe.REFERENCE_S / 0.020)
    with pytest.raises(ValueError):
        machine.around(16.0, 20.0)
