"""End-to-end tests of the command line entry point."""

import os

import numpy as np
import pytest

from adacur.cli import main
from adacur.fileio import read_trace_csv, write_matrix_market


def run_cli(*args):
    return main(list(args))


class TestExitCodes:
    def test_synthetic_run_succeeds(self, tmp_path, capsys):
        out = str(tmp_path / "run.csv")
        code = run_cli("--problem", "synthetic", "--n", "40",
                       "--steps", "9", "--tol", "1e-6",
                       "--oversample", "5", "--out", out)
        assert code == 0
        assert os.path.exists(out)
        line = capsys.readouterr().out.strip()
        assert "adacur on synthetic" in line
        assert "wrote" in line

    def test_missing_problem_flag(self, capsys):
        assert run_cli("--tol", "1e-6") == 2

    def test_unknown_problem(self, capsys):
        assert run_cli("--problem", "nonsense") == 2

    def test_from_dir_requires_dir(self, capsys):
        assert run_cli("--problem", "from-dir") == 2

    def test_from_dir_missing_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert run_cli("--problem", "from-dir", "--dir", missing) == 2

    def test_gnuplot_requires_out(self, capsys):
        assert run_cli("--problem", "synthetic", "--n", "30",
                       "--steps", "5", "--gnuplot", "p.gp") == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "--problem" in capsys.readouterr().out

    @pytest.mark.parametrize("args, message", [
        (("--problem", "synthetic", "--n", "0", "--steps", "5"),
         "error: n must be an integer >= 2, got 0"),
        (("--problem", "adversarial", "--steps", "0"),
         "error: q must be an integer >= 2, got 0")],
        ids=["n", "steps"])
    def test_zero_size_is_forwarded_and_rejected(self, capsys, args, message):
        # a zero is the user's value, not a request for the default
        assert run_cli(*args) == 2
        assert message in capsys.readouterr().err

    def test_bad_seed_range(self, capsys):
        assert run_cli("--problem", "synthetic", "--n", "30",
                       "--steps", "5", "--seeds", "5..1") == 2

    @pytest.mark.parametrize("algo",
                             ["adacur", "recompute-baseline", "fastadacur"])
    def test_non_finite_snapshot_exits_3(self, tmp_path, capsys, algo):
        # bad data in a later snapshot is a runtime failure, not a
        # configuration error. adacur and the baseline sketch all of A
        # and see a single bad entry; fastadacur reads only its cross,
        # so it gets a bad row, which C = A[:, J] reads whatever J is
        rng = np.random.default_rng(0)
        base = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 15))
        for k in range(5):
            a = base * (1.0 + 0.01 * k)
            if k == 3 and algo == "fastadacur":
                a[11, :] = np.nan
            elif k == 3:
                a[11, 7] = np.nan
            write_matrix_market(str(tmp_path / f"step_{k}.mtx"), a)
        assert run_cli("--problem", "from-dir", "--dir", str(tmp_path),
                       "--algo", algo, "--tol", "1e-8") == 3
        assert "step 3: " in capsys.readouterr().err


class TestOutputs:
    def test_csv_contents(self, tmp_path, capsys):
        out = str(tmp_path / "run.csv")
        code = run_cli("--problem", "synthetic", "--n", "40", "--steps", "9",
                       "--tol", "1e-6", "--oversample", "5",
                       "--true-error", "--out", out)
        assert code == 0
        traces = read_trace_csv(out)
        assert len(traces) == 9
        assert traces[0].action == "RECOMPUTE"
        assert all(tr.true_rel_err is not None for tr in traces)
        assert max(tr.true_rel_err for tr in traces) <= 1e-5

    def test_fastadacur_true_error_patched_in(self, tmp_path, capsys):
        # the fast driver never estimates errors; the CLI fills the true
        # error column afterwards when asked
        out = str(tmp_path / "fast.csv")
        code = run_cli("--problem", "synthetic", "--n", "40", "--steps", "9",
                       "--algo", "fastadacur", "--buffer", "5",
                       "--true-error", "--out", out)
        assert code == 0
        traces = read_trace_csv(out)
        assert all(tr.est_rel_err is None for tr in traces)
        assert all(tr.true_rel_err is not None for tr in traces)

    def test_gnuplot_script_written(self, tmp_path, capsys):
        out = str(tmp_path / "run.csv")
        gp = str(tmp_path / "run.gp")
        code = run_cli("--problem", "synthetic", "--n", "30", "--steps", "5",
                       "--out", out, "--gnuplot", gp)
        assert code == 0
        text = open(gp).read()
        assert "multiplot" in text
        assert out in text

    def test_seed_batch_writes_suffixed_csvs(self, tmp_path, capsys):
        out = str(tmp_path / "batch.csv")
        code = run_cli("--problem", "synthetic", "--n", "30", "--steps", "5",
                       "--seeds", "3..5", "--out", out)
        assert code == 0
        for seed in (3, 4, 5):
            assert os.path.exists(str(tmp_path / f"batch_seed{seed}.csv"))
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_deterministic_csv_except_wall(self, tmp_path, capsys):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        args = ("--problem", "synthetic", "--n", "40", "--steps", "7",
                "--tol", "1e-6", "--seed", "11")
        assert run_cli(*args, "--out", out1) == 0
        assert run_cli(*args, "--out", out2) == 0
        t1, t2 = read_trace_csv(out1), read_trace_csv(out2)
        for a, b in zip(t1, t2):
            assert (a.step, a.t, a.rank, a.est_rel_err, a.action,
                    a.h1_cum, a.h2_cum, a.matvecs) == \
                   (b.step, b.t, b.rank, b.est_rel_err, b.action,
                    b.h1_cum, b.h2_cum, b.matvecs)

    def test_from_dir_runs(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((20, 4)) @ rng.standard_normal((4, 15))
        for k in range(4):
            write_matrix_market(str(tmp_path / f"step_{k}.mtx"),
                                base * (1.0 + 0.01 * k))
        out = str(tmp_path / "dir.csv")
        code = run_cli("--problem", "from-dir", "--dir", str(tmp_path),
                       "--tol", "1e-8", "--out", out)
        assert code == 0
        traces = read_trace_csv(out)
        assert len(traces) == 4
        assert all(tr.rank == 4 for tr in traces)

    def test_other_problems_smoke(self, capsys):
        assert run_cli("--problem", "schrodinger", "--n", "24",
                       "--steps", "5", "--tol", "1e-8") == 0
        assert run_cli("--problem", "adversarial", "--steps", "11",
                       "--tol", "1e-4", "--algo", "fastadacur") == 0

    def test_recompute_baseline_smoke(self, capsys):
        assert run_cli("--problem", "synthetic", "--n", "30", "--steps", "5",
                       "--algo", "recompute-baseline") == 0
        assert "recompute-baseline" in capsys.readouterr().out
