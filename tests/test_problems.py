"""Tests for the built-in parameter-dependent test problems."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from adacur.errors import InvalidInput
from adacur.linalg import LowRankOperator
from adacur.oracles import (DenseOracle, LowRankPlusSparseOracle,
                            ParamMatrixSequence)
from adacur.problems import (
    make_adversarial,
    make_schrodinger,
    make_speed_problem,
    make_synthetic_expm,
    synthetic_expm_singvals,
    true_relative_error,
)


def dense_of(oracle):
    return oracle.col_block(np.arange(oracle.shape[1]))


class TestSyntheticExpm:
    def test_shapes_and_param_grid(self):
        seq = make_synthetic_expm(n=60, q=11, seed=0)
        assert seq.shape == (60, 60)
        np.testing.assert_allclose(seq.params, np.linspace(0, 1, 11))

    def test_singular_values_match_analytic(self):
        # the construction is orthogonal mixing around a known diagonal,
        # so singular values are exp(t) * 2^-j exactly; values near the
        # noise floor eps*sigma_1 are only meaningful absolutely
        seq = make_synthetic_expm(n=50, q=5, seed=3)
        for j in [0, 2, 4]:
            t = seq.params[j]
            s = np.linalg.svd(dense_of(seq.oracle(j)), compute_uv=False)
            ref = synthetic_expm_singvals(50, t)
            assert np.abs(s - ref).max() <= 1e-12 * ref[0]

    def test_matches_direct_matrix_exponentials(self):
        # cross-check one snapshot against scipy's expm on the same
        # generating data at modest size
        n, t = 40, 0.7
        seq = make_synthetic_expm(n=n, q=11, seed=5)
        rng = np.random.default_rng(
            np.random.SeedSequence([5 & 0xFFFFFFFFFFFFFFFF]).entropy)
        a = dense_of(seq.oracle(7))
        assert np.isclose(seq.params[7], t)
        # reconstruct through the factored path at t = 0: e^0 = identity
        a0 = dense_of(seq.oracle(0))
        s0 = np.linalg.svd(a0, compute_uv=False)
        np.testing.assert_allclose(s0, synthetic_expm_singvals(n, 0.0),
                                   atol=1e-13 * s0[0])
        # orthogonal invariance: Frobenius norm equals norm of the diag
        np.testing.assert_allclose(
            np.linalg.norm(a), np.linalg.norm(synthetic_expm_singvals(n, t)),
            rtol=1e-12)

    def test_smooth_in_t(self):
        # neighbouring snapshots differ by O(dt), far from a re-draw
        seq = make_synthetic_expm(n=40, q=21, seed=1)
        a0 = dense_of(seq.oracle(10))
        a1 = dense_of(seq.oracle(11))
        rel = np.linalg.norm(a1 - a0) / np.linalg.norm(a0)
        assert rel <= 0.5

    def test_deterministic_in_seed(self):
        s1 = make_synthetic_expm(n=30, q=3, seed=9)
        s2 = make_synthetic_expm(n=30, q=3, seed=9)
        np.testing.assert_array_equal(dense_of(s1.oracle(2)),
                                      dense_of(s2.oracle(2)))


class TestSchrodinger:
    def test_zero_potential_closed_form(self):
        # without the potential the flow is a two-sided matrix
        # exponential; RK4 with certified steps must match it
        n, t_end = 32, 0.1
        seq = make_schrodinger(n=n, q=6, seed=2, t_end=t_end,
                               zero_potential=True)
        a0 = dense_of(seq.oracle(0))
        d = (np.diag(2.0 * np.ones(n)) + np.diag(-1.0 * np.ones(n - 1), 1)
             + np.diag(-1.0 * np.ones(n - 1), -1))
        for j in [3, 5]:
            t = seq.params[j]
            e = sla.expm(t * d / 2.0)
            ref = e @ a0 @ e
            got = dense_of(seq.oracle(j))
            err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            assert err <= 1e-9

    def test_initial_spectrum(self):
        seq = make_schrodinger(n=24, q=3, seed=0)
        s = np.linalg.svd(dense_of(seq.oracle(0)), compute_uv=False)
        ref = np.power(10.0, -np.arange(1, 25, dtype=float))
        assert np.abs(s - ref).max() <= 1e-12 * ref[0]

    def test_matches_reference_integrator(self):
        # independent check of the full right-hand side against scipy's
        # adaptive integrator at tight tolerance
        from scipy.integrate import solve_ivp
        n, t_end = 16, 0.05
        seq = make_schrodinger(n=n, q=4, seed=1, t_end=t_end)
        a0 = dense_of(seq.oracle(0))
        d = (np.diag(2.0 * np.ones(n)) + np.diag(-np.ones(n - 1), 1)
             + np.diag(-np.ones(n - 1), -1))
        jj = np.arange(n) - n // 2
        v = 1.0 - np.cos(2.0 * np.pi * jj / n)

        def f(t, y):
            a = y.reshape(n, n)
            out = 0.5 * (d @ a + a @ d) - v[:, None] * a * v[None, :]
            return out.ravel()

        sol = solve_ivp(f, (0.0, t_end), a0.ravel(), rtol=1e-12, atol=1e-14,
                        dense_output=True)
        ref = sol.sol(t_end).reshape(n, n)
        got = dense_of(seq.oracle(3))
        err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
        assert err <= 1e-8

    def test_param_grid(self):
        seq = make_schrodinger(n=16, q=5, seed=0, t_end=0.2)
        np.testing.assert_allclose(seq.params, np.linspace(0, 0.2, 5))


class TestAdversarial:
    def test_shape_and_blocks(self):
        seq = make_adversarial(seed=0, q=11)
        assert seq.shape == (300, 100)
        a = dense_of(seq.oracle(0))
        # top-left block holds the static rank-20 part
        assert np.linalg.norm(a[:100, :20]) > 0
        assert np.linalg.norm(a[:100, 20:]) == 0
        assert np.linalg.norm(a[100:, :90]) == 0
        # the ramping block vanishes at t = 0
        assert np.linalg.norm(a[100:, 90:]) == 0

    def test_ramp_scaling(self):
        seq = make_adversarial(seed=0, q=11)
        ts = seq.params
        a1 = dense_of(seq.oracle(1))
        a5 = dense_of(seq.oracle(5))
        n1 = np.linalg.norm(a1[100:, 90:])
        n5 = np.linalg.norm(a5[100:, 90:])
        c = lambda t: np.power(10.0, -5.0 + t / 10.0) * t
        np.testing.assert_allclose(n5 / n1, c(ts[5]) / c(ts[1]), rtol=1e-10)

    def test_static_block_constant(self):
        seq = make_adversarial(seed=3, q=6)
        a0 = dense_of(seq.oracle(0))[:100, :20]
        a4 = dense_of(seq.oracle(4))[:100, :20]
        np.testing.assert_array_equal(a0, a4)


class TestSpeedProblem:
    def test_oracle_type_and_no_caching(self):
        seq = make_speed_problem(m=300, n=120, r=12, q=4, seed=0)
        assert not seq.cache_oracles
        orc = seq.oracle(1)
        assert isinstance(orc, LowRankPlusSparseOracle)

    def test_sparse_part_accumulates(self):
        seq = make_speed_problem(m=400, n=200, r=10, q=5, seed=1,
                                 density=1e-3)
        nnz = [seq.oracle(j).nnz for j in range(5)]
        assert nnz[0] == 0
        assert all(a <= b for a, b in zip(nnz, nnz[1:]))
        assert nnz[-1] > 0

    def test_matches_dense_reference(self):
        # assemble the same low-rank plus cumulative-sparse matrix
        # directly and compare a few probes
        seq = make_speed_problem(m=200, n=100, r=8, q=4, seed=2,
                                 delta=1e-3, density=1e-2)
        rng = np.random.default_rng(7)
        for j in [0, 2, 3]:
            orc = seq.oracle(j)
            dense = orc.col_block(np.arange(100))
            x = rng.standard_normal(100)
            np.testing.assert_allclose(orc.matvec(x), dense @ x,
                                       rtol=1e-12, atol=1e-15)
            y = rng.standard_normal(200)
            np.testing.assert_allclose(orc.rmatvec(y), dense.T @ y,
                                       rtol=1e-12, atol=1e-15)
            rows = np.array([0, 50, 199])
            np.testing.assert_allclose(orc.row_block(rows), dense[rows],
                                       rtol=1e-12, atol=1e-15)

    def test_deterministic_across_rebuilds(self):
        # oracles are not cached, so step j is rebuilt on demand; the
        # cumulative sparse state must replay identically
        seq = make_speed_problem(m=200, n=100, r=8, q=5, seed=3,
                                 density=1e-2)
        a_fwd = seq.oracle(4).col_block(np.arange(100))
        _ = seq.oracle(1)  # jump backwards, forcing a state rebuild
        a_again = seq.oracle(4).col_block(np.arange(100))
        np.testing.assert_array_equal(a_fwd, a_again)

    def test_oracles_share_low_rank_factor(self):
        # each step's oracle owns only its sparse term and its counters;
        # sharing the premultiplied factor must not change a single bit
        seq = make_speed_problem(m=300, n=120, r=12, q=4, seed=5,
                                 density=1e-3)
        rng = np.random.default_rng(9)
        rows, cols = np.array([0, 7, 299]), np.array([3, 119, 50])
        x, y = rng.standard_normal((120, 3)), rng.standard_normal((300, 3))
        orcs = [seq.oracle(j) for j in range(4)]
        for orc in orcs:
            assert orc._us is orcs[0]._us
            fresh = LowRankPlusSparseOracle(orc.u, orc.sigma, orc.v, orc._csr)
            for name, args in [("row_block", (rows,)), ("col_block", (cols,)),
                               ("submatrix", (rows, cols)), ("matmat", (x,)),
                               ("rmatmat", (y,))]:
                np.testing.assert_array_equal(getattr(orc, name)(*args),
                                              getattr(fresh, name)(*args))
        counts = [(o.counters.matvecs, o.counters.rmatvecs,
                   o.counters.entries_read) for o in orcs]
        assert counts == [(3, 3, 3 * 120 + 3 * 300 + 9)] * 4
        assert orcs[1].nnz > 0 and orcs[0].nnz == 0

    def test_singular_value_profile(self):
        seq = make_speed_problem(m=300, n=150, r=20, q=3, seed=4,
                                 delta=0.0)
        s = np.linalg.svd(seq.oracle(0).col_block(np.arange(150)),
                          compute_uv=False)
        np.testing.assert_allclose(s[:20], np.logspace(0, -8, 20),
                                   rtol=1e-10)


class TestTrueRelativeError:
    def test_zero_error_for_identical(self, rng):
        a = rng.standard_normal((30, 20))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        op = LowRankOperator(u * s, vt)
        assert true_relative_error(DenseOracle(a), op) <= 1e-14

    def test_blocksize_independent(self, rng):
        a = rng.standard_normal((70, 40))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        op = LowRankOperator(u[:, :5] * s[:5], vt[:5])
        e1 = true_relative_error(DenseOracle(a), op, block_rows=7)
        e2 = true_relative_error(DenseOracle(a), op, block_rows=256)
        np.testing.assert_allclose(e1, e2, rtol=1e-12)

    def test_zero_matrix_gives_zero(self):
        op = LowRankOperator(np.zeros((10, 1)), np.zeros((1, 8)))
        assert true_relative_error(DenseOracle(np.zeros((10, 8))), op) == 0.0

    @pytest.mark.parametrize("block_rows", [-1, 0, 2.5, True, "8"])
    def test_bad_block_rows_rejected(self, rng, block_rows):
        op = LowRankOperator(np.zeros((12, 1)), np.zeros((1, 8)))
        with pytest.raises(InvalidInput, match="block_rows"):
            true_relative_error(DenseOracle(rng.standard_normal((12, 8))),
                                op, block_rows=block_rows)

    def test_numpy_block_rows_accepted(self, rng):
        op = LowRankOperator(np.zeros((12, 1)), np.zeros((1, 8)))
        orc = DenseOracle(rng.standard_normal((12, 8)))
        assert true_relative_error(orc, op, block_rows=np.int64(5)) == 1.0


class TestBadArguments:
    @pytest.mark.parametrize("make, kwargs, name", [
        (make_speed_problem, {"m": 600.0}, "m"),
        (make_speed_problem, {"n": True}, "n"),
        (make_speed_problem, {"r": 0}, "r"),
        (make_speed_problem, {"q": 2.0}, "q"),
        (make_speed_problem, {"seed": 0.5}, "seed"),
        (make_speed_problem, {"density": 2.0}, "density"),
        (make_speed_problem, {"density": -1.0}, "density"),
        (make_speed_problem, {"density": 0.0}, "density"),
        (make_speed_problem, {"density": np.nan}, "density"),
        (make_speed_problem, {"delta": np.nan}, "delta"),
        (make_speed_problem, {"delta": np.inf}, "delta"),
        (make_synthetic_expm, {"n": 10.0}, "n"),
        (make_synthetic_expm, {"q": 0}, "q"),
        (make_schrodinger, {"n": 8.0}, "n"),
        (make_schrodinger, {"q": 1}, "q"),
        (make_schrodinger, {"t_end": -1.0}, "t_end"),
        (make_schrodinger, {"t_end": 0.0}, "t_end"),
        (make_schrodinger, {"t_end": np.inf}, "t_end"),
        (make_schrodinger, {"t_end": np.nan}, "t_end"),
        (make_adversarial, {"q": 2.5}, "q"),
        (make_adversarial, {"seed": "0"}, "seed"),
    ])
    def test_rejected_at_the_boundary(self, make, kwargs, name):
        with pytest.raises(InvalidInput, match=f"^{name} "):
            make(**kwargs)

    @pytest.mark.parametrize("shape", [(30,), (30, 40, 1), 30, (0, 4),
                                       (3.0, 4), (3, True)])
    def test_bad_sequence_shape_rejected(self, shape):
        with pytest.raises(InvalidInput, match=r"^shape\b"):
            ParamMatrixSequence([0.0], lambda j: DenseOracle(np.eye(3)),
                                shape)
