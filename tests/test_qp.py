"""QP instance generation, active-set reference solver, and benchmark
harness tests."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize

import penaltyflow as pf
from penaltyflow import qp
from penaltyflow.errors import (EnumerationBoundError, EvaluationError,
                                OracleError)
from penaltyflow.qp import BENCH_HEADER


class TestQpData:
    def test_symmetrizes_h(self):
        H = np.array([[1.0, 2.0], [0.0, 1.0]])
        data = pf.QpData(H=H, F=np.zeros(2),
                         A=np.zeros((0, 2)), B=np.zeros(0))
        np.testing.assert_array_equal(data.H, 0.5 * (H + H.T))

    def test_dimensions(self, halfspace_data):
        assert halfspace_data.n == 2
        assert halfspace_data.n_c == 1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pf.QpData(H=np.zeros((2, 3)), F=np.zeros(2),
                      A=np.zeros((0, 2)), B=np.zeros(0))
        with pytest.raises(ValueError):
            pf.QpData(H=np.eye(2), F=np.zeros(3),
                      A=np.zeros((0, 2)), B=np.zeros(0))
        with pytest.raises(ValueError):
            pf.QpData(H=np.eye(2), F=np.zeros(2),
                      A=np.zeros((1, 3)), B=np.zeros(1))
        with pytest.raises(ValueError):
            pf.QpData(H=np.eye(2), F=np.zeros(2),
                      A=np.zeros((1, 2)), B=np.zeros(2))


    @pytest.mark.parametrize("field", ["H", "F", "A", "B"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, halfspace_data, field,
                                         value):
        parts = {k: np.array(getattr(halfspace_data, k), dtype=float)
                 for k in ("H", "F", "A", "B")}
        parts[field].flat[0] = value
        with pytest.raises(ValueError, match="non-finite"):
            pf.QpData(**parts)


class TestGenerateRandomQp:
    def test_seed_determinism(self):
        a, xa = pf.generate_random_qp(5, 4, seed=7)
        b, xb = pf.generate_random_qp(5, 4, seed=7)
        np.testing.assert_array_equal(a.H, b.H)
        np.testing.assert_array_equal(a.F, b.F)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.B, b.B)
        np.testing.assert_array_equal(xa, xb)

    def test_seeds_differ(self):
        a, _ = pf.generate_random_qp(5, 4, seed=7)
        b, _ = pf.generate_random_qp(5, 4, seed=8)
        assert not np.array_equal(a.H, b.H)

    def test_interior_point_strictly_feasible(self):
        for seed in range(10):
            data, x_f = pf.generate_random_qp(6, 9, seed=seed)
            slack = data.A @ x_f - data.B
            assert np.all(slack <= -0.1 + 1e-12)

    def test_hessian_bounded_below_by_identity(self):
        for seed in range(10):
            data, _ = pf.generate_random_qp(6, 3, seed=seed)
            w = np.linalg.eigvalsh(data.H)
            assert w.min() >= 1.0 - 1e-9

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            pf.generate_random_qp(0, 3, seed=0)
        with pytest.raises(ValueError):
            pf.generate_random_qp(3, -1, seed=0)


class TestQpProblem:
    def test_function_wiring(self):
        data, _ = pf.generate_random_qp(4, 3, seed=1)
        prob = pf.qp_problem(data)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.standard_normal(4)
            np.testing.assert_allclose(
                prob.f(x), 0.5 * x @ data.H @ x + data.F @ x, rtol=1e-14)
            np.testing.assert_allclose(prob.f_x(x), data.H @ x + data.F,
                                       rtol=1e-14)
            np.testing.assert_allclose(prob.c(x), data.A @ x - data.B,
                                       rtol=1e-14)
            np.testing.assert_array_equal(prob.c_x(x), data.A)


class TestActiveSetOracle:
    def test_one_dimensional_bound(self, bound_1d_data):
        sol = pf.active_set_oracle(bound_1d_data)
        np.testing.assert_allclose(sol.x_star, [2.0], rtol=1e-12)
        assert sol.f_star == pytest.approx(2.0, rel=1e-12)
        np.testing.assert_allclose(sol.mu_star, [2.0], rtol=1e-12)
        assert sol.active_set == (0,)

    def test_halfspace_projection(self, halfspace_data):
        sol = pf.active_set_oracle(halfspace_data)
        np.testing.assert_allclose(sol.x_star, [1.0, 0.0], atol=1e-12)
        assert sol.f_star == pytest.approx(0.5, rel=1e-12)
        np.testing.assert_allclose(sol.mu_star, [1.0], rtol=1e-12)
        assert sol.active_set == (0,)

    def test_unconstrained_newton_point(self):
        data, _ = pf.generate_random_qp(5, 0, seed=3)
        sol = pf.active_set_oracle(data)
        np.testing.assert_allclose(sol.x_star,
                                   np.linalg.solve(data.H, -data.F),
                                   rtol=1e-10)
        assert sol.active_set == ()
        assert sol.mu_star.shape == (0,)

    def test_inactive_constraint_ignored(self):
        # optimum (2, 0) already satisfies x0 >= 1 strictly
        data = pf.QpData(H=np.eye(2), F=np.array([-2.0, 0.0]),
                         A=np.array([[-1.0, 0.0]]), B=np.array([-1.0]))
        sol = pf.active_set_oracle(data)
        np.testing.assert_allclose(sol.x_star, [2.0, 0.0], atol=1e-12)
        assert sol.active_set == ()
        np.testing.assert_array_equal(sol.mu_star, [0.0])

    def test_kkt_certified_on_seeded_instances(self):
        for seed in range(8):
            data, _ = pf.generate_random_qp(6, 5, seed=seed)
            sol = pf.active_set_oracle(data)
            assert np.all(sol.mu_star >= 0.0)
            resid = data.A @ sol.x_star - data.B
            assert np.max(resid, initial=0.0) <= 1e-7
            stat = data.H @ sol.x_star + data.F + sol.mu_star @ data.A
            assert np.linalg.norm(stat) <= 1e-7
            assert np.max(np.abs(sol.mu_star * resid), initial=0.0) <= 1e-7

    def test_matches_sqp_reference(self):
        # independent method cross-check on small instances
        for seed in range(5):
            data, x_f = pf.generate_random_qp(4, 3, seed=seed)
            sol = pf.active_set_oracle(data)
            ref = minimize(
                lambda x: 0.5 * x @ data.H @ x + data.F @ x,
                x_f, jac=lambda x: data.H @ x + data.F,
                constraints=[{"type": "ineq",
                              "fun": lambda x: data.B - data.A @ x,
                              "jac": lambda x: -data.A}],
                method="SLSQP", options={"ftol": 1e-12, "maxiter": 200})
            assert ref.success
            np.testing.assert_allclose(sol.f_star, ref.fun,
                                       rtol=1e-6, atol=1e-9)

    def test_enumeration_bound(self):
        data = pf.QpData(H=np.eye(2), F=np.zeros(2),
                         A=np.zeros((26, 2)), B=np.ones(26))
        with pytest.raises(EnumerationBoundError):
            pf.active_set_oracle(data)

    def test_indefinite_h_rejected(self):
        data = pf.QpData(H=np.array([[0.0]]), F=np.zeros(1),
                         A=np.zeros((0, 1)), B=np.zeros(0))
        with pytest.raises(OracleError):
            pf.active_set_oracle(data)

    def test_infeasible_constraints_rejected(self):
        # x <= -1 and x >= 1 cannot both hold
        data = pf.QpData(H=np.eye(1), F=np.zeros(1),
                         A=np.array([[1.0], [-1.0]]),
                         B=np.array([-1.0, -1.0]))
        with pytest.raises(OracleError):
            pf.active_set_oracle(data)


@pytest.fixture(scope="module")
def small_report():
    return pf.run_benchmark(4, 3, 2, pf.FlowParams(), pf.StopCriteria(),
                            pf.IntegratorConfig(), seed=0)


class TestRunBenchmark:
    def test_all_instances_pass(self, small_report):
        assert small_report.passed
        assert small_report.failing_seeds == []
        for row in small_report.rows:
            assert row.status == "converged"
            assert row.psi_final <= 1e-6
            assert 0.99 <= row.ratio <= 1.01
            assert row.stationarity <= 1e-4
            assert row.steps > 0
            assert row.millis > 0.0

    def test_rows_ordered_by_seed(self, small_report):
        assert [r.seed for r in small_report.rows] == [0, 1, 2, 3]

    def test_csv_layout(self, small_report, tmp_path):
        path = tmp_path / "bench.csv"
        small_report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == BENCH_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == "converged"
        assert len(first) == len(BENCH_HEADER.split(","))

    def test_one_dimensional_instances_tight(self):
        rep = pf.run_benchmark(3, 1, 1, pf.FlowParams(), pf.StopCriteria(),
                               pf.IntegratorConfig(), seed=0)
        assert rep.passed
        for row in rep.rows:
            assert abs(row.ratio - 1.0) <= 1e-6

    def test_unconstrained_instances_match_newton(self):
        rep = pf.run_benchmark(3, 4, 0, pf.FlowParams(), pf.StopCriteria(),
                               pf.IntegratorConfig(), seed=0)
        assert rep.passed
        for row in rep.rows:
            assert abs(row.ratio - 1.0) <= 1e-6
            assert np.linalg.norm(row.x_flow - row.x_oracle) <= 1e-3

    def test_unevaluable_start_recorded(self, monkeypatch):
        # the solver's own failure status, not an error row
        def failing_problem(data):
            def c(x):
                raise EvaluationError(0)
            return dataclasses.replace(pf.qp_problem(data), c=c)

        monkeypatch.setattr(qp, "qp_problem", failing_problem)
        rep = pf.run_benchmark(1, 2, 1, pf.FlowParams(), pf.StopCriteria(),
                               pf.IntegratorConfig(), seed=0)
        row = rep.rows[0]
        assert row.status == "rhs_failure"
        assert math.isnan(row.stationarity)
        assert rep.failing_seeds == [0]

    def test_per_instance_error_capture(self):
        rep = pf.run_benchmark(1, 2, 26, pf.FlowParams(),
                               pf.StopCriteria(), pf.IntegratorConfig(),
                               seed=0)
        assert rep.rows[0].status == "error:EnumerationBoundError"
        assert not rep.passed
        assert rep.failing_seeds == [0]
