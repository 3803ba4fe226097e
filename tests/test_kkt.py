"""Multiplier extraction and KKT residual tests."""

import dataclasses

import numpy as np
import pytest

import penaltyflow as pf
from penaltyflow.problem import measure_state


def _quad_problem(H, F, A=None, B=None):
    return pf.qp_problem(pf.QpData(H=np.asarray(H, dtype=float),
                                   F=np.asarray(F, dtype=float),
                                   A=np.zeros((0, len(F))) if A is None
                                   else np.asarray(A, dtype=float),
                                   B=np.zeros(0) if B is None
                                   else np.asarray(B, dtype=float)))


class TestExtractMultipliers:
    def test_active_constraint_formula(self):
        # rho * m * c^(m-1) = 10 * 2 * 0.01
        prob = _quad_problem(np.eye(1), [0.0], A=[[1.0]], B=[0.0])
        mu = pf.extract_multipliers(prob, np.array([0.01]), 10.0,
                                    pf.FlowParams(m=2))
        np.testing.assert_allclose(mu, [0.2], rtol=1e-15)

    def test_inactive_constraint_zero(self):
        prob = _quad_problem(np.eye(1), [0.0], A=[[1.0]], B=[0.0])
        mu = pf.extract_multipliers(prob, np.array([-0.5]), 1e8,
                                    pf.FlowParams(m=2))
        assert mu[0] == 0.0

    def test_no_constraints_empty(self):
        prob = _quad_problem(np.eye(2), [1.0, 1.0])
        mu = pf.extract_multipliers(prob, np.zeros(2), 5.0, pf.FlowParams())
        assert mu.shape == (0,)

    def test_halfspace_flow_multiplier(self, halfspace_problem):
        res = pf.solve(halfspace_problem, pf.FlowParams(),
                       pf.FlowState(x=np.zeros(2)), pf.StopCriteria(),
                       pf.IntegratorConfig())
        assert res.status == "converged"
        np.testing.assert_allclose(res.mu, [1.0], atol=1e-2)

    def test_dual_feasible_on_random_states(self, halfspace_problem):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal(2) * 3.0
            rho = float(rng.uniform(0.0, 1e6))
            mu = pf.extract_multipliers(halfspace_problem, x, rho,
                                        pf.FlowParams(m=2))
            assert np.all(mu >= 0.0)

    def test_stationarity_matches_g(self, halfspace_problem):
        # penalty-gradient identity: ||f_x + mu @ c_x|| == g(x, rho),
        # bit for bit
        params = pf.FlowParams(m=2)
        rng = np.random.default_rng(11)
        for _ in range(30):
            x = rng.standard_normal(2) * 2.0
            rho = float(rng.uniform(0.0, 1e4))
            mu = pf.extract_multipliers(halfspace_problem, x, rho, params)
            rep = pf.kkt_residuals(halfspace_problem, x, mu)
            _, g, _, c = measure_state(halfspace_problem, x, rho, params)
            assert rep.stationarity == g
            np.testing.assert_array_equal(c, halfspace_problem.c(x))


class TestKktResiduals:
    def test_unconstrained_optimum_all_zero(self):
        H = np.array([[2.0, 0.0], [0.0, 4.0]])
        F = np.array([-2.0, -4.0])
        prob = _quad_problem(H, F)
        xstar = np.linalg.solve(H, -F)
        rep = pf.kkt_residuals(prob, xstar, np.zeros(0))
        assert rep.stationarity <= 1e-12
        assert rep.primal_infeasibility == 0.0
        assert rep.dual_infeasibility == 0.0
        assert rep.complementarity == 0.0

    def test_feasible_nonstationary_zero_mu(self, halfspace_problem):
        x = np.array([2.0, 1.0])
        rep = pf.kkt_residuals(halfspace_problem, x, np.zeros(1))
        np.testing.assert_allclose(rep.stationarity,
                                   np.linalg.norm(x), rtol=1e-15)
        assert rep.primal_infeasibility == 0.0
        assert rep.dual_infeasibility == 0.0
        assert rep.complementarity == 0.0

    def test_flow_vs_oracle_multipliers(self):
        data, _ = pf.generate_random_qp(6, 4, seed=2)
        prob = pf.qp_problem(data)
        res = pf.solve(prob, pf.FlowParams(), pf.FlowState(x=np.zeros(6)),
                       pf.StopCriteria(), pf.IntegratorConfig())
        assert res.status == "converged"
        osol = pf.active_set_oracle(data)
        rep = pf.kkt_residuals(prob, res.x, osol.mu_star)
        fx = np.linalg.norm(prob.f_x(res.x))
        assert rep.stationarity <= 1e-3 * (1.0 + fx)

    def test_complementarity_small_at_convergence(self, halfspace_problem):
        res = pf.solve(halfspace_problem, pf.FlowParams(),
                       pf.FlowState(x=np.zeros(2)), pf.StopCriteria(),
                       pf.IntegratorConfig())
        rep = pf.kkt_residuals(halfspace_problem, res.x, res.mu)
        assert rep.complementarity <= 1e-4
        assert rep.dual_infeasibility == 0.0

    def test_mu_shape_mismatch_raises(self, halfspace_problem):
        with pytest.raises(ValueError):
            pf.kkt_residuals(halfspace_problem, np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("bad", ["c", "c_x"])
    def test_nonfinite_evaluator_raises(self, halfspace_problem, bad):
        # at the final state as anywhere else: no NaN residuals
        nan = {"c": lambda x: np.full(1, np.nan),
               "c_x": lambda x: np.full((1, 2), np.nan)}
        prob = dataclasses.replace(halfspace_problem, **{bad: nan[bad]})
        with pytest.raises(pf.EvaluationError) as exc:
            pf.kkt_residuals(prob, np.zeros(2), np.ones(1))
        assert exc.value.index == 0
        with pytest.raises(pf.EvaluationError):
            pf.extract_multipliers(prob, np.zeros(2), 1.0, pf.FlowParams())

    def test_residuals_nonnegative_random(self, halfspace_problem):
        rng = np.random.default_rng(19)
        for _ in range(25):
            x = rng.standard_normal(2) * 4.0
            mu = np.abs(rng.standard_normal(1))
            rep = pf.kkt_residuals(halfspace_problem, x, mu)
            assert rep.stationarity >= 0.0
            assert rep.primal_infeasibility >= 0.0
            assert rep.dual_infeasibility >= 0.0
            assert rep.complementarity >= 0.0
