"""Stepper, integration loop, stopping, and sampling tests."""

import math

import numpy as np
import pytest

import penaltyflow as pf
from penaltyflow.errors import EvaluationError
from penaltyflow.integrator import trajectory_header
from penaltyflow.problem import Problem


def _unconstrained_quad():
    return Problem(n=2, n_c=0,
                   f=lambda x: 0.5 * float(x @ x),
                   f_x=lambda x: np.asarray(x, dtype=float),
                   c=lambda x: np.zeros(0),
                   c_x=lambda x: np.zeros((0, 2)))


def _const_infeasible():
    # c(x) = 1 <= 0 can never hold; psi is identically 1
    return Problem(n=1, n_c=1,
                   f=lambda x: 0.0,
                   f_x=lambda x: np.zeros(1),
                   c=lambda x: np.ones(1),
                   c_x=lambda x: np.zeros((1, 1)))


def _raise_constraint_failure(x):
    raise EvaluationError(0)


def _fails_past_half(exc, field="f_x"):
    # min |x|^2/2 s.t. x0 >= 1; the first call of evaluator ``field``
    # past x0 = 0.5 raises exc, later calls succeed
    evaluators = {"f": lambda x: 0.5 * float(x @ x),
                  "f_x": lambda x: np.asarray(x, dtype=float)}
    good = evaluators[field]
    raised = []

    def bad(x):
        if x[0] > 0.5 and not raised:
            raised.append(x)
            raise exc
        return good(x)

    evaluators[field] = bad
    return Problem(n=2, n_c=1, c=lambda x: np.array([1.0 - x[0]]),
                   c_x=lambda x: np.array([[-1.0, 0.0]]), **evaluators)


def _hess_fails_past_half(bad):
    # min |x|^2/2 s.t. x0 >= 1 with a Hessian hook that, once x0 > 0.5,
    # raises (bad is an exception) or returns NaN (bad is None)
    def hess(x, w):
        if x[0] > 0.5:
            if bad is not None:
                raise bad
            return np.full((2, 2), np.nan)
        return np.eye(2)

    return Problem(n=2, n_c=1, f=lambda x: 0.5 * float(x @ x),
                   f_x=lambda x: np.asarray(x, dtype=float),
                   c=lambda x: np.array([1.0 - x[0]]),
                   c_x=lambda x: np.array([[-1.0, 0.0]]), hess=hess)


class TestIntegrate:
    def test_unconstrained_rho_stays_zero(self):
        res = pf.integrate(_unconstrained_quad(), pf.FlowParams(),
                           pf.FlowState(x=np.array([1.0, 1.0])),
                           pf.StopCriteria(), pf.IntegratorConfig())
        assert res.status == "converged"
        assert res.rho == 0.0
        assert np.linalg.norm(res.x) <= pf.StopCriteria().eps_g
        assert res.psi == 0.0

    def test_infeasible_hits_rho_ceiling(self):
        res = pf.integrate(_const_infeasible(), pf.FlowParams(),
                           pf.FlowState(x=np.zeros(1)),
                           pf.StopCriteria(), pf.IntegratorConfig())
        assert res.status == "rho_max_reached"
        assert res.rho > pf.StopCriteria().rho_max
        assert res.psi == 1.0

    def test_halfspace_projection(self, halfspace_problem):
        res = pf.integrate(halfspace_problem, pf.FlowParams(),
                           pf.FlowState(x=np.zeros(2)),
                           pf.StopCriteria(), pf.IntegratorConfig())
        assert res.status == "converged"
        np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-3)
        assert res.psi <= pf.StopCriteria().eps_psi
        assert res.g <= pf.StopCriteria().eps_g

    def test_already_converged_initial_state(self):
        res = pf.integrate(_unconstrained_quad(), pf.FlowParams(),
                           pf.FlowState(x=np.zeros(2)),
                           pf.StopCriteria(), pf.IntegratorConfig())
        assert res.status == "converged"
        assert res.accepted_steps == 0
        assert res.trajectory.shape[0] == 1

    def test_t_max_reached(self, halfspace_problem):
        res = pf.integrate(halfspace_problem, pf.FlowParams(),
                           pf.FlowState(x=np.zeros(2)),
                           pf.StopCriteria(t_max=1.0), pf.IntegratorConfig())
        assert res.status == "t_max_reached"
        assert res.t == pytest.approx(1.0)

    def test_step_budget_exhausted(self, halfspace_problem):
        res = pf.integrate(halfspace_problem, pf.FlowParams(),
                           pf.FlowState(x=np.zeros(2)),
                           pf.StopCriteria(max_steps=5),
                           pf.IntegratorConfig())
        assert res.status == "step_budget_exhausted"
        assert res.accepted_steps == 5

    def test_initial_evaluation_failure(self):
        bad = Problem(n=1, n_c=0,
                      f=lambda x: math.nan,
                      f_x=lambda x: np.zeros(1),
                      c=lambda x: np.zeros(0),
                      c_x=lambda x: np.zeros((0, 1)))
        res = pf.integrate(bad, pf.FlowParams(), pf.FlowState(x=np.ones(1)),
                           pf.StopCriteria(), pf.IntegratorConfig())
        assert res.status == "rhs_failure"
        assert res.trajectory.shape == (0, 7)
        assert math.isnan(res.psi)
        assert len(res.warnings) == 1

    def test_midrun_evaluation_failure(self):
        # the stepper evaluates f_x; f is evaluated only by the post-step
        # measurement. Either way the result holds the last good state.
        for field in ("f_x", "f"):
            res = pf.integrate(_fails_past_half(EvaluationError(None), field),
                               pf.FlowParams(), pf.FlowState(x=np.zeros(2)),
                               pf.StopCriteria(), pf.IntegratorConfig())
            assert res.status == "rhs_failure"
            assert any("rhs failure" in w for w in res.warnings)
            assert res.x[0] <= 0.5 and math.isfinite(res.f)

    @pytest.mark.parametrize("bad", [EvaluationError(None), None],
                             ids=["raises", "nan"])
    def test_midrun_hessian_failure(self, bad):
        # the exact Jacobian runs under the RHS failure flag: a failing
        # Hessian hook ends the run as rhs_failure, not in a traceback
        res = pf.integrate(_hess_fails_past_half(bad), pf.FlowParams(),
                           pf.FlowState(x=np.zeros(2)), pf.StopCriteria(),
                           pf.IntegratorConfig())
        assert res.status == "rhs_failure"
        assert any("rhs failure" in w for w in res.warnings)
        assert res.x[0] <= 1.0 and math.isfinite(res.f)

    def test_evaluator_bug_propagates(self):
        # a fault in user code is not a solver outcome: it must not be
        # swallowed as a stepper stall and retried
        with pytest.raises(KeyError):
            pf.integrate(_fails_past_half(KeyError("bug")), pf.FlowParams(),
                         pf.FlowState(x=np.zeros(2)), pf.StopCriteria(),
                         pf.IntegratorConfig())

    def test_negative_rho_rejected(self, halfspace_problem):
        with pytest.raises(ValueError):
            pf.integrate(halfspace_problem, pf.FlowParams(),
                         pf.FlowState(x=np.zeros(2), rho=-1.0),
                         pf.StopCriteria(), pf.IntegratorConfig())

    @pytest.mark.parametrize("x, rho, t, field", [
        (np.zeros(2), math.nan, 0.0, "rho"),
        (np.zeros(2), math.inf, 0.0, "rho"),
        (np.zeros(3), 0.0, 0.0, "x"),
        (np.zeros(1), 0.0, 0.0, "x"),
        (np.zeros((2, 1)), 0.0, 0.0, "x"),
        (np.zeros(2), 0.0, math.nan, "t"),
        (np.zeros(2), 0.0, math.inf, "t"),
    ], ids=["rho-nan", "rho-inf", "x-long", "x-short", "x-column", "t-nan",
            "t-inf"])
    def test_bad_initial_state_rejected(self, halfspace_problem, x, rho, t,
                                        field):
        with pytest.raises(ValueError, match=f"initial {field}"):
            pf.integrate(halfspace_problem, pf.FlowParams(),
                         pf.FlowState(x=x, rho=rho, t=t),
                         pf.StopCriteria(), pf.IntegratorConfig())


class TestTrajectory:
    def test_header_layout(self):
        assert trajectory_header(2) == "t,rho,psi,g,f,fbar,x0,x1"

    def test_rows_and_monotonicity(self, halfspace_problem):
        res = pf.integrate(halfspace_problem, pf.FlowParams(),
                           pf.FlowState(x=np.zeros(2)), pf.StopCriteria(),
                           pf.IntegratorConfig())
        traj = res.trajectory
        assert traj.shape[1] == 8
        assert traj[0, 0] == 0.0
        assert traj[-1, 0] == res.t
        np.testing.assert_array_equal(traj[-1, 6:], res.x)
        assert np.all(np.diff(traj[:, 0]) > 0.0)
        rho = traj[:, 1]
        assert np.all(np.diff(rho) >= -1e-12 * max(1.0, rho.max()))

    def test_sample_stride_decimation(self, halfspace_problem):
        # the initial state, every 10th accepted step, and the final
        # state unless its step was one of those
        res = pf.integrate(halfspace_problem, pf.FlowParams(),
                           pf.FlowState(x=np.zeros(2)), pf.StopCriteria(),
                           pf.IntegratorConfig())
        a = res.accepted_steps
        assert res.trajectory.shape[0] == 1 + a // 10 + (1 if a % 10 else 0)

    def test_save_trajectory_roundtrip(self, halfspace_problem, tmp_path):
        res = pf.integrate(halfspace_problem, pf.FlowParams(),
                           pf.FlowState(x=np.zeros(2)), pf.StopCriteria(),
                           pf.IntegratorConfig())
        path = tmp_path / "traj.csv"
        pf.save_trajectory(res, path)
        text = path.read_text().splitlines()
        assert text[0] == trajectory_header(2)
        assert len(text) == res.trajectory.shape[0] + 1
        back = np.genfromtxt(path, delimiter=",", skip_header=1)
        np.testing.assert_array_equal(back, res.trajectory)


class TestSolveAndDeterminism:
    def test_interior_optimum_zero_multipliers(self):
        # constraint stays inactive at the optimum (2, 0)
        data = pf.QpData(H=np.eye(2), F=np.array([-2.0, 0.0]),
                         A=np.array([[-1.0, 0.0]]), B=np.array([-1.0]))
        prob = pf.qp_problem(data)
        res = pf.solve(prob, pf.FlowParams(), pf.FlowState(x=np.zeros(2)),
                       pf.StopCriteria(), pf.IntegratorConfig())
        assert res.status == "converged"
        np.testing.assert_array_equal(res.mu, [0.0])
        assert res.kkt.stationarity <= pf.StopCriteria().eps_g

    def test_halfspace_stationarity(self, halfspace_problem):
        res = pf.solve(halfspace_problem, pf.FlowParams(),
                       pf.FlowState(x=np.zeros(2)), pf.StopCriteria(),
                       pf.IntegratorConfig())
        np.testing.assert_allclose(res.mu, [1.0], atol=1e-2)
        assert res.kkt.stationarity <= 1e-3

    def test_bitwise_determinism(self, halfspace_problem):
        runs = []
        for _ in range(2):
            res = pf.solve(halfspace_problem, pf.FlowParams(),
                           pf.FlowState(x=np.zeros(2)), pf.StopCriteria(),
                           pf.IntegratorConfig())
            runs.append(res)
        a, b = runs
        assert a.t == b.t and a.rho == b.rho
        assert a.psi == b.psi and a.g == b.g
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.trajectory, b.trajectory)
        assert a.accepted_steps == b.accepted_steps

    @pytest.mark.parametrize("bad_c", [_raise_constraint_failure,
                                       lambda x: np.full(1, math.nan)],
                             ids=["raises", "nan"])
    def test_unevaluable_start_has_no_report(self, bad_c):
        # no state was measured, so there is nothing to read mu off
        bad = Problem(n=1, n_c=1, f=lambda x: 0.0,
                      f_x=lambda x: np.zeros(1), c=bad_c,
                      c_x=lambda x: np.ones((1, 1)))
        res = pf.solve(bad, pf.FlowParams(), pf.FlowState(x=np.zeros(1)),
                       pf.StopCriteria(), pf.IntegratorConfig())
        assert res.status == "rhs_failure"
        assert res.mu is None and res.kkt is None

    def test_converged_solve_has_no_warnings(self):
        # warnings carry failure detail only; a clean solve has none
        data, _ = pf.generate_random_qp(15, 20, seed=0)
        res = pf.solve(pf.qp_problem(data), pf.FlowParams(),
                       pf.FlowState(x=np.zeros(15)), pf.StopCriteria(),
                       pf.IntegratorConfig())
        assert res.status == "converged"
        assert res.warnings == []


class TestConfigValidation:
    def test_positive_tolerances(self):
        with pytest.raises(ValueError):
            pf.IntegratorConfig(rtol=0.0)
        with pytest.raises(ValueError):
            pf.StopCriteria(eps_psi=0.0)
        with pytest.raises(ValueError):
            pf.StopCriteria(max_steps=0)
