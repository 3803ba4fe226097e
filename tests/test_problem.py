"""The state measure (psi, g, f, c), the weighted cost and its gradient as
the solver computes them, and the finite-difference gradient checker.

psi, g and f come from ``measure_state``, the weighted cost is
f + rho * psi, and the gradient fbar_x is read off ``flow_rhs`` with
q = 1: it returns [dx, drho] for the packed state [x, rho], and
dx = -fbar_x exactly. The class names keep the quantity each class
tests."""

import numpy as np
import pytest

from penaltyflow import (EvaluationError, FlowParams, Problem,
                         check_gradients, flow_rhs, generate_random_qp,
                         qp_problem)
from penaltyflow.problem import measure_state, penalty_weights

M2 = FlowParams(m=2)


def _scalar_boundary(f=None, f_x=None):
    """1-D problem with the single constraint x - 1 <= 0."""
    return Problem(
        n=1, n_c=1,
        f=f or (lambda x: 0.0),
        f_x=f_x or (lambda x: np.zeros(1)),
        c=lambda x: np.asarray(x, dtype=float) - 1.0,
        c_x=lambda x: np.ones((1, 1)))


def _quad(n):
    """Unconstrained f = (1/2)||x||^2."""
    return Problem(
        n=n, n_c=0,
        f=lambda x: 0.5 * float(np.dot(x, x)),
        f_x=lambda x: np.asarray(x, dtype=float),
        c=lambda x: np.zeros(0),
        c_x=lambda x: np.zeros((0, n)))


def _psi(prob, x):
    return measure_state(prob, x, 0.0, M2)[0]


def _g(prob, x, rho):
    return measure_state(prob, x, rho, M2)[1]


def _fbar(prob, x, rho):
    psi, _, f, _ = measure_state(prob, x, rho, M2)
    return f + rho * psi


def _fbar_x(prob, x, rho):
    # the series factor of order 1 is the constant 1
    return -flow_rhs(prob, np.append(x, rho), FlowParams(q=1, m=2))[:-1]


class TestEvalPenalty:
    def test_active_single_constraint(self):
        """c = x - 1, m = 2, x = 2: max(0, 1)^2 = 1."""
        assert _psi(_scalar_boundary(), np.array([2.0])) == 1.0

    def test_inactive_constraint_is_zero(self):
        assert _psi(_scalar_boundary(), np.array([0.0])) == 0.0

    def test_two_constraint_sum(self):
        """c1 = x1 - 1, c2 = -x2 at x = (3, -2), recomputed term by term."""
        prob = Problem(
            n=2, n_c=2,
            f=lambda x: 0.0, f_x=lambda x: np.zeros(2),
            c=lambda x: np.array([x[0] - 1.0, -x[1]]),
            c_x=lambda x: np.array([[1.0, 0.0], [0.0, -1.0]]))
        x = np.array([3.0, -2.0])
        expected = sum(max(0.0, ci) ** 2 for ci in (x[0] - 1.0, -x[1]))
        assert expected == 8.0
        np.testing.assert_allclose(_psi(prob, x), expected, rtol=1e-15)

    def test_zero_iff_feasible(self, halfspace_problem):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(-2.0, 3.0, size=2)
            psi = _psi(halfspace_problem, x)
            assert psi >= 0.0
            feasible = x[0] >= 1.0
            assert (psi == 0.0) == feasible

    def test_no_constraints(self):
        assert _psi(_quad(3), np.ones(3)) == 0.0

    def test_nonfinite_constraint_raises_with_index(self):
        # the first non-finite constraint is named
        prob = Problem(
            n=1, n_c=3,
            f=lambda x: 0.0, f_x=lambda x: np.zeros(1),
            c=lambda x: np.array([0.0, np.nan, np.inf]),
            c_x=lambda x: np.zeros((3, 1)))
        with pytest.raises(EvaluationError, match="constraint 1") as exc:
            measure_state(prob, np.zeros(1), 0.0, M2)
        assert exc.value.index == 1


class TestEvalWeightedCost:
    def test_feasible_reduces_to_objective(self):
        prob = _quad(2)
        x = np.array([1.0, 1.0])
        for rho in (0.0, 1.0, 1e6):
            assert _fbar(prob, x, rho) == 1.0

    def test_pure_penalty(self):
        prob = _scalar_boundary()
        assert _fbar(prob, np.array([2.0]), 10.0) == 10.0

    def test_objective_plus_penalty(self, halfspace_problem):
        val = _fbar(halfspace_problem, np.zeros(2), 5.0)
        assert val == 5.0

    def test_rho_zero_is_exactly_f(self):
        prob = _quad(4)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.standard_normal(4)
            assert _fbar(prob, x, 0.0) == prob.f(x)

    def test_nonfinite_objective_raises(self):
        prob = Problem(n=1, n_c=0, f=lambda x: np.inf,
                       f_x=lambda x: np.zeros(1),
                       c=lambda x: np.zeros(0),
                       c_x=lambda x: np.zeros((0, 1)))
        with pytest.raises(EvaluationError) as exc:
            measure_state(prob, np.zeros(1), 1.0, M2)
        assert exc.value.index is None


class TestEvalWeightedGrad:
    def test_unconstrained_is_objective_gradient(self):
        grad = _fbar_x(_quad(2), np.array([3.0, 4.0]), 7.0)
        np.testing.assert_array_equal(grad, [3.0, 4.0])

    def test_scalar_chain_rule(self):
        """c = x - 1, m = 2, rho = 1, x = 3: 2 * (3 - 1) * 1 = 4."""
        grad = _fbar_x(_scalar_boundary(), np.array([3.0]), 1.0)
        np.testing.assert_allclose(grad, [4.0], rtol=1e-15)

    def test_halfspace_origin(self, halfspace_problem):
        grad = _fbar_x(halfspace_problem, np.zeros(2), 5.0)
        np.testing.assert_allclose(grad, [-10.0, 0.0], rtol=1e-15)

    def test_matches_finite_difference_of_cost(self, halfspace_problem):
        """Central differences of the weighted cost reproduce the
        analytic gradient away from the constraint boundary."""
        rng = np.random.default_rng(5)
        step = 1e-6
        for _ in range(20):
            x = rng.uniform(-2.0, 3.0, size=2)
            if abs(1.0 - x[0]) <= 1e-2:
                continue
            rho = float(rng.uniform(0.0, 10.0))
            an = _fbar_x(halfspace_problem, x, rho)
            fd = np.zeros(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = step
                fd[j] = (_fbar(halfspace_problem, x + e, rho)
                         - _fbar(halfspace_problem, x - e, rho)) \
                    / (2.0 * step)
            np.testing.assert_allclose(an, fd, rtol=1e-5, atol=1e-8)

    def test_nonfinite_constraint_jacobian_raises_with_index(self):
        # checked even where the constraint is inactive (weight 0)
        prob = Problem(
            n=2, n_c=2,
            f=lambda x: 0.0, f_x=lambda x: np.zeros(2),
            c=lambda x: np.array([-1.0, -1.0]),
            c_x=lambda x: np.array([[1.0, 0.0], [0.0, np.inf]]))
        with pytest.raises(EvaluationError) as exc:
            _fbar_x(prob, np.zeros(2), 1.0)
        assert exc.value.index == 1

    def test_inactive_constraints_contribute_nothing(self, halfspace_problem):
        x = np.array([2.0, 0.5])
        grad = _fbar_x(halfspace_problem, x, 1e8)
        np.testing.assert_array_equal(grad, x)

    def test_penalty_gradient_vanishes_at_boundary(self):
        """For m = 2 the penalty contribution goes to zero as the
        violation shrinks (C^1 smoothness across the boundary)."""
        prob = _scalar_boundary()
        mags = []
        for k in range(1, 9):
            x = np.array([1.0 + 10.0 ** -k])
            grad = _fbar_x(prob, x, 1.0)
            mags.append(abs(float(grad[0])))
        assert all(b < a for a, b in zip(mags, mags[1:]))
        assert mags[-1] < 1e-7


class TestPenaltyWeights:
    def test_m1_uses_feasible_side_limit_at_boundary(self):
        w = penalty_weights(np.array([-1.0, 0.0, 1.0]), 3.0, 1)
        np.testing.assert_array_equal(w, [0.0, 0.0, 3.0])

    def test_m2_is_linear_in_violation(self):
        w = penalty_weights(np.array([0.01]), 10.0, 2)
        np.testing.assert_allclose(w, [0.2], rtol=1e-15)


class TestEvalG:
    def test_euclidean_norm(self):
        assert _g(_quad(2), np.array([3.0, 4.0]), 0.0) == 5.0

    def test_zero_at_stationary_point(self):
        assert _g(_quad(2), np.zeros(2), 0.0) == 0.0

    def test_halfspace_origin(self, halfspace_problem):
        np.testing.assert_allclose(
            _g(halfspace_problem, np.zeros(2), 5.0), 10.0,
            rtol=1e-15)


class TestCheckGradients:
    def test_exact_quadratic(self):
        rep = check_gradients(_quad(3), np.array([1.0, -2.0, 0.5]), 1e-6)
        assert rep.worst <= 1e-7

    def test_wrong_gradient_is_flagged(self):
        prob = Problem(
            n=2, n_c=0,
            f=lambda x: 0.5 * float(np.dot(x, x)),
            f_x=lambda x: 2.0 * np.asarray(x, dtype=float),
            c=lambda x: np.zeros(0), c_x=lambda x: np.zeros((0, 2)))
        rep = check_gradients(prob, np.array([1.0, 1.0]), 1e-6)
        np.testing.assert_allclose(rep.f_x_error, 1.0, rtol=1e-4)

    def test_seeded_qp_instances(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            data, _ = generate_random_qp(6, 8, seed)
            prob = qp_problem(data)
            rep = check_gradients(prob, rng.standard_normal(6), 1e-6)
            assert rep.worst <= 1e-5

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            check_gradients(_quad(2), np.zeros(2), 0.0)

    @pytest.mark.parametrize("step", [np.nan, np.inf])
    def test_step_must_be_finite(self, step):
        with pytest.raises(ValueError, match="step"):
            check_gradients(_quad(2), np.zeros(2), step)

    def test_nan_deviation_makes_worst_nan(self):
        # a NaN Jacobian entry; max() would keep the finite f_x_error
        prob = Problem(
            n=1, n_c=1,
            f=lambda x: float(np.sin(x[0])),
            f_x=lambda x: np.array([np.cos(x[0])]),
            c=lambda x: np.asarray(x, dtype=float),
            c_x=lambda x: np.array([[np.nan]]))
        rep = check_gradients(prob, np.array([0.3]), 1e-6)
        assert 0.0 < rep.f_x_error < 1e-6
        assert np.isnan(rep.c_x_error) and np.isnan(rep.worst)

    def test_report_worst_is_max_of_fields(self):
        rep = check_gradients(_quad(2), np.ones(2), 1e-6)
        assert rep.worst == max(rep.f_x_error, rep.c_x_error)

    def test_qp_hessian_hook_exact(self):
        data, _ = generate_random_qp(5, 4, 2)
        rep = check_gradients(qp_problem(data),
                              np.random.default_rng(1).standard_normal(5),
                              1e-6)
        assert rep.hess_error <= 1e-7

    def test_no_hessian_hook_reads_zero(self):
        rep = check_gradients(_scalar_boundary(), np.array([0.3]), 1e-6)
        assert rep.hess_error == 0.0

    def test_wrong_hessian_is_flagged(self):
        # c = |x|^2 - 1 has Hessian 2I; a hook that drops the constraint
        # term (returns the objective Hessian only) must show up
        def prob(hess):
            return Problem(
                n=2, n_c=1,
                f=lambda x: 0.5 * float(np.dot(x, x)),
                f_x=lambda x: np.asarray(x, dtype=float),
                c=lambda x: np.array([float(np.dot(x, x)) - 1.0]),
                c_x=lambda x: 2.0 * np.asarray(x, dtype=float)[None, :],
                hess=hess)
        x = np.array([0.4, -0.7])
        good = check_gradients(prob(lambda x, w: (1.0 + 2.0 * w[0])
                                    * np.eye(2)), x, 1e-6)
        bad = check_gradients(prob(lambda x, w: np.eye(2)), x, 1e-6)
        assert good.hess_error <= 1e-7
        assert bad.hess_error >= 0.5 and bad.worst == bad.hess_error
