"""Flow right-hand sides, scaling factors, and the weighted-cost
time-derivative identity."""

import math

import numpy as np
import pytest

from penaltyflow import (FactorOverflowError, FlowParams, FlowState,
                         exp_factor, fbar_dot_identity, flow_rhs,
                         generate_random_qp, qp_problem, series_factor)
from penaltyflow.problem import Problem


def _quad(n):
    return Problem(
        n=n, n_c=0,
        f=lambda x: 0.5 * float(np.dot(x, x)),
        f_x=lambda x: np.asarray(x, dtype=float),
        c=lambda x: np.zeros(0),
        c_x=lambda x: np.zeros((0, n)))


class TestSeriesFactor:
    def test_q1_is_one(self):
        for g in (0.0, 1.0, 1e6):
            assert series_factor(g, 0.5, 1) == 1.0

    def test_zero_gradient_is_one(self):
        for q in (1, 2, 7):
            assert series_factor(0.0, 1e-4, q) == 1.0

    def test_q2_linear_term(self):
        np.testing.assert_allclose(series_factor(100.0, 1e-4, 2), 1.01,
                                   rtol=1e-15)

    def test_monotone_in_arguments(self):
        base = series_factor(2.0, 0.1, 3)
        assert series_factor(3.0, 0.1, 3) > base
        assert series_factor(2.0, 0.2, 3) > base
        assert series_factor(2.0, 0.1, 4) > base

    def test_overflow_raises_with_magnitude(self):
        with pytest.raises(FactorOverflowError) as exc:
            series_factor(1e200, 1e200, 5)
        assert math.isinf(exc.value.magnitude)


class TestExpFactor:
    def test_zero_is_one(self):
        assert exp_factor(0.0, 1.0) == 1.0

    def test_euler_number(self):
        np.testing.assert_allclose(exp_factor(1.0, 1.0), math.e, rtol=1e-15)

    def test_overflow_guard(self):
        with pytest.raises(FactorOverflowError):
            exp_factor(1000.0, 1.0)

    def test_series_converges_to_exponential(self):
        """Truncation order 20 reproduces exp for lam*g <= 1."""
        for z in np.linspace(0.0, 1.0, 21):
            s = series_factor(z, 1.0, 20)
            e = exp_factor(z, 1.0)
            np.testing.assert_allclose(s, e, rtol=1e-12)


class TestFlowRhs:
    def test_halfspace_origin_only_rho_moves(self, halfspace_problem):
        """At (0,0) with rho = 0 the weighted gradient vanishes, so x is
        stationary while rho ramps at gamma * psi = gamma."""
        gamma = 1e-3
        for params in (FlowParams(gamma=gamma),
                       FlowParams(gamma=gamma, mode="exponential"),
                       FlowParams(gamma=gamma, q=1)):
            dy = flow_rhs(halfspace_problem, np.zeros(3), params)
            np.testing.assert_array_equal(dy[:-1], [0.0, 0.0])
            np.testing.assert_allclose(dy[-1], gamma, rtol=1e-15)

    def test_unconstrained_plain_is_gradient_descent(self):
        dy = flow_rhs(_quad(2), np.array([3.0, 4.0, 0.0]), FlowParams(q=1))
        np.testing.assert_array_equal(dy, [-3.0, -4.0, 0.0])

    def test_q2_matches_hand_assembly(self):
        """dx = -(1 + lam*||fbar_x||) * fbar_x on a seeded instance."""
        lam = 1e-4
        data, _ = generate_random_qp(2, 2, 7)
        prob = qp_problem(data)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(2)
            rho = float(rng.uniform(0.0, 5.0))
            cp = np.maximum(data.A @ x - data.B, 0.0)
            fbar_x = data.H @ x + data.F + 2.0 * rho * (cp @ data.A)
            expected = -(1.0 + lam * np.linalg.norm(fbar_x)) * fbar_x
            dy = flow_rhs(prob, np.append(x, rho), FlowParams(lam=lam, q=2))
            np.testing.assert_allclose(dy[:-1], expected, rtol=1e-12,
                                       atol=1e-14)
            np.testing.assert_allclose(dy[-1], 1e-6 * float(np.sum(cp ** 2)),
                                       rtol=1e-12)

    def test_dx_antiparallel_to_gradient(self, halfspace_problem):
        rng = np.random.default_rng(4)
        for mode in ("truncated", "exponential"):
            params = FlowParams(mode=mode)
            for _ in range(10):
                x = rng.uniform(-2.0, 2.0, size=2)
                rho = float(rng.uniform(0.0, 4.0))
                y = np.append(x, rho)
                # with q = 1 the factor is 1, so dx = -fbar_x exactly
                fbar_x = -flow_rhs(halfspace_problem, y, FlowParams(q=1))[:-1]
                if np.linalg.norm(fbar_x) == 0.0:
                    continue
                dx = flow_rhs(halfspace_problem, y, params)[:-1]
                cos = float(dx @ fbar_x) / (np.linalg.norm(dx)
                                            * np.linalg.norm(fbar_x))
                np.testing.assert_allclose(cos, -1.0, rtol=1e-12)


class TestFbarDotIdentity:
    def test_unconstrained_plain(self):
        analytic, assembled = fbar_dot_identity(
            _quad(2), np.array([3.0, 4.0, 0.0]), FlowParams(q=1))
        np.testing.assert_allclose(analytic, -25.0, rtol=1e-15)
        np.testing.assert_allclose(assembled, -25.0, rtol=1e-15)

    def test_stationary_feasible_point(self):
        analytic, assembled = fbar_dot_identity(
            _quad(3), np.zeros(4), FlowParams())
        assert analytic == 0.0
        assert assembled == 0.0

    def test_agreement_on_random_qp_states(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            data, _ = generate_random_qp(4, 6, seed)
            prob = qp_problem(data)
            for params in (FlowParams(q=3),
                           FlowParams(mode="exponential", q=3),
                           FlowParams(q=1)):
                for _ in range(20):
                    y = np.append(rng.standard_normal(4),
                                  rng.uniform(0.0, 10.0))
                    analytic, assembled = fbar_dot_identity(prob, y, params)
                    scale = max(abs(analytic), abs(assembled), 1e-30)
                    assert abs(analytic - assembled) / scale <= 1e-10


class TestParamValidation:
    def test_flow_params_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FlowParams(lam=0.0)
        with pytest.raises(ValueError):
            FlowParams(gamma=-1.0)
        with pytest.raises(ValueError):
            FlowParams(q=0)
        with pytest.raises(ValueError):
            FlowParams(mode="adaptive")
        with pytest.raises(ValueError):
            FlowParams(m=0)
        # a fractional exponent or order is refused by name, not left to
        # fail inside the flow
        with pytest.raises(ValueError, match="^m must be an integer"):
            FlowParams(m=1.5)
        with pytest.raises(ValueError, match="^q must be an integer"):
            FlowParams(q=2.0)
        assert FlowParams(q=np.int64(3), m=np.int64(2)).q == 3

    def test_flow_state_casts_to_float_array(self):
        state = FlowState(x=[1, 2, 3])
        assert state.x.dtype == np.float64
        assert state.rho == 0.0

    def test_cfg_carries_penalty_exponent(self):
        assert FlowParams(m=3).cfg.m == 3
