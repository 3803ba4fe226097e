"""Condensation, per-step QP solving, and closed-loop simulation tests."""

import numpy as np
import pytest
import scipy.linalg as sla

import penaltyflow as pf
from penaltyflow.problem import check_gradients


def _scalar_pqp(u_max):
    plant = pf.Plant(A_d=np.array([[1.0]]), B_d=np.array([[1.0]]))
    return pf.condense(plant, N=1, Q=np.array([[1.0]]),
                       R=np.array([[1.0]]), P=np.array([[0.0]]),
                       u_max=u_max)


@pytest.fixture(scope="module")
def demo():
    return pf.double_integrator_demo()


@pytest.fixture(scope="module")
def demo_trace(demo):
    plant, pqp, xi0 = demo
    return pf.simulate_closed_loop(plant, pqp, xi0, steps=60,
                                   params=pf.FlowParams(), stop=pf.DEMO_STOP,
                                   config=pf.IntegratorConfig())


class TestPlant:
    def test_dimensions(self, demo):
        plant = demo[0]
        assert plant.n_xi == 2
        assert plant.n_u == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            pf.Plant(A_d=np.zeros((2, 3)), B_d=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            pf.Plant(A_d=np.eye(2), B_d=np.zeros((3, 1)))


    @pytest.mark.parametrize("field", ["A_d", "B_d"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_entries_rejected(self, field, value):
        parts = {"A_d": np.eye(2), "B_d": np.ones((2, 1))}
        parts[field][1, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            pf.Plant(**parts)


class TestCondense:
    def test_one_step_scalar_plant(self):
        pqp = _scalar_pqp(u_max=10.0)
        np.testing.assert_array_equal(pqp.H, [[2.0]])
        np.testing.assert_array_equal(pqp.F1, [[1.0]])
        np.testing.assert_array_equal(pqp.A, [[1.0], [-1.0]])
        np.testing.assert_array_equal(pqp.b0, [10.0, 10.0])
        assert pqp.N == 1

    def test_cost_matches_rollout(self, demo):
        # 1/2 U'HU + (F1 xi)'U must equal half the stage-cost sum,
        # up to the U-independent constant J(0, xi)
        plant, pqp, _ = demo
        Q, R = np.eye(2), np.array([[0.1]])
        P = sla.solve_discrete_are(plant.A_d, plant.B_d, Q, R)

        def rollout_cost(U, xi):
            J = 0.0
            x = xi.copy()
            for k in range(pqp.N):
                u = U[k:k + 1]
                J += float(u @ R @ u)
                x = plant.A_d @ x + plant.B_d @ u
                W = Q + P if k == pqp.N - 1 else Q
                J += float(x @ W @ x)
            return J

        rng = np.random.default_rng(2)
        for _ in range(5):
            U = rng.standard_normal(pqp.N)
            xi = rng.standard_normal(2)
            qp_val = 0.5 * U @ pqp.H @ U + (pqp.F1 @ xi) @ U
            half_gap = 0.5 * (rollout_cost(U, xi)
                              - rollout_cost(np.zeros(pqp.N), xi))
            np.testing.assert_allclose(qp_val, half_gap, rtol=1e-10)

    def test_validation(self):
        plant = pf.Plant(A_d=np.eye(2), B_d=np.ones((2, 1)))
        with pytest.raises(ValueError):
            pf.condense(plant, N=0, Q=np.eye(2), R=np.eye(1),
                        P=np.eye(2), u_max=1.0)
        with pytest.raises(ValueError):
            pf.condense(plant, N=2, Q=np.eye(3), R=np.eye(1),
                        P=np.eye(2), u_max=1.0)
        with pytest.raises(ValueError):
            pf.condense(plant, N=2, Q=np.eye(2), R=np.eye(2),
                        P=np.eye(2), u_max=1.0)
        with pytest.raises(ValueError):
            pf.condense(plant, N=2, Q=np.eye(2), R=np.eye(1),
                        P=np.eye(2), u_max=-1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_refused(self):
        # A_d^2 = 1e400 overflows in the prediction matrices
        plant = pf.Plant(A_d=np.array([[1e200]]), B_d=np.ones((1, 1)))
        with pytest.raises(ValueError, match="non-finite"):
            pf.condense(plant, N=3, Q=np.eye(1), R=np.eye(1),
                        P=np.eye(1), u_max=1.0)


class TestInstantiate:
    def test_zero_state_gives_base_terms(self, demo):
        _, pqp, _ = demo
        data = pf.instantiate(pqp, np.zeros(2))
        np.testing.assert_array_equal(data.F, np.zeros(pqp.H.shape[0]))
        np.testing.assert_array_equal(data.B, pqp.b0)

    def test_scalar_state_shifts_linear_term(self):
        pqp = _scalar_pqp(u_max=10.0)
        data = pf.instantiate(pqp, np.array([2.0]))
        np.testing.assert_array_equal(data.F, [2.0])

    def test_instantiated_gradients(self, demo):
        _, pqp, xi0 = demo
        prob = pf.qp_problem(pf.instantiate(pqp, xi0))
        rng = np.random.default_rng(0)
        rep = check_gradients(prob, rng.standard_normal(pqp.N), 1e-6)
        assert rep.worst <= 1e-6

    def test_dimension_mismatch(self, demo):
        _, pqp, _ = demo
        with pytest.raises(ValueError):
            pf.instantiate(pqp, np.zeros(3))


class TestMpcStep:
    def test_equilibrium_input_is_zero(self, demo):
        _, pqp, _ = demo
        u, res = pf.mpc_step(pqp, np.zeros(2), pf.FlowParams(),
                             pf.DEMO_STOP, pf.IntegratorConfig())
        assert res.status == "converged"
        np.testing.assert_array_equal(u, [0.0])

    def test_unconstrained_scalar_step(self):
        pqp = _scalar_pqp(u_max=10.0)
        u, res = pf.mpc_step(pqp, np.array([2.0]), pf.FlowParams(),
                             pf.DEMO_STOP, pf.IntegratorConfig())
        assert res.status == "converged"
        np.testing.assert_allclose(u, [-1.0], atol=1e-3)

    def test_bound_clipped_scalar_step(self):
        pqp = _scalar_pqp(u_max=1.0)
        u, res = pf.mpc_step(pqp, np.array([10.0]), pf.FlowParams(),
                             pf.DEMO_STOP, pf.IntegratorConfig())
        assert res.status == "converged"
        np.testing.assert_allclose(u, [-1.0], atol=1e-3)

    def test_warm_start_shape_checked(self, demo):
        _, pqp, xi0 = demo
        with pytest.raises(ValueError):
            pf.mpc_step(pqp, xi0, pf.FlowParams(), pf.DEMO_STOP,
                        pf.IntegratorConfig(), warm=np.zeros(3))

    def test_factor_modes_agree(self, demo):
        _, pqp, xi0 = demo
        u_plain, _ = pf.mpc_step(pqp, xi0, pf.FlowParams(q=1),
                                 pf.DEMO_STOP, pf.IntegratorConfig())
        u_trunc, _ = pf.mpc_step(pqp, xi0, pf.FlowParams(),
                                 pf.DEMO_STOP, pf.IntegratorConfig())
        np.testing.assert_allclose(u_plain, u_trunc, atol=1e-3)


class TestSimulateClosedLoop:
    def test_equilibrium_stays_put(self, demo):
        plant, pqp, _ = demo
        trace = pf.simulate_closed_loop(plant, pqp, np.zeros(2), steps=5,
                                        params=pf.FlowParams(),
                                        stop=pf.DEMO_STOP,
                                        config=pf.IntegratorConfig())
        np.testing.assert_array_equal(trace.xi, np.zeros((5, 2)))
        np.testing.assert_array_equal(trace.u, np.zeros((5, 1)))
        assert trace.all_converged

    def test_demo_regulates_to_origin(self, demo_trace):
        assert demo_trace.all_converged
        norms = np.linalg.norm(demo_trace.xi, axis=1)
        assert norms[-1] <= 1e-2
        assert np.min(norms) <= 1e-2

    def test_demo_inputs_within_box(self, demo_trace):
        assert np.abs(demo_trace.u).max() <= 0.5 + 1e-6

    def test_demo_per_step_solver_quality(self, demo_trace):
        assert np.max(demo_trace.psi_finals) <= 2e-13
        assert np.max(demo_trace.g_finals) <= 1e-4
        assert np.all(demo_trace.steps > 0)

    def test_per_step_flow_matches_oracle(self, demo, demo_trace):
        _, pqp, _ = demo
        for k, res in enumerate(demo_trace.results):
            data = pf.instantiate(pqp, demo_trace.xi[k])
            osol = pf.active_set_oracle(data)
            err = np.linalg.norm(res.x - osol.x_star)
            assert err <= 1e-2 * (1.0 + np.linalg.norm(osol.x_star))

    def test_cold_start_reaches_same_endpoint(self, demo, demo_trace):
        plant, pqp, xi0 = demo
        xi = xi0.copy()
        for _ in range(60):
            u, res = pf.mpc_step(pqp, xi, pf.FlowParams(), pf.DEMO_STOP,
                                 pf.IntegratorConfig())
            assert res.status == "converged"
            xi = plant.A_d @ xi + plant.B_d @ u
        warm_final = (plant.A_d @ demo_trace.xi[-1]
                      + plant.B_d @ demo_trace.u[-1])
        assert np.linalg.norm(xi - warm_final) <= 1e-2

    @pytest.mark.parametrize("xi0", [(0.3, 0.2), (-1.5, 0.3)])
    def test_off_axis_episodes_start_cleanly(self, demo, xi0):
        # the first steps from these states used to stall the stepper
        # (rhs_failure at step 1 and step 2 respectively)
        plant, pqp, _ = demo
        trace = pf.simulate_closed_loop(plant, pqp, np.array(xi0), 3,
                                        pf.FlowParams(), pf.DEMO_STOP,
                                        pf.IntegratorConfig())
        assert trace.statuses == ["converged"] * 3
        assert float(np.abs(trace.u).max()) <= 0.5 + 1e-6

    def test_steps_validated(self, demo):
        plant, pqp, xi0 = demo
        with pytest.raises(ValueError):
            pf.simulate_closed_loop(plant, pqp, xi0, steps=0,
                                    params=pf.FlowParams(),
                                    stop=pf.DEMO_STOP,
                                    config=pf.IntegratorConfig())

    def test_summaries_read_off_results(self, demo_trace):
        results = demo_trace.results
        assert len(results) == demo_trace.u.shape[0] == 60
        assert demo_trace.statuses == [r.status for r in results]
        np.testing.assert_array_equal(demo_trace.psi_finals,
                                      [r.psi for r in results])
        np.testing.assert_array_equal(demo_trace.g_finals,
                                      [r.g for r in results])
        np.testing.assert_array_equal(demo_trace.steps,
                                      [r.accepted_steps for r in results])

    def test_trace_csv_layout(self, demo_trace, tmp_path):
        path = tmp_path / "trace.csv"
        demo_trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,xi0,xi1,u0,status,psi_final,g_final,steps"
        assert len(lines) == 61
        first = lines[1].split(",")
        assert first[0] == "0"
        np.testing.assert_allclose([float(first[1]), float(first[2])],
                                   [1.0, 0.0])
        assert first[4] == "converged"


class TestDoubleIntegratorDemo:
    def test_scenario_shapes(self, demo):
        plant, pqp, xi0 = demo
        np.testing.assert_allclose(plant.A_d, [[1.0, 0.1], [0.0, 1.0]])
        np.testing.assert_allclose(plant.B_d, [[0.005], [0.1]])
        assert pqp.N == 10
        assert pqp.H.shape == (10, 10)
        assert pqp.A.shape == (20, 10)
        np.testing.assert_array_equal(pqp.b0, np.full(20, 0.5))
        np.testing.assert_array_equal(xi0, [1.0, 0.0])
