"""Binarization, neighbor scan, deflation, and outer-loop tests."""

import dataclasses
import math

import numpy as np
import pytest

import penaltyflow as pf
from penaltyflow import binary
from penaltyflow.binary import BINARY_Q
from penaltyflow.errors import EnumerationBoundError
from penaltyflow.problem import check_gradients, measure_state


def _knapsack():
    # min -(x0 + 2 x1) s.t. x0 + x1 <= 1 over binaries
    return pf.binary_quadratic(np.zeros((2, 2)), np.array([-1.0, -2.0]),
                               A=np.array([[1.0, 1.0]]), B=np.array([1.0]))


class TestBinaryQuadratic:
    def test_objective_wiring(self):
        bp = _knapsack()
        assert bp.f(np.array([1.0, 1.0])) == -3.0
        np.testing.assert_array_equal(bp.f_x(np.zeros(2)), [-1.0, -2.0])
        assert bp.n == 2
        assert bp.n_c == 1
        np.testing.assert_array_equal(bp.c(np.array([1.0, 1.0])), [1.0])
        np.testing.assert_array_equal(bp.hess(np.zeros(2), np.ones(1)),
                                      np.zeros((2, 2)))

    def test_without_natives(self):
        bp = pf.binary_quadratic(np.eye(3), np.ones(3))
        assert bp.n_c == 0
        assert bp.c(np.ones(3)).shape == (0,)
        assert bp.c_x(np.ones(3)).shape == (0, 3)

    def test_native_feasibility(self):
        bp = _knapsack()
        assert pf.native_feasible(bp, np.array([0.0, 1.0]))
        assert not pf.native_feasible(bp, np.array([1.0, 1.0]))
        assert pf.native_feasible(bp, np.array([1.0, 5e-10]))
        assert not pf.native_feasible(bp, np.array([1.0, 5e-10]), tol=0.0)
        free = pf.binary_quadratic(np.eye(2), np.zeros(2))
        assert pf.native_feasible(free, np.array([5.0, -5.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            pf.binary_quadratic(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            pf.binary_quadratic(np.zeros((2, 2)), np.zeros(2),
                                A=np.ones((1, 3)), B=np.ones(1))
        with pytest.raises(ValueError):
            pf.binary_quadratic(np.zeros((2, 2)), np.zeros(2),
                                A=np.ones((1, 2)), B=np.ones(2))
        with pytest.raises(ValueError):
            pf.binary_quadratic(np.zeros((0, 0)), np.zeros(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["H", "F", "A", "B"])
    def test_non_finite_entries_rejected(self, name, bad):
        args = {"H": np.eye(2), "F": np.zeros(2),
                "A": np.ones((1, 2)), "B": np.ones(1)}
        args[name] = args[name].copy()
        args[name].flat[0] = bad
        with pytest.raises(ValueError, match=f"{name} has a non-finite"):
            pf.binary_quadratic(**args)


class TestBinarize:
    def test_constraint_count(self):
        prob = pf.binarize(_knapsack())
        assert prob.n_c == 7

    def test_binary_point_has_zero_penalty(self):
        prob = pf.binarize(_knapsack())
        psi = measure_state(prob, np.array([0.0, 1.0]), 0.0,
                            pf.FlowParams(m=2))[0]
        assert psi == 0.0

    def test_interior_point_penalty_value(self):
        # only x0 - x0^2 = 0.25 is active at (0.5, 0)
        prob = pf.binarize(_knapsack())
        psi = measure_state(prob, np.array([0.5, 0.0]), 0.0,
                            pf.FlowParams(m=2))[0]
        assert psi == 0.0625

    def test_constraint_order(self):
        prob = pf.binarize(_knapsack())
        x = np.array([0.3, 0.7])
        expected = np.concatenate([
            [x[0] + x[1] - 1.0], x - x * x, -x, x - 1.0])
        np.testing.assert_allclose(prob.c(x), expected, rtol=1e-15)

    def test_gradients_consistent(self):
        rng = np.random.default_rng(4)
        H = rng.standard_normal((4, 4))
        bp = pf.binary_quadratic(H, rng.standard_normal(4))
        prob = pf.binarize(bp)
        rep = check_gradients(prob, rng.uniform(0.1, 0.9, size=4), 1e-6)
        assert rep.worst <= 1e-5

    def test_objective_override(self):
        # deflated costs enter as the objective of the problem binarized
        bp = dataclasses.replace(_knapsack(), f=lambda x: 7.0,
                                 f_x=lambda x: np.zeros(2))
        prob = pf.binarize(bp)
        assert prob.f(np.zeros(2)) == 7.0
        assert prob.n_c == 7

    def test_hessian_hook(self):
        # the native hook plus the curvature of the x - x^2 block, on the
        # knapsack and on a seeded instance with two stacked bumps
        rng = np.random.default_rng(5)
        H = rng.standard_normal((4, 4))
        bp = pf.binary_quadratic(0.5 * (H + H.T), rng.standard_normal(4))
        bumped = pf.bumped_cost(bp, np.array([[0.0, 1.0, 1.0, 0.0],
                                              [1.0, 1.0, 0.0, 0.0]]),
                                np.array([2.5, 1.5]), 4.0)
        for prob in (pf.binarize(_knapsack()), pf.binarize(bumped)):
            for _ in range(4):
                rep = check_gradients(prob, rng.uniform(-0.2, 1.2, prob.n),
                                      1e-6)
                assert rep.hess_error <= 1e-7

    def test_no_hessian_hook(self):
        # a problem without a hook stays without one through deflation
        # and binarization
        bp = dataclasses.replace(_knapsack(), hess=None)
        bumped = pf.bumped_cost(bp, np.zeros((1, 2)), np.ones(1), 40.0)
        assert bumped.hess is None
        assert pf.binarize(bumped).hess is None


class TestFindNeighbor:
    def test_scan_respects_natives(self):
        # flipping bit 0 of (0,1) gives (1,1), infeasible; bit 1 works
        z = pf.find_neighbor(np.array([0.0, 1.0]), _knapsack())
        np.testing.assert_array_equal(z, [0.0, 0.0])

    def test_first_bit_without_natives(self):
        bp = pf.binary_quadratic(np.zeros((3, 3)), np.zeros(3))
        z = pf.find_neighbor(np.array([0.0, 1.0, 0.0]), bp)
        np.testing.assert_array_equal(z, [1.0, 1.0, 0.0])

    def test_single_flip_preferred_in_index_order(self):
        z = pf.find_neighbor(np.array([1.0, 1.0]), _knapsack())
        np.testing.assert_array_equal(z, [0.0, 1.0])

    def test_exhausted_scan_returns_none(self):
        bp = pf.binary_quadratic(np.zeros((2, 2)), np.zeros(2),
                                 A=np.array([[1.0, 1.0]]),
                                 B=np.array([0.0]))
        assert pf.find_neighbor(np.array([0.0, 0.0]), bp) is None

    def test_two_bit_fallback(self):
        # sum == 1 required: no single flip of (1,0) keeps it, the
        # two-bit flip (0,1) does
        bp = pf.binary_quadratic(
            np.zeros((2, 2)), np.zeros(2),
            A=np.array([[1.0, 1.0], [-1.0, -1.0]]),
            B=np.array([1.0, -1.0]))
        z = pf.find_neighbor(np.array([1.0, 0.0]), bp)
        np.testing.assert_array_equal(z, [0.0, 1.0])


def _one_bump(bp, x_s, z_s, mu_defl=40.0):
    """bp deflated by one bump at x_s sized against z_s, and the bump's
    amplitude."""
    cost = pf.bumped_cost(bp, np.zeros((0, bp.n)), np.zeros(0), mu_defl)
    centres, amplitudes = pf.deflate_cost(cost.f, np.zeros((0, bp.n)),
                                          np.zeros(0), x_s, z_s)
    return pf.bumped_cost(bp, centres, amplitudes, mu_defl), amplitudes[-1]


class TestDeflateCost:
    def test_value_at_center(self):
        bp = pf.binary_quadratic(np.zeros((2, 2)), np.ones(2))
        x_s = np.zeros(2)
        z = np.array([1.0, 0.0])
        cost, a = _one_bump(bp, x_s, z)
        assert a == 3.0
        assert cost.f(x_s) == pytest.approx(bp.f(x_s) + 3.0, rel=1e-15)

    def test_amplitude_guard_for_negative_values(self):
        centres, amplitudes = pf.deflate_cost(
            lambda x: -1.0, np.zeros((0, 2)), np.zeros(0), np.zeros(2),
            np.ones(2))
        np.testing.assert_array_equal(centres, [[0.0, 0.0]])
        np.testing.assert_array_equal(amplitudes, [3.0])

    def test_neighbor_nearly_unchanged(self):
        bp = pf.binary_quadratic(np.zeros((2, 2)), np.ones(2))
        x_s = np.zeros(2)
        z = np.array([1.0, 0.0])
        cost, a = _one_bump(bp, x_s, z)
        lift = cost.f(z) - bp.f(z)
        assert lift == pytest.approx(a * math.exp(-10.0), rel=1e-12)
        assert cost.f(x_s) > cost.f(z)

    def test_far_field_locality(self):
        bp = pf.binary_quadratic(np.eye(3), np.ones(3))
        cost, _ = _one_bump(bp, np.zeros(3), np.array([1.0, 0.0, 0.0]))
        rng = np.random.default_rng(8)
        for _ in range(10):
            d = rng.standard_normal(3)
            x = 3.0 * d / np.linalg.norm(d)
            assert abs(cost.f(x) - bp.f(x)) <= 1e-9 * max(1.0, abs(bp.f(x)))
            np.testing.assert_allclose(cost.f_x(x), bp.f_x(x), rtol=1e-9,
                                       atol=1e-12)
            np.testing.assert_allclose(cost.hess(x, np.zeros(0)),
                                       bp.hess(x, np.zeros(0)), rtol=1e-9,
                                       atol=1e-12)

    def test_gradient_of_bump(self):
        bp = pf.binary_quadratic(np.eye(2), np.zeros(2))
        cost, _ = _one_bump(bp, np.zeros(2), np.array([0.0, 1.0]))
        x = np.array([0.2, -0.1])
        step = 1e-7
        fd = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd[i] = (cost.f(x + e) - cost.f(x - e)) / (2.0 * step)
        np.testing.assert_allclose(cost.f_x(x), fd, rtol=1e-6, atol=1e-9)

    def test_strength_validated(self):
        bp = pf.binary_quadratic(np.eye(2), np.zeros(2))
        for mu_defl in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                pf.bumped_cost(bp, np.zeros((0, 2)), np.zeros(0), mu_defl)
        with pytest.raises(ValueError):
            pf.bumped_cost(bp, np.zeros((2, 2)), np.ones(1), 40.0)

    def test_stacked_bumps_sum_left_to_right(self):
        # three bumps, the first and last on the same centre: value and
        # gradient are the base plus each bump in stacking order, exactly
        bp = pf.binary_quadratic(np.array([[2.0, 0.5], [0.5, 1.0]]),
                                 np.array([-1.0, 0.3]))
        mu = 7.0
        centres = np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
        amplitudes = np.array([1.7, 3.1, 2.9])
        cost = pf.bumped_cost(bp, centres, amplitudes, mu)
        w = np.zeros(0)
        # over these points another order rounds differently at some
        for x in np.random.default_rng(3).uniform(-0.5, 1.5, size=(20, 2)):
            value, grad, hess = float(bp.f(x)), bp.f_x(x), bp.hess(x, w)
            for x_j, a_j in zip(centres, amplitudes):
                d = x - x_j
                bump = a_j * np.exp(-mu * float(d @ d) / 4.0)
                value = value + bump
                grad = grad + bump * (-mu / 2.0) * d
                hess = hess + (bump * (-mu / 2.0)) * (
                    np.eye(2) - (mu / 2.0) * np.outer(d, d))
            assert cost.f(x) == value
            assert np.array_equal(cost.f_x(x), grad)
            assert np.array_equal(cost.hess(x, w), hess)


class TestSolveBinary:
    def test_knapsack_best(self):
        res = pf.solve_binary(_knapsack())
        np.testing.assert_array_equal(res.best_x, [0.0, 1.0])
        assert res.best_f == -2.0
        assert len(res.records) == 1
        rec = res.records[0]
        assert rec.s == 0
        np.testing.assert_array_equal(rec.x_s, [0.0, 1.0])
        np.testing.assert_array_equal(rec.z_s, [0.0, 0.0])
        assert rec.native_feasible
        assert rec.f_original == -2.0
        assert rec.status == "converged"

    def test_unconstrained_sum(self):
        bp = pf.binary_quadratic(np.zeros((3, 3)), np.ones(3))
        res = pf.solve_binary(bp)
        np.testing.assert_array_equal(res.best_x, np.zeros(3))
        assert res.best_f == 0.0

    def test_seeded_instance_matches_oracle(self):
        rng = np.random.default_rng(0)
        H = rng.standard_normal((6, 6))
        H = 0.5 * (H + H.T)
        bp = pf.binary_quadratic(H, rng.standard_normal(6))
        res = pf.solve_binary(bp, max_minima=12)
        x_star, f_star = pf.brute_force_oracle(bp)
        np.testing.assert_array_equal(res.best_x, x_star)
        assert res.best_f - f_star == 0.0

    def test_recorded_vertices_distinct(self):
        rng = np.random.default_rng(0)
        H = rng.standard_normal((6, 6))
        H = 0.5 * (H + H.T)
        bp = pf.binary_quadratic(H, rng.standard_normal(6))
        res = pf.solve_binary(bp, max_minima=12)
        bits = ["".join(str(int(b)) for b in r.x_s) for r in res.records]
        assert len(bits) == len(set(bits))
        assert [r.s for r in res.records] == list(range(len(bits)))

    def test_minima_cap(self):
        res = pf.solve_binary(_knapsack(), max_minima=1)
        assert res.status == "max_minima"
        assert res.inner_solves == 1
        assert len(res.records) == 1
        np.testing.assert_array_equal(res.best_x, [0.0, 1.0])

    def test_cap_validated(self):
        with pytest.raises(ValueError):
            pf.solve_binary(_knapsack(), max_minima=0)

    def test_checks_before_first_solve(self, monkeypatch):
        # binary.solve is the seam every inner solve goes through
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return pf.solve(*args, **kwargs)

        monkeypatch.setattr(binary, "solve", counting_solve)
        for mu_defl in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                pf.solve_binary(_knapsack(), mu_defl=mu_defl)
        assert calls == []
        res = pf.solve_binary(_knapsack(), max_minima=2)
        assert len(calls) == res.inner_solves == 2

    def test_converged_solve_lands_near_vertex(self):
        prob = pf.binarize(_knapsack())
        res = pf.solve(prob, pf.FlowParams(q=BINARY_Q),
                       pf.FlowState(x=np.full(2, 0.5)), pf.StopCriteria(),
                       pf.IntegratorConfig())
        assert res.status == "converged"
        rounded = np.where(res.x >= 0.5, 1.0, 0.0)
        assert np.max(np.abs(res.x - rounded)) <= 0.1

    def test_csv_report(self, tmp_path):
        res = pf.solve_binary(_knapsack())
        path = tmp_path / "run.csv"
        res.to_csv(path, oracle_f=-2.0)
        lines = path.read_text().splitlines()
        assert lines[0] == ("s,x_s,f_original,native_feasible,neighbor,"
                            "status,gap")
        fields = lines[1].split(",")
        assert fields[0] == "0"
        assert fields[1] == "01"
        assert fields[3] == "true"
        assert fields[4] == "00"
        assert float(fields[6]) == 0.0

    def test_csv_report_oracle_skipped(self, tmp_path):
        res = pf.solve_binary(_knapsack())
        path = tmp_path / "run.csv"
        res.to_csv(path, oracle_skipped=True)
        assert path.read_text().splitlines()[1].endswith(",skipped")


class TestBruteForceOracle:
    def test_knapsack(self):
        x, f = pf.brute_force_oracle(_knapsack())
        np.testing.assert_array_equal(x, [0.0, 1.0])
        assert f == -2.0

    def test_infeasible_returns_none(self):
        bp = pf.binary_quadratic(np.zeros((2, 2)), np.zeros(2),
                                 A=np.array([[1.0, 1.0]]),
                                 B=np.array([-1.0]))
        assert pf.brute_force_oracle(bp) is None

    def test_single_variable(self):
        bp = pf.binary_quadratic(np.zeros((1, 1)), np.ones(1))
        x, f = pf.brute_force_oracle(bp)
        np.testing.assert_array_equal(x, [0.0])
        assert f == 0.0

    def test_lexicographic_tie_break(self):
        bp = pf.binary_quadratic(np.zeros((3, 3)), np.zeros(3))
        x, f = pf.brute_force_oracle(bp)
        np.testing.assert_array_equal(x, np.zeros(3))
        assert f == 0.0

    def test_size_bound(self):
        bp = pf.binary_quadratic(np.zeros((21, 21)), np.zeros(21))
        with pytest.raises(EnumerationBoundError):
            pf.brute_force_oracle(bp)
