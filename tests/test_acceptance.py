"""Acceptance runs covering the deliverable end to end.

One test per criterion; each prints a single PASS/FAIL line (run pytest
with -s to see them inline). The QP benchmark and the binary sweep are
module-scoped fixtures because the determinism criterion reruns both.
"""

import dataclasses

import numpy as np
import pytest

import penaltyflow as pf
from penaltyflow.flow import (exp_factor, fbar_dot_identity, flow_jacobian,
                              flow_rhs, series_factor)
from penaltyflow.problem import PenaltyConfig, check_gradients

BENCH_COUNT = 50
BENCH_N = 15
BENCH_NC = 20
SWEEP_SEEDS = range(10)
# worst errors over the 50 benchmark instances, relative to the scales
# in test_multiplier_recovery, are about 10x below these bounds
MU_RECOVERY_BOUND = 2e-3
X_RECOVERY_BOUND = 5e-4
# accepted BDF steps over the 50 benchmark solves: about 19,000 at the
# default tolerances, about 60,000 at rtol 1e-6
BENCH_STEP_BUDGET = 25_000


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _knapsack():
    return pf.binary_quadratic(np.zeros((2, 2)), np.array([-1.0, -2.0]),
                               A=np.array([[1.0, 1.0]]),
                               B=np.array([1.0]))


def _seeded_binary(seed):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((6, 6))
    H = 0.5 * (H + H.T)
    return pf.binary_quadratic(H, rng.standard_normal(6))


def _run_bench():
    return pf.run_benchmark(BENCH_COUNT, BENCH_N, BENCH_NC,
                            pf.FlowParams(), pf.StopCriteria(),
                            pf.IntegratorConfig(), seed=0)


def _run_sweep():
    runs = []
    for seed in SWEEP_SEEDS:
        bp = _seeded_binary(seed)
        res = pf.solve_binary(bp, max_minima=12, mu_defl=40.0)
        _, f_star = pf.brute_force_oracle(bp)
        runs.append((seed, bp, res, f_star))
    return runs


@pytest.fixture(scope="module")
def bench_report():
    return _run_bench()


@pytest.fixture(scope="module")
def binary_sweep():
    return _run_sweep()


def test_criterion_1_qp_benchmark(bench_report):
    rows = bench_report.rows
    converged = sum(r.status == "converged" for r in rows)
    psi_ok = all(r.psi_final <= 1e-6 for r in rows)
    band_ok = all(0.99 <= r.ratio <= 1.01 for r in rows)
    worst_stat = 0.0
    for r in rows:
        data, _ = pf.generate_random_qp(BENCH_N, BENCH_NC, seed=r.seed)
        f_x = data.H @ r.result.x + data.F
        worst_stat = max(worst_stat,
                         r.stationarity
                         / (1e-3 * (1.0 + np.linalg.norm(f_x))))
    total_ms = sum(r.millis for r in rows)
    ok = (converged == BENCH_COUNT and psi_ok and band_ok
          and worst_stat <= 1.0)
    _report(1, ok,
            f"{converged}/{BENCH_COUNT} converged, psi<=1e-6: {psi_ok}, "
            f"f/f_oracle in [0.99,1.01]: {band_ok}, worst stationarity "
            f"at {worst_stat:.3f} of its bound, total {total_ms:.0f} ms")


def test_criterion_2_trajectory_shape(bench_report):
    tr = bench_report.rows[0].result.trajectory
    rho, psi = tr[:, 1], tr[:, 2]
    peak = int(np.argmax(psi))
    tail = np.diff(psi[peak:])
    tail_ok = bool(tail.size) and np.all(
        tail <= 1e-12 * max(1.0, float(psi.max())))
    rho_ok = np.all(np.diff(rho) >= -1e-12 * max(1.0, float(rho.max())))
    end_ok = psi[-1] <= 1e-6
    ok = tail_ok and rho_ok and end_ok
    _report(2, ok,
            f"seed 0: psi peaks at sample {peak}/{len(psi) - 1}, "
            f"monotone after peak: {tail_ok}, final psi = {psi[-1]:.2e}, "
            f"rho non-decreasing: {rho_ok}")


def test_criterion_3_flow_identity():
    rng = np.random.default_rng(11)
    cfg = PenaltyConfig(m=2)
    problems = []
    for s in range(6):
        data, _ = pf.generate_random_qp(6, 4, seed=s)
        problems.append(pf.qp_problem(data, cfg))
    problems.append(pf.binarize(_knapsack()))
    problems.append(pf.binarize(_seeded_binary(0)))
    problems.append(pf.binarize(_seeded_binary(1)))
    param_pool = [pf.FlowParams(), pf.FlowParams(q=4),
                  pf.FlowParams(mode="exponential"),
                  pf.FlowParams(q=1)]
    checked = 0
    worst = 0.0
    for prob in problems:
        for k in range(140):
            state = pf.FlowState(x=rng.standard_normal(prob.n),
                                 rho=float(rng.uniform(0.0, 5.0)))
            analytic, assembled = fbar_dot_identity(
                prob, state, param_pool[k % len(param_pool)])
            worst = max(worst, abs(analytic - assembled)
                        / max(1.0, abs(analytic)))
            checked += 1
    factor_worst = 0.0
    lam = 1e-4
    for lg in np.linspace(0.0, 1.0, 201):
        s = series_factor(lg / lam, lam, 20)
        e = exp_factor(lg / lam, lam)
        factor_worst = max(factor_worst, abs(s - e) / e)
    ok = checked >= 1000 and worst <= 1e-10 and factor_worst <= 1e-12
    _report(3, ok,
            f"{checked} states, worst identity deviation {worst:.2e}, "
            f"series(q=20) vs exponential {factor_worst:.2e}")


def test_criterion_4_gradient_suite():
    rng = np.random.default_rng(7)
    cfg = PenaltyConfig(m=2)
    problems = []
    for s in range(3):
        data, _ = pf.generate_random_qp(6, 4, seed=s)
        problems.append(pf.qp_problem(data, cfg))
    problems.append(pf.binarize(_knapsack()))
    problems.append(pf.binarize(_seeded_binary(0)))
    worst = 0.0
    points = 0
    for prob in problems:
        taken = 0
        while taken < 8:
            x = rng.standard_normal(prob.n)
            if np.min(np.abs(prob.c(x))) <= 1e-3:
                continue
            rep = check_gradients(prob, x, 1e-6, cfg)
            worst = max(worst, rep.worst)
            taken += 1
            points += 1
    ok = worst <= 1e-5
    _report(4, ok,
            f"{points} off-boundary points over {len(problems)} problems, "
            f"worst relative deviation {worst:.2e}")


def _curved_problem():
    """f = (1/2)x'Hx + F'x + (1/4) sum x_i^4 under the disk |x|^2 <= 1 and
    one half-plane, with the exact Lagrangian Hessian."""
    data, _ = pf.generate_random_qp(3, 1, seed=5)
    H, F, a, b = data.H, data.F, data.A[0], data.B[0]
    return pf.Problem(
        n=3, n_c=2,
        f=lambda x: 0.5 * x @ H @ x + F @ x + 0.25 * np.sum(x ** 4),
        f_x=lambda x: H @ x + F + x ** 3,
        c=lambda x: np.array([x @ x - 1.0, a @ x - b]),
        c_x=lambda x: np.vstack([2.0 * x, a]),
        hess=lambda x, w: H + np.diag(3.0 * x ** 2) + 2.0 * w[0] * np.eye(3))


def _central_flow_jacobian(problem, state, params, step=1e-6):
    y = np.append(state.x, state.rho)
    cols = []
    for j in range(y.size):
        h = step * max(1.0, abs(y[j]))
        out = []
        for sign in (1.0, -1.0):
            z = y.copy()
            z[j] += sign * h
            dx, drho = flow_rhs(problem, pf.FlowState(x=z[:-1], rho=z[-1]),
                                params)
            out.append(np.append(dx, drho))
        cols.append((out[0] - out[1]) / (2.0 * h))
    return np.stack(cols, axis=1)


def _bumped_binary():
    """Seed 3's binarized instance deflated by two stacked bumps, with
    the exact Hessian hook."""
    bp = _seeded_binary(3)
    return pf.binarize(pf.bumped_cost(
        bp, np.array([[0.0, 1.0, 0.0, 1.0, 1.0, 0.0],
                      [0.0, 1.0, 0.0, 1.0, 0.0, 0.0]]),
        np.array([2.0, 3.5]), 4.0))


def test_flow_jacobian_matches_central_differences():
    """The (x, rho) Jacobian against central differences of flow_rhs,
    for both modes, q in {1, 2, 4} and m in {1, 2, 3}, at off-boundary
    states with active and inactive constraints and at states where
    g = 0: with exact Hessian hooks (a QP, a curved problem, a deflated
    binary problem) and with the Hessian differenced (the curved problem
    without its hook)."""
    rng = np.random.default_rng(3)
    # the last two draw their states from a generator of their own, so
    # the first two keep the states they had before those were added
    added = np.random.default_rng(4)
    problems = [
        (pf.qp_problem(pf.generate_random_qp(4, 5, seed=1)[0]), rng),
        (_curved_problem(), rng), (_bumped_binary(), added),
        (dataclasses.replace(_curved_problem(), hess=None), added)]
    # g = 0 with an active constraint: the halfspace problem at the origin
    zero_g = pf.qp_problem(pf.QpData(H=np.eye(2), F=np.zeros(2),
                                     A=np.array([[-1.0, 0.0]]),
                                     B=np.array([-1.0])))
    worst, checked, active, inactive = 0.0, 0, 0, 0
    for m in (1, 2, 3):
        for mode in ("truncated", "exponential"):
            for q in (1, 2, 4):
                params = pf.FlowParams(lam=0.05, gamma=0.5, q=q, mode=mode,
                                       m=m)
                cases = [(zero_g, pf.FlowState(x=np.zeros(2), rho=0.0))]
                for prob, gen in problems:
                    taken = 0
                    while taken < 3:
                        x = 1.2 * gen.standard_normal(prob.n)
                        cvals = prob.c(x)
                        if np.min(np.abs(cvals)) <= 1e-2:
                            continue
                        active += int(np.any(cvals > 0.0))
                        inactive += int(np.any(cvals < 0.0))
                        cases.append((prob, pf.FlowState(
                            x=x, rho=float(gen.uniform(0.0, 3.0)))))
                        taken += 1
                for prob, state in cases:
                    exact = flow_jacobian(prob, state, params)
                    fd = _central_flow_jacobian(prob, state, params)
                    worst = max(worst, float(np.abs(exact - fd).max())
                                / max(1.0, float(np.abs(fd).max())))
                    checked += 1
    ok = worst <= 1e-6 and active > 0 and inactive > 0
    print(f"{'PASS' if ok else 'FAIL'} flow Jacobian: {checked} states "
          f"({active} with an active, {inactive} with an inactive "
          f"constraint), worst relative deviation {worst:.2e}")
    assert ok


def test_criterion_5_oracle_equivalence(bench_report):
    bound = pf.active_set_oracle(
        pf.QpData(H=np.array([[1.0]]), F=np.array([0.0]),
                  A=np.array([[-1.0]]), B=np.array([-2.0])))
    half = pf.active_set_oracle(
        pf.QpData(H=np.eye(2), F=np.zeros(2),
                  A=np.array([[-1.0, 0.0]]), B=np.array([-1.0])))
    bound_ok = (abs(bound.x_star[0] - 2.0) <= 1e-9
                and abs(bound.mu_star[0] - 2.0) <= 1e-9)
    half_ok = (np.linalg.norm(half.x_star - [1.0, 0.0]) <= 1e-9
               and abs(half.mu_star[0] - 1.0) <= 1e-9)
    ok = bound_ok and half_ok and bench_report.passed
    _report(5, ok,
            f"1-D bound: {bound_ok}, halfspace projection: {half_ok}, "
            f"flow-vs-oracle band on all {len(bench_report.rows)} "
            f"instances: {bench_report.passed}")


def test_multiplier_recovery(bench_report):
    # the multipliers read off the final state, and that state itself,
    # against the oracle's certified (x*, mu*) on all 50 instances
    worst_mu = worst_x = 0.0
    for r in bench_report.rows:
        data, _ = pf.generate_random_qp(BENCH_N, BENCH_NC, seed=r.seed)
        osol = pf.active_set_oracle(data)
        res = r.result
        worst_mu = max(worst_mu, float(np.max(np.abs(res.mu - osol.mu_star)))
                       / max(1.0, float(np.max(osol.mu_star))))
        worst_x = max(worst_x, float(np.linalg.norm(res.x - osol.x_star))
                      / (1.0 + float(np.linalg.norm(osol.x_star))))
    ok = worst_mu <= MU_RECOVERY_BOUND and worst_x <= X_RECOVERY_BOUND
    detail = (f"max |mu - mu*| / max(1, max mu*) = {worst_mu:.2e} (bound "
              f"{MU_RECOVERY_BOUND:g}), |x - x*| / (1 + |x*|) = "
              f"{worst_x:.2e} (bound {X_RECOVERY_BOUND:g}) over "
              f"{len(bench_report.rows)} instances")
    print(f"{'PASS' if ok else 'FAIL'} multiplier recovery: {detail}")
    assert ok, detail


def test_benchmark_work_budget(bench_report):
    # the integrator's work on criterion 1, so a tolerance or stepping
    # change that multiplies the step count fails here, not only in time
    total = sum(r.steps for r in bench_report.rows)
    ok = total <= BENCH_STEP_BUDGET
    detail = (f"{total} accepted steps over {len(bench_report.rows)} "
              f"instances (budget {BENCH_STEP_BUDGET})")
    print(f"{'PASS' if ok else 'FAIL'} work budget: {detail}")
    assert ok, detail


def test_criterion_6_mpc_closed_loop():
    plant, pqp, xi0 = pf.double_integrator_demo()
    trace = pf.simulate_closed_loop(plant, pqp, xi0, 60, pf.FlowParams(),
                                    pf.DEMO_STOP, pf.IntegratorConfig())
    norms = np.linalg.norm(trace.xi, axis=1)
    settled = np.where(norms <= 1e-2)[0]
    final = plant.A_d @ trace.xi[-1] + plant.B_d @ trace.u[-1]
    settle_ok = settled.size > 0 and np.linalg.norm(final) <= 1e-2
    max_u = float(np.abs(trace.u).max())
    u_ok = max_u <= 0.5 + 1e-6
    worst_step = 0.0
    for k, res in enumerate(trace.results):
        osol = pf.active_set_oracle(pf.instantiate(pqp, trace.xi[k]))
        err = np.linalg.norm(res.x - osol.x_star)
        worst_step = max(worst_step,
                         err / (1e-2 * (1.0 + np.linalg.norm(osol.x_star))))
    ok = settle_ok and u_ok and trace.all_converged and worst_step <= 1.0
    first = int(settled[0]) if settled.size else -1
    _report(6, ok,
            f"|xi| <= 1e-2 from step {first}, max|u| = {max_u:.7f}, "
            f"all steps converged: {trace.all_converged}, worst per-step "
            f"oracle deviation at {worst_step:.3f} of its bound")


def test_criterion_7_binary_deflation(binary_sweep):
    knap = _knapsack()
    kres = pf.solve_binary(knap)
    _, kf_star = pf.brute_force_oracle(knap)
    knap_ok = (kres.best_x is not None
               and pf.native_feasible(knap, kres.best_x)
               and kres.best_f - kf_star == 0.0)
    feasible = all(pf.native_feasible(bp, res.best_x)
                   for _, bp, res, _ in binary_sweep)
    gaps = [res.best_f - f_star for _, _, res, f_star in binary_sweep]
    hits = sum(g == 0.0 for g in gaps)
    ok = knap_ok and feasible and hits >= 8
    missed = [s for (s, _, _, _), g in zip(binary_sweep, gaps) if g != 0.0]
    _report(7, ok,
            f"knapsack exact: {knap_ok}, all best points native-feasible: "
            f"{feasible}, zero gap on {hits}/10 seeded instances "
            f"(missed seeds {missed})")


def test_deflation_runs_reach_max_minima(binary_sweep):
    # every inner solve converges, so each run stops on its cap and not
    # on a failed inner solve
    knap = pf.solve_binary(_knapsack())
    statuses = [("knapsack", knap.status, knap.inner_solves)]
    statuses += [(seed, res.status, res.inner_solves)
                 for seed, _, res, _ in binary_sweep]
    bad = [s for s in statuses if s[1] != "max_minima"]
    detail = (f"{len(statuses) - len(bad)}/{len(statuses)} runs end in "
              f"max_minima; others (run, status, inner solves): {bad}")
    print(f"{'PASS' if not bad else 'FAIL'} deflation runs: {detail}")
    assert not bad, detail


def test_criterion_8_determinism(bench_report, binary_sweep, tmp_path):
    def strip_millis(path):
        lines = path.read_text().splitlines()
        return "\n".join(",".join(l.split(",")[:-1]) for l in lines)

    a, b = tmp_path / "bench_a.csv", tmp_path / "bench_b.csv"
    bench_report.to_csv(a)
    _run_bench().to_csv(b)
    bench_same = strip_millis(a) == strip_millis(b)

    binary_same = True
    rerun = _run_sweep()
    for (seed, _, res1, f1), (_, _, res2, f2) in zip(binary_sweep, rerun):
        p1 = tmp_path / f"sweep_a_{seed}.csv"
        p2 = tmp_path / f"sweep_b_{seed}.csv"
        res1.to_csv(p1, oracle_f=f1)
        res2.to_csv(p2, oracle_f=f2)
        binary_same = binary_same and p1.read_bytes() == p2.read_bytes()
    ok = bench_same and binary_same
    _report(8, ok,
            f"benchmark CSV identical up to the wall-clock column: "
            f"{bench_same}, binary sweep CSVs byte-identical: "
            f"{binary_same}")
