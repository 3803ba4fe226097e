"""Self-test of the benchmark's correctness checks: each check accepts a
right answer and rejects perturbed ones, each perturbation aimed at one
condition of the check. The references are also compared with the
package's own oracles.

    python3 flowbench/selftest.py

Exits 0 when every check bites, 1 otherwise. Takes a few seconds.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from penaltyflow import binary, mpc, qp  # noqa: E402
from penaltyflow.flow import FlowParams, FlowState  # noqa: E402
from penaltyflow.integrator import (IntegratorConfig, StopCriteria,  # noqa: E402
                                    solve)

import reference as ref  # noqa: E402
from workloads import BinaryDeflation, MpcEpisodes  # noqa: E402

class Expect:
    """Collects the self-test's failures."""

    def __init__(self):
        self.failures = []

    def __call__(self, label, reason, wanted):
        """``wanted`` None: the check must pass; else the check must fail
        and its reason must contain ``wanted``."""
        ok = reason is None if wanted is None else (
            reason is not None and wanted in reason)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {reason}")
        if not ok:
            self.failures.append(label)


def qp_checks(expect):
    data, _ = qp.generate_random_qp(15, 20, 0)
    H, F, A, B = data.H, data.F, data.A, data.B
    x, f_star, mu = ref.qp_reference(H, F, A, B)
    oracle = qp.active_set_oracle(data)
    expect("qp reference agrees with active_set_oracle",
           None if abs(f_star - oracle.f_star) <= 1e-9 * abs(f_star)
           and np.allclose(mu, oracle.mu_star, atol=1e-8) else "differs",
           None)
    check = lambda status="converged", x=x, mu=mu: ref.check_qp(
        H, F, A, B, f_star, status, x, mu)
    res = solve(qp.qp_problem(data), FlowParams(),
                FlowState(x=np.zeros(15), rho=0.0), StopCriteria(),
                IntegratorConfig())
    expect("qp flow answer", check(x=res.x, mu=res.mu), None)
    expect("qp reference answer", check(), None)
    expect("qp not converged", check(status="t_max_reached"), "status")
    expect("qp cost off", check(x=1.5 * x), "f/f*")
    active = int(np.argmax(mu))
    inactive = int(np.argmin(A @ x - B))
    row = A[active] / np.linalg.norm(A[active])
    expect("qp infeasible", check(x=x + 0.002 * row), "psi")
    bad = mu.copy()
    bad[inactive] = -0.1
    expect("qp negative multiplier", check(mu=bad), "negative")
    bad = mu.copy()
    bad[inactive] = 0.5
    expect("qp complementarity", check(mu=bad), "complementarity")
    bad = mu.copy()
    bad[active] += 0.1
    expect("qp stationarity", check(mu=bad), "stationarity")


def mpc_checks(expect):
    w = MpcEpisodes()
    xi = np.array([1.0, 0.0])
    x, _, _ = w.reference(xi)
    _, pqp, _ = mpc.double_integrator_demo()
    oracle = qp.active_set_oracle(mpc.instantiate(pqp, xi))
    expect("mpc reference agrees with active_set_oracle",
           None if np.allclose(x, oracle.x_star, atol=1e-8) else "differs",
           None)
    u = x[:1]
    check = lambda status, u, x_sol: ref.check_mpc_step(
        x, w.U_MAX, status, u, x_sol)
    u_flow, res = mpc.mpc_step(pqp, xi, FlowParams(), mpc.DEMO_STOP,
                               IntegratorConfig())
    expect("mpc flow answer", check(res.status, u_flow, res.x), None)
    expect("mpc reference answer", check("converged", u, x), None)
    expect("mpc not converged", check("rhs_failure", u, x), "status")
    expect("mpc input outside the box",
           check("converged", np.sign(u) * (w.U_MAX + 1e-4), x), "|u|")
    moved = x.copy()
    moved[1:] += 0.05
    expect("mpc solution off the reference",
           check("converged", u, moved), "|x - x*|")
    expect("mpc input off the reference",
           check("converged", u - np.sign(u) * 0.05, x), "|u - u*|")
    expect("mpc settled", ref.check_settled(np.array([0.005, -0.005])), None)
    expect("mpc not settled", ref.check_settled(np.array([0.02, 0.0])),
           "not settled")


def binary_checks(expect):
    H, F = BinaryDeflation.instance(1)
    f_opt = ref.binary_optimum(H, F)
    best, f_best = binary.brute_force_oracle(binary.binary_quadratic(H, F))
    expect("binary enumeration agrees with brute_force_oracle",
           None if abs(f_opt - f_best) <= 1e-12 else "differs", None)
    check = lambda x, f=None: ref.check_binary(
        H, F, f_opt, x, ref.qp_value(H, F, x) if f is None else f)
    expect("binary optimum", check(best), None)
    for i in range(F.size):
        flipped = best.copy()
        flipped[i] = 1.0 - flipped[i]
        expect(f"binary bit {i} flipped", check(flipped), "gap")
    expect("binary nothing found", ref.check_binary(H, F, f_opt, None, np.inf),
           "no feasible")
    expect("binary not a vertex", check(np.full(F.size, 0.5)), "not a vertex")
    expect("binary misreported value", check(best, f_opt - 0.1), "reported")


def main():
    expect = Expect()
    for checks in (qp_checks, mpc_checks, binary_checks):
        checks(expect)
    print(f"{len(expect.failures)} self-test failure(s)")
    return 1 if expect.failures else 0


if __name__ == "__main__":
    sys.exit(main())
