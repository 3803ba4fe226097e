"""The benchmark's three workloads.

Each workload fixes a set of operations, makes their inputs, runs one
fixed warm-up operation, runs a round of operations through a ``timed``
callable that times only the program call, and checks every output
against the references in ``reference``.

The operation sets are the instances of the package's acceptance
criteria (1, 6 and 7), fixed so that figures from different runs and
seeds measure the same work. ``--seed`` sets the order in which a
round visits them.
"""

import numpy as np
import scipy.linalg as sla

from penaltyflow import binary, integrator, mpc
from penaltyflow.flow import FlowParams, FlowState
from penaltyflow.integrator import IntegratorConfig, StopCriteria
from penaltyflow.qp import generate_random_qp, qp_problem

import reference

PARAMS = FlowParams()
CONFIG = IntegratorConfig()


def accuracy(res, f_star, mu_star):
    """Relative cost gap and multiplier error of a QP solve against its
    reference."""
    return {
        "rel_gap": abs(res.f - f_star) / max(1.0, abs(f_star)),
        "mu_err": float(np.abs(res.mu - mu_star).max())
        / max(1.0, float(mu_star.max())),
    }


class QpBench:
    """Criterion 1: the 50 seeded QPs (n=15, nc=20), each solved cold
    from (0, 0) by one ``solve`` call to the default stop criteria."""

    name = "qp_bench"
    # nominal length of one round on a 2-core machine; --seconds buys
    # whole rounds of this length
    round_seconds = 45.0
    N, NC, COUNT = 15, 20, 50
    STOP = StopCriteria()

    def inputs(self, seed):
        items = []
        for s in np.random.default_rng(seed).permutation(self.COUNT):
            data, _ = generate_random_qp(self.N, self.NC, int(s))
            items.append((int(s), data, qp_problem(data, PARAMS.cfg)))
        return items

    def warm_up(self):
        data, _ = generate_random_qp(self.N, self.NC, 0)
        integrator.solve(qp_problem(data, PARAMS.cfg), PARAMS,
                         FlowState(x=np.zeros(self.N), rho=0.0), self.STOP,
                         CONFIG)

    def run_round(self, items, timed):
        # solve is looked up on its module, where the traced run wraps it
        return [(s, data, timed(integrator.solve, problem, PARAMS,
                                FlowState(x=np.zeros(self.N), rho=0.0),
                                self.STOP, CONFIG))
                for s, data, problem in items]

    def check(self, outputs):
        records = []
        for s, data, res in outputs:
            H, F, A, B = data.H, data.F, data.A, data.B
            x_star, f_star, mu_star = reference.qp_reference(H, F, A, B)
            records.append({
                "op": f"qp{s}",
                "reason": reference.check_qp(H, F, A, B, f_star, res.status,
                                             res.x, res.mu),
                **accuracy(res, f_star, mu_star),
            })
        return records

    def oracle_inputs(self, inputs, outputs):
        return [data for _, data, _ in outputs]


class MpcEpisodes:
    """Criterion 6's double-integrator demo in closed loop from
    xi0 = (1, 0) and (-1, 0), driven step by step through ``mpc_step``
    with the warm start and early stop of ``simulate_closed_loop``. One
    operation is one control step. Each episode holds 10 saturated
    steps, so a round of both holds 20 and ``op_ms.tail`` (10 of 120
    steps beyond it) falls inside the saturated group."""

    name = "mpc_episodes"
    round_seconds = 17.0
    EPISODES = ((1.0, 0.0), (-1.0, 0.0))
    STEPS = 60
    # the demo scenario, restated for the reference and the plant
    DT, HORIZON, U_MAX = 0.1, 10, 0.5
    A_D = np.array([[1.0, DT], [0.0, 1.0]])
    B_D = np.array([[0.5 * DT * DT], [DT]])
    Q, R = np.eye(2), np.array([[0.1]])

    def __init__(self):
        self.P = sla.solve_discrete_are(self.A_D, self.B_D, self.Q, self.R)

    def inputs(self, seed):
        _, pqp, _ = mpc.double_integrator_demo()
        order = np.random.default_rng(seed).permutation(len(self.EPISODES))
        return pqp, [self.EPISODES[i] for i in order]

    def warm_up(self):
        _, pqp, _ = mpc.double_integrator_demo()
        mpc.mpc_step(pqp, np.array([0.1, 0.0]), PARAMS, mpc.DEMO_STOP, CONFIG)

    def run_round(self, inputs, timed):
        pqp, episodes = inputs
        outputs = []
        for xi0 in episodes:
            xi, warm = np.array(xi0), None
            for k in range(self.STEPS):
                u, res = timed(mpc.mpc_step, pqp, xi, PARAMS, mpc.DEMO_STOP,
                               CONFIG, warm=warm)
                xi_next = self.A_D @ xi + self.B_D @ u
                outputs.append((xi0, k, xi, u, res, xi_next))
                if res.status == "rhs_failure":
                    break
                warm, xi = res.x, xi_next
        return outputs

    def reference(self, xi):
        H, F = reference.condensed_mpc_qp(self.A_D, self.B_D, self.Q, self.R,
                                          self.P, self.HORIZON, xi)
        return reference.box_qp_reference(H, F, self.U_MAX)

    def check(self, outputs):
        records = []
        for xi0, k, xi, u, res, xi_next in outputs:
            x_star, f_star, mu_star = self.reference(xi)
            reason = reference.check_mpc_step(x_star, self.U_MAX, res.status,
                                              u, res.x)
            if reason is None and k == self.STEPS - 1:
                reason = reference.check_settled(xi_next)
            records.append({
                "op": f"xi0={xi0} step {k}",
                "reason": reason,
                "saturated": bool(mu_star.max() > 0.0),
                **accuracy(res, f_star, mu_star),
            })
        return records

    def oracle_inputs(self, inputs, outputs):
        pqp, _ = inputs
        return [mpc.instantiate(pqp, xi) for _, _, xi, _, _, _ in outputs]


class BinaryDeflation:
    """Criterion 7's seeded 6-bit binary quadratics 1, 2 and 4, each one
    ``solve_binary`` call with max_minima=12 and mu_defl=40.

    Seed 4 misses the global optimum on every run (gap 0.316): deflation
    keeps returning to visited vertices, because ``find_neighbor`` takes
    the first feasible flip and each restart sits at a bump centre with
    zero gradient. Its operation counts as failed, not as incorrect, so
    a fix to deflation moves this workload's failure count."""

    name = "binary_deflation"
    round_seconds = 34.0
    SEEDS = (1, 2, 4)
    KNOWN_FAULT = frozenset({4})
    BITS, MAX_MINIMA, MU_DEFL = 6, 12, 40.0

    @classmethod
    def instance(cls, seed):
        """Criterion 7's draw: H symmetrized from a standard normal
        matrix, F standard normal."""
        rng = np.random.default_rng(seed)
        H = rng.standard_normal((cls.BITS, cls.BITS))
        H = 0.5 * (H + H.T)
        return H, rng.standard_normal(cls.BITS)

    def inputs(self, seed):
        items = []
        for i in np.random.default_rng(seed).permutation(len(self.SEEDS)):
            s = self.SEEDS[i]
            H, F = self.instance(s)
            items.append((s, H, F, binary.binary_quadratic(H, F)))
        return items

    def warm_up(self):
        bp = binary.binary_quadratic(np.array([[1.0, 0.5], [0.5, 1.0]]),
                                     np.array([-1.0, 0.2]))
        binary.solve_binary(bp, max_minima=2, mu_defl=self.MU_DEFL)

    def run_round(self, items, timed):
        return [(s, H, F, timed(binary.solve_binary, bp,
                                max_minima=self.MAX_MINIMA,
                                mu_defl=self.MU_DEFL))
                for s, H, F, bp in items]

    def check(self, outputs):
        records = []
        for s, H, F, res in outputs:
            f_opt = reference.binary_optimum(H, F)
            records.append({
                "op": f"binary{s}",
                "reason": reference.check_binary(H, F, f_opt, res.best_x,
                                                 res.best_f),
                "known_fault": s in self.KNOWN_FAULT,
                "inner_solves": res.inner_solves,
                "distinct_vertices": len(res.records),
            })
        return records

    def oracle_inputs(self, inputs, outputs):
        return []


WORKLOADS = {w.name: w for w in (QpBench, MpcEpisodes, BinaryDeflation)}
