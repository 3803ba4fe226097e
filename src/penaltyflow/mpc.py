"""Closed-loop model predictive control with the flow as the QP engine.

A discrete LTI plant is condensed over a finite horizon into a QP whose
linear term depends affinely on the measured state xi. At every control
step the instantiated QP is handed to the flow integrator (warm-started
from the previous solution), the first input of the optimizer is applied,
and the plant is advanced.

The decision vector is the stacked input sequence directly, so u(k) is
just the first n_u components of the solution.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .fileio import atomic_write_text, fmt
from .flow import FlowParams, FlowState
from .integrator import IntegratorConfig, StopCriteria, solve
from .qp import QpData, qp_problem

__all__ = [
    "Plant", "ParametricQp", "condense", "instantiate", "mpc_step",
    "simulate_closed_loop", "ClosedLoopTrace", "double_integrator_demo",
    "DEMO_STOP",
]

# Per-step stop used by the built-in demo. The asymptotic constraint
# violation scales like sqrt(eps_psi) per constraint, so keeping applied
# inputs within 1e-6 of the box needs eps_psi well below 1e-12; the
# longer flow horizon that entails is cheap for the stiff backend.
DEMO_STOP = StopCriteria(eps_psi=1e-13, eps_g=1e-4, t_max=1e28,
                         rho_max=1e9, max_steps=5_000_000)


@dataclass(frozen=True)
class Plant:
    """Discrete-time LTI plant xi_{k+1} = A_d xi_k + B_d u_k, with finite
    entries."""

    A_d: np.ndarray
    B_d: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A_d, dtype=float)
        B = np.asarray(self.B_d, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A_d must be square, got {A.shape}")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError(f"B_d has shape {B.shape}, expected "
                             f"({A.shape[0]}, n_u)")
        for name, arr in (("A_d", A), ("B_d", B)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has a non-finite entry")
        object.__setattr__(self, "A_d", A)
        object.__setattr__(self, "B_d", B)

    @property
    def n_xi(self) -> int:
        return self.A_d.shape[0]

    @property
    def n_u(self) -> int:
        return self.B_d.shape[1]


@dataclass(frozen=True)
class ParametricQp:
    """State-parametric QP

        min (1/2) x'Hx + (F1 xi)'x
        s.t. A x <= b0

    over the stacked inputs x = (u_0, .., u_{N-1}) of horizon N. Only
    the linear term depends on the measured state xi.
    """

    H: np.ndarray
    F1: np.ndarray
    A: np.ndarray
    b0: np.ndarray
    N: int


def condense(plant: Plant, N: int, Q, R, P, u_max: float) -> ParametricQp:
    """Condense an N-step tracking problem into a ParametricQp.

    The cost is sum_{k=1..N} xi_k' Q xi_k + sum_{k=0..N-1} u_k' R u_k
    + xi_N' P xi_N under the prediction dynamics; substituting the
    stacked prediction Xi = T xi0 + S U gives

        H  = Rbar + S' Qbar S      (symmetrized)
        F1 = S' Qbar T

    which represents half the true cost, leaving the argmin unchanged.
    Input box constraints |u_j| <= u_max become A = [I; -I],
    b0 = u_max * 1. Raises ValueError when H or F1 overflows, as it
    does for a fast-growing plant over a long horizon.
    """
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    P = np.asarray(P, dtype=float)
    n_xi, n_u = plant.n_xi, plant.n_u
    if N < 1:
        raise ValueError("horizon N must be >= 1")
    if Q.shape != (n_xi, n_xi) or P.shape != (n_xi, n_xi):
        raise ValueError("Q and P must be n_xi x n_xi")
    if R.shape != (n_u, n_u):
        raise ValueError("R must be n_u x n_u")
    if u_max < 0.0:
        raise ValueError("u_max must be >= 0")

    n = N * n_u
    T = np.zeros((N * n_xi, n_xi))
    S = np.zeros((N * n_xi, n))
    # an overflow here is refused right below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        Apow = np.eye(n_xi)
        for k in range(N):
            Apow = plant.A_d @ Apow
            T[k * n_xi:(k + 1) * n_xi] = Apow
        for j in range(N):
            blk = plant.B_d.copy()
            for k in range(j, N):
                S[k * n_xi:(k + 1) * n_xi, j * n_u:(j + 1) * n_u] = blk
                blk = plant.A_d @ blk
        Qbar = sla.block_diag(*([Q] * (N - 1) + [Q + P])) if N > 1 \
            else (Q + P)
        Rbar = sla.block_diag(*([R] * N)) if N > 1 else R

        H = Rbar + S.T @ Qbar @ S
        H = 0.5 * H + 0.5 * H.T
        F1 = S.T @ Qbar @ T
    if not (np.isfinite(H).all() and np.isfinite(F1).all()):
        raise ValueError(f"the QP condensed over horizon {N} has a "
                         "non-finite entry")
    A = np.vstack([np.eye(n), -np.eye(n)])
    b0 = np.full(2 * n, float(u_max))
    return ParametricQp(H=H, F1=F1, A=A, b0=b0, N=N)


def instantiate(pqp: ParametricQp, xi) -> QpData:
    """Freeze the parametric QP at a measured state."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (pqp.F1.shape[1],):
        raise ValueError(f"xi has shape {xi.shape}, expected "
                         f"({pqp.F1.shape[1]},)")
    return QpData(H=pqp.H, F=pqp.F1 @ xi, A=pqp.A, B=pqp.b0)


def mpc_step(pqp: ParametricQp, xi, params: FlowParams,
             stop: StopCriteria, config: IntegratorConfig,
             warm: Optional[np.ndarray] = None):
    """Solve the instantiated QP by flow integration and return
    (u_applied, SolveResult).

    Starts from (warm, rho = 0) when a previous solution is available,
    else from the origin. A non-converged solve still yields the best
    state reached; the caller sees the status on the result.
    """
    data = instantiate(pqp, xi)
    problem = qp_problem(data)
    n = data.n
    if warm is not None:
        warm = np.asarray(warm, dtype=float)
        if warm.shape != (n,):
            raise ValueError(f"warm has shape {warm.shape}, expected ({n},)")
        x0 = warm
    else:
        x0 = np.zeros(n)
    res = solve(problem, params, FlowState(x=x0, rho=0.0), stop, config)
    u = res.x[:n // pqp.N].copy()
    return u, res


@dataclass
class ClosedLoopTrace:
    """Recorded closed-loop run: states xi[k] (pre-input), applied
    inputs u[k], and the SolveResult of every step, from which the
    per-step summaries are read."""

    xi: np.ndarray
    u: np.ndarray
    results: list

    @property
    def statuses(self) -> list:
        return [r.status for r in self.results]

    @property
    def psi_finals(self) -> np.ndarray:
        return np.array([r.psi for r in self.results])

    @property
    def g_finals(self) -> np.ndarray:
        return np.array([r.g for r in self.results])

    @property
    def steps(self) -> np.ndarray:
        return np.array([r.accepted_steps for r in self.results], dtype=int)

    @property
    def all_converged(self) -> bool:
        return all(s == "converged" for s in self.statuses)

    def to_csv(self, path) -> None:
        n_xi = self.xi.shape[1]
        n_u = self.u.shape[1]
        header = ("k," + ",".join(f"xi{i}" for i in range(n_xi)) + ","
                  + ",".join(f"u{i}" for i in range(n_u))
                  + ",status,psi_final,g_final,steps")
        lines = [header]
        for k, (xi, u, r) in enumerate(zip(self.xi, self.u, self.results)):
            lines.append(",".join(
                [str(k)] + [fmt(v) for v in xi] + [fmt(v) for v in u]
                + [r.status, fmt(r.psi), fmt(r.g), str(r.accepted_steps)]))
        atomic_write_text(path, "\n".join(lines) + "\n")


def simulate_closed_loop(plant: Plant, pqp: ParametricQp, xi0, steps: int,
                         params: FlowParams, stop: StopCriteria,
                         config: IntegratorConfig) -> ClosedLoopTrace:
    """Run ``steps`` control steps from xi0, warm-starting each solve
    from the previous one. Aborts early (returning the partial trace) if
    a step ends in rhs_failure.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    xi = np.asarray(xi0, dtype=float).copy()
    xis, us, results = [], [], []
    warm = None
    for _ in range(steps):
        u, res = mpc_step(pqp, xi, params, stop, config, warm=warm)
        xis.append(xi.copy())
        us.append(np.asarray(u, dtype=float).copy())
        results.append(res)
        if res.status == "rhs_failure":
            break
        warm = res.x
        xi = plant.A_d @ xi + plant.B_d @ u
    return ClosedLoopTrace(xi=np.asarray(xis), u=np.asarray(us),
                           results=results)


def double_integrator_demo():
    """Built-in demo scenario: a zero-order-hold double integrator with
    sampling period 0.1 under an N = 10 horizon with |u| <= 0.5.

    State weight Q = I, input weight R = 0.1, terminal weight P from the
    discrete algebraic Riccati equation. Returns (plant, pqp, xi0).
    """
    dt = 0.1
    A_d = np.array([[1.0, dt], [0.0, 1.0]])
    B_d = np.array([[0.5 * dt * dt], [dt]])
    plant = Plant(A_d=A_d, B_d=B_d)
    Q = np.eye(2)
    R = np.array([[0.1]])
    P = sla.solve_discrete_are(A_d, B_d, Q, R)
    pqp = condense(plant, N=10, Q=Q, R=R, P=P, u_max=0.5)
    return plant, pqp, np.array([1.0, 0.0])
