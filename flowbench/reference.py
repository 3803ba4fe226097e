"""Reference answers and correctness checks, computed apart from the
program under test.

Nothing here calls into penaltyflow: QP references come from
``scipy.optimize`` on the raw matrices, certified by solving the KKT
system of the active set it finds; the MPC reference builds its own
condensed QP by simulating the plant; the binary reference enumerates
all vertices. Each ``check_*`` function returns None when the answer
passes and a one-line reason when it does not.
"""

from itertools import product

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize

# acceptance criterion 1: cost ratio band, penalty residual, and the
# stationarity bound 1e-3 * (1 + ||Hx + F||)
RATIO_BAND = (0.99, 1.01)
PSI_MAX = 1e-6
STATIONARITY_REL = 1e-3
# psi <= PSI_MAX bounds every violation by sqrt(PSI_MAX), and so every
# |mu_i * c_i| by sqrt(PSI_MAX) * max mu
COMPLEMENTARITY_REL = PSI_MAX ** 0.5
# acceptance criterion 6: box tolerance, per-step deviation from the
# reference (relative to 1 + ||x*||) and the settling radius
BOX_SLACK = 1e-6
STEP_DEV_REL = 1e-2
SETTLE_RADIUS = 1e-2
# relative tolerance on binary objective values
BINARY_TOL = 1e-9

_ACTIVE_TOLS = (1e-9, 1e-7, 1e-5, 1e-3)


def qp_value(H, F, x):
    return 0.5 * float(x @ H @ x) + float(F @ x)


def certify_kkt(H, F, A, B, x_approx):
    """Exact KKT point of min 1/2 x'Hx + F'x s.t. Ax <= B (H > 0) near
    ``x_approx``: guess the active set from x_approx, solve its equality
    KKT system, and accept the first guess whose solution is feasible
    with nonnegative multipliers. For a strictly convex QP that point is
    the unique optimum. Returns (x, mu); raises RuntimeError if no guess
    certifies."""
    n = F.size
    scale = 1.0 + float(np.abs(B).max(initial=0.0))
    for tol in _ACTIVE_TOLS:
        S = np.flatnonzero(A @ x_approx - B >= -tol * scale)
        AS = A[S]
        K = np.block([[H, AS.T], [AS, np.zeros((S.size, S.size))]])
        try:
            sol = sla.solve(K, np.concatenate([-F, B[S]]))
        except sla.LinAlgError:
            continue
        x, mu_S = sol[:n], sol[n:]
        if (mu_S.min(initial=0.0) >= -1e-9 * scale
                and (A @ x - B).max(initial=0.0) <= 1e-9 * scale):
            mu = np.zeros(B.size)
            mu[S] = np.maximum(mu_S, 0.0)
            return x, mu
    raise RuntimeError("no active-set guess passed the KKT certificate")


def qp_reference(H, F, A, B):
    """(x*, f*, mu*) of min 1/2 x'Hx + F'x s.t. Ax <= B, by SLSQP from
    the origin followed by the KKT certificate."""
    res = minimize(lambda x: qp_value(H, F, x), np.zeros(F.size),
                   jac=lambda x: H @ x + F, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda x: B - A @ x,
                                 "jac": lambda x: -A}],
                   options={"ftol": 1e-14, "maxiter": 1000})
    x, mu = certify_kkt(H, F, A, B, res.x)
    return x, qp_value(H, F, x), mu


def box_rows(n, u_max):
    """The box |x_j| <= u_max as rows [I; -I] x <= u_max."""
    return np.vstack([np.eye(n), -np.eye(n)]), np.full(2 * n, float(u_max))


def box_qp_reference(H, F, u_max):
    """(x*, f*, mu*) of min 1/2 x'Hx + F'x s.t. |x_j| <= u_max, by
    L-BFGS-B with bounds followed by the KKT certificate. mu is ordered
    like the rows [I; -I]."""
    res = minimize(lambda x: qp_value(H, F, x), np.zeros(F.size),
                   jac=lambda x: H @ x + F, method="L-BFGS-B",
                   bounds=[(-u_max, u_max)] * F.size,
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10000})
    A, B = box_rows(F.size, u_max)
    x, mu = certify_kkt(H, F, A, B, res.x)
    return x, qp_value(H, F, x), mu


def condensed_mpc_qp(A_d, B_d, Q, R, P, N, xi):
    """Half the N-step MPC cost as 1/2 U'HU + F'U, built by simulating
    the plant's response to each unit input (not by the program's
    condensing). Cost: sum_{k=1..N} xi_k'Q xi_k + sum_k u_k'R u_k +
    xi_N'P xi_N."""
    n_xi, n_u = B_d.shape
    n = N * n_u

    def predict(x0, U):
        states, x = [], x0
        for k in range(N):
            x = A_d @ x + B_d @ U[k * n_u:(k + 1) * n_u]
            states.append(x)
        return np.concatenate(states)

    T_xi = predict(np.asarray(xi, dtype=float), np.zeros(n))
    S = np.column_stack([predict(np.zeros(n_xi), e) for e in np.eye(n)])
    W = sla.block_diag(*([Q] * (N - 1) + [Q + P]))
    H = sla.block_diag(*([R] * N)) + S.T @ W @ S
    return 0.5 * (H + H.T), S.T @ W @ T_xi


def binary_optimum(H, F):
    """Smallest 1/2 x'Hx + F'x over {0,1}^n by enumeration."""
    return min(qp_value(H, F, np.array(bits))
               for bits in product((0.0, 1.0), repeat=F.size))


def check_qp(H, F, A, B, f_star, status, x, mu):
    """Criterion-1 checks of a flow answer (x, mu), recomputed from the
    raw matrices."""
    if status != "converged":
        return f"status {status}"
    f = qp_value(H, F, x)
    ratio = f / f_star
    if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
        return f"f/f* = {ratio:.6g} outside {RATIO_BAND}"
    c = A @ x - B
    psi = float(np.sum(np.maximum(c, 0.0) ** 2))
    if psi > PSI_MAX:
        return f"psi = {psi:.3g} > {PSI_MAX:g}"
    if mu.min(initial=0.0) < 0.0:
        return f"negative multiplier {mu.min():.3g}"
    comp = float(np.max(np.abs(mu * c), initial=0.0))
    if comp > COMPLEMENTARITY_REL * max(1.0, float(mu.max(initial=0.0))):
        return f"complementarity {comp:.3g} above its bound"
    grad = H @ x + F
    stat = float(np.linalg.norm(grad + A.T @ mu))
    if stat > STATIONARITY_REL * (1.0 + float(np.linalg.norm(grad))):
        return f"stationarity {stat:.3g} above its bound"
    return None


def check_mpc_step(x_star, u_max, status, u, x):
    """Criterion-6 checks of one control step: converged, input inside
    the box, and the solution (hence the applied input) next to the
    reference."""
    if status != "converged":
        return f"status {status}"
    u_abs = float(np.abs(u).max())
    if u_abs > u_max + BOX_SLACK:
        return f"|u| = {u_abs:.9g} > u_max + {BOX_SLACK:g}"
    bound = STEP_DEV_REL * (1.0 + float(np.linalg.norm(x_star)))
    dev = float(np.linalg.norm(x - x_star))
    if dev > bound:
        return f"|x - x*| = {dev:.3g} > {bound:.3g}"
    du = float(np.abs(u - x_star[:u.size]).max())
    if du > bound:
        return f"|u - u*| = {du:.3g} > {bound:.3g}"
    return None


def check_settled(xi_final):
    norm = float(np.linalg.norm(xi_final))
    if norm > SETTLE_RADIUS:
        return f"plant not settled: |xi| = {norm:.3g} > {SETTLE_RADIUS:g}"
    return None


def check_binary(H, F, f_opt, best_x, best_f):
    """The best vertex must be binary, attain the enumerated optimum and
    carry its own objective value."""
    if best_x is None:
        return "no feasible vertex found"
    if not np.all((best_x == 0.0) | (best_x == 1.0)):
        return f"best point {best_x} is not a vertex"
    tol = BINARY_TOL * max(1.0, abs(f_opt))
    f = qp_value(H, F, best_x)
    if abs(f - best_f) > tol:
        return f"reported f {best_f!r} differs from f(best_x) = {f!r}"
    if f > f_opt + tol:
        return f"gap {f - f_opt:.6g} to the enumerated optimum"
    return None
