"""KKT multiplier recovery from an asymptotic flow state and the four
first-order residuals.

The multipliers are read directly off the penalty gradient at the finite
stopping state: mu_i = rho * m * max(0, c_i)^(m-1). No refit or re-solve
is performed; as the flow drives psi -> 0 with rho -> infinity the
product converges to the true multiplier.
"""

from dataclasses import dataclass

import numpy as np

from .flow import FlowParams
from .problem import Problem, _norm, evaluate, penalty_weights

__all__ = ["KktReport", "extract_multipliers", "kkt_residuals"]


@dataclass(frozen=True)
class KktReport:
    """First-order residuals at a primal/dual pair.

    stationarity is a 2-norm; the other three are max-norms (they are
    per-constraint certificates). All four are >= 0, and
    dual_infeasibility is 0 by construction for extracted multipliers.
    """

    stationarity: float
    primal_infeasibility: float
    dual_infeasibility: float
    complementarity: float


def extract_multipliers(problem: Problem, x, rho: float,
                        params: FlowParams):
    """Recover multipliers mu_i = rho * m * max(0, c_i(x))^(m-1), with m
    the penalty exponent of ``params``.

    Inactive constraints (c_i < 0) get mu_i = 0; the output is always
    dual feasible. Shares its arithmetic with the weighted-cost gradient,
    so stationarity evaluated with these multipliers reproduces the g of
    measure_state(problem, x, rho, params) bitwise. A non-finite
    evaluator output at x raises EvaluationError.
    """
    _, cvals, _ = evaluate(problem, x)
    return penalty_weights(cvals, rho, params.m)


def kkt_residuals(problem: Problem, x, mu) -> KktReport:
    """Evaluate the four KKT residuals at (x, mu).

    stationarity        = || f_x + sum_i mu_i dc_i/dx ||_2
    primal_infeasibility = max_i max(0, c_i(x))
    dual_infeasibility   = max_i max(0, -mu_i)
    complementarity      = max_i |mu_i * c_i(x)|

    A non-finite evaluator output at x raises EvaluationError.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (problem.n_c,):
        raise ValueError(
            f"mu has shape {mu.shape}, expected ({problem.n_c},)")
    grad, cvals, jac = evaluate(problem, x)
    return _kkt_report(_norm(grad + mu @ jac), cvals, mu)


def _kkt_report(stationarity, cvals, mu) -> KktReport:
    """The residuals at x from the stationarity norm, the constraint
    values c(x) and the multipliers."""
    return KktReport(
        stationarity=stationarity,
        primal_infeasibility=float(np.max(np.maximum(cvals, 0.0), initial=0.0)),
        dual_infeasibility=float(np.max(np.maximum(-mu, 0.0), initial=0.0)),
        complementarity=float(np.max(np.abs(mu * cvals), initial=0.0)),
    )
