"""Differentiable inequality-constrained problems and the exact-penalty
machinery built on them: ``evaluate(problem, x)``, the one checked call
of a problem's f_x, c and c_x; the penalty weights, which are also the
multipliers; ``measure_state(problem, x, rho, params)``, which reads the
penalty psi, the gradient norm g, the objective f and the constraint
values of a state off one pass, ``_terms``, that the flow's right-hand
side shares; and the KKT residuals of a primal/dual pair,
``kkt_residuals`` (``KktReport``).

Constraint convention throughout the package: every constraint is stored
as c_i(x) <= 0. Builders that accept other forms (Ax <= B, bounds) must
convert at construction time.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EvaluationError

__all__ = [
    "Problem", "PenaltyConfig", "evaluate", "measure_state", "KktReport",
    "kkt_residuals", "check_gradients", "GradCheckReport",
]


@dataclass(frozen=True)
class Problem:
    """Evaluator bundle for min f(x) subject to c_i(x) <= 0.

    Parameters
    ----------
    n : int
        Dimension of the decision vector.
    n_c : int
        Number of inequality constraints.
    f, f_x : callable
        Objective value and gradient, f(x) -> float, f_x(x) -> (n,).
    c, c_x : callable
        Constraint values and Jacobian, c(x) -> (n_c,), c_x(x) -> (n_c, n).
        For n_c = 0 both must return empty arrays of the right shape.
    hess : callable, optional
        Hessian of the Lagrangian, hess(x, w) -> (n, n), the matrix
        nabla^2 f(x) + sum_i w_i nabla^2 c_i(x) for weights w of length
        n_c. The stepper always gets the flow Jacobian; when the hook is
        absent, that Jacobian takes this matrix from central differences
        of the Lagrangian gradient f_x + w'c_x, at 2n calls each of f_x
        and c_x per Jacobian.

    Evaluators must be total on R^n (finite output for finite input) and
    are treated as read-only; nothing here mutates the problem.
    """

    n: int
    n_c: int
    f: callable
    f_x: callable
    c: callable
    c_x: callable
    hess: Optional[callable] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n_c < 0:
            raise ValueError("n_c must be >= 0")


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty exponent m for psi(x) = sum_i max(0, c_i(x))^m.

    m = 1 is allowed but makes the penalty gradient discontinuous at
    c_i = 0; the default m = 2 gives a C^1 penalty.
    """

    m: int = 2

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("penalty exponent m must be >= 1")


def _finite(arr) -> bool:
    """True when every entry of ``arr`` is finite. One reduction on the
    common path: the sum of squares, which has no +inf - inf to turn
    into NaN with a RuntimeWarning; a sum that overflows from finite
    entries falls back to the entrywise test."""
    return (math.isfinite(np.vdot(arr, arr))
            or bool(np.isfinite(arr).all()))


def penalty_weights(cvals, rho, m):
    """Per-constraint gradient weights rho * m * max(0, c_i)^(m-1).

    This is the single shared source for both the weighted-cost gradient
    and the KKT multipliers, so the stationarity residual built from the
    multipliers reproduces g bitwise. The multipliers of a flow's final
    state are these weights, with no refit or re-solve: as psi -> 0 and
    rho -> infinity they converge to mu*.

    For m = 1 the weight at c_i = 0 exactly is taken as 0 (the one-sided
    limit from the feasible side), which keeps the choice deterministic.
    """
    cvals = np.asarray(cvals, dtype=float)
    if m == 1:
        return rho * (cvals > 0.0).astype(float)
    cp = np.maximum(cvals, 0.0)
    return (rho * m) * cp ** (m - 1)


def _penalty(cvals, m) -> float:
    return float((np.maximum(cvals, 0.0) ** m).sum())


def _norm(v) -> float:
    # what np.linalg.norm computes for a 1-D float vector, without its
    # dispatch overhead
    return math.sqrt(v.dot(v))


def evaluate(problem: Problem, x):
    """(f_x, c, c_x) at x: one call of each evaluator, all finite.

    The solver reads a problem's derivatives and constraints through
    this call: the flow, its Jacobian, the stop test and the
    multipliers with their KKT residuals. Only the differenced Hessian
    of a problem without a hook calls f_x and c_x directly, and the
    flow Jacobian refuses it when it is not finite. A non-finite
    gradient raises EvaluationError(None); a non-finite constraint
    value or constraint-Jacobian row raises EvaluationError naming the
    first such constraint. For n_c = 0, c and c_x are not called and
    come back empty.
    """
    grad = np.asarray(problem.f_x(x), dtype=float)
    if not _finite(grad):
        raise EvaluationError(None)
    if problem.n_c == 0:
        return grad, np.zeros(0), np.zeros((0, problem.n))
    cvals = np.asarray(problem.c(x), dtype=float)
    if not _finite(cvals):
        raise EvaluationError(int(np.flatnonzero(~np.isfinite(cvals))[0]))
    jac = np.asarray(problem.c_x(x), dtype=float)
    if not _finite(jac):
        rows = np.isfinite(jac).all(axis=1)
        raise EvaluationError(int(np.flatnonzero(~rows)[0]),
                              "constraint Jacobian")
    return grad, cvals, jac


def _terms(problem: Problem, x, rho: float, m: int):
    """(fbar_x, g, psi, c) at (x, rho) from one ``evaluate``: the
    weighted-cost gradient f_x + w'c_x with the penalty weights w of
    exponent m, its norm, the penalty and the constraint values. An
    overflowing g reads inf; each caller reports it in its own terms."""
    grad, cvals, jac = evaluate(problem, x)
    fbar_x = grad + penalty_weights(cvals, rho, m) @ jac
    return fbar_x, _norm(fbar_x), _penalty(cvals, m), cvals


def measure_state(problem: Problem, x, rho: float, params):
    """(psi, g, f, c) at (x, rho) from one evaluation of f, f_x, c and
    c_x, with m the penalty exponent of the FlowParams ``params``: the
    penalty psi = sum_i max(0, c_i)^m, zero iff x is feasible; the norm g
    of the weighted-cost gradient

        fbar_x = f_x + rho * m * sum_i max(0, c_i)^(m-1) * dc_i/dx;

    the objective f; and the constraint values c(x), off which the
    multipliers and KKT residuals of a final state are read. The
    weighted cost itself is f + rho * psi. A non-finite f raises
    EvaluationError(None), and so does a g that overflows."""
    with np.errstate(over="ignore"):
        _, g, psi, cvals = _terms(problem, x, rho, params.m)
    f = float(problem.f(x))
    if not math.isfinite(f):
        raise EvaluationError(None)
    if not math.isfinite(g):
        raise EvaluationError(None, "gradient norm")
    return psi, g, f, cvals


@dataclass(frozen=True)
class KktReport:
    """First-order residuals at a primal/dual pair.

    stationarity is a 2-norm; the other three are max-norms (they are
    per-constraint certificates). All four are >= 0, and
    dual_infeasibility is 0 by construction for penalty-weight
    multipliers.
    """

    stationarity: float
    primal_infeasibility: float
    dual_infeasibility: float
    complementarity: float


def kkt_residuals(problem: Problem, x, mu) -> KktReport:
    """Evaluate the four KKT residuals at (x, mu), for a pair that is
    not a flow's final state, such as an oracle's multipliers at the
    flow's x.

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


@dataclass(frozen=True)
class GradCheckReport:
    """Worst relative deviations between analytic and central-difference
    derivatives; relative error is ||a - fd|| / max(1, ||fd||).
    hess_error is 0 for a problem without a Hessian hook. worst is NaN
    when any deviation is."""

    f_x_error: float
    c_x_error: float
    hess_error: float = 0.0
    worst: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "worst", float(np.max(
            [self.f_x_error, self.c_x_error, self.hess_error])))


def _central_diff(fun, x, step):
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        cols.append((np.asarray(fun(x + e), dtype=float)
                     - np.asarray(fun(x - e), dtype=float)) / (2.0 * step))
    return np.stack(cols, axis=-1)


def _lagrangian_grad(problem: Problem, w):
    """The gradient z -> f_x(z) + w'c_x(z) of the Lagrangian at fixed
    weights w, whose Jacobian is hess(z, w)."""
    def grad(z):
        return (np.asarray(problem.f_x(z), dtype=float)
                + w @ np.asarray(problem.c_x(z), dtype=float))
    return grad


def _rel_error(analytic, fd) -> float:
    # an overflowing deviation reads NaN or inf, which the report carries
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(np.asarray(analytic, dtype=float) - fd)
                     / max(1.0, float(np.linalg.norm(fd))))


def check_gradients(problem: Problem, x, step: float) -> GradCheckReport:
    """Compare f_x, the constraint Jacobian and, when the problem has
    one, the Hessian hook against central differences.

    The Hessian is checked as hess(x, w) against the differences of
    f_x + w'c_x, with the fixed distinct weights w_i = 1 + i / n_c so
    that every constraint's curvature counts. Informational only; never
    raises on a bad derivative, the report is the diagnostic. ``step``
    must be finite and positive.
    """
    # written so that NaN fails
    if not 0.0 < step < math.inf:
        raise ValueError("step must be finite and > 0")
    x = np.asarray(x, dtype=float)

    err_f = _rel_error(problem.f_x(x), _central_diff(problem.f, x, step))
    err_c = 0.0
    if problem.n_c:
        err_c = _rel_error(problem.c_x(x),
                           _central_diff(problem.c, x, step))
    err_h = 0.0
    if problem.hess is not None:
        w = 1.0 + np.arange(problem.n_c) / max(1, problem.n_c)
        err_h = _rel_error(problem.hess(x, w),
                           _central_diff(_lagrangian_grad(problem, w), x,
                                         step))
    return GradCheckReport(f_x_error=err_f, c_x_error=err_c,
                           hess_error=err_h)
