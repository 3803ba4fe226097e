"""Right-hand sides of the coupled (x, rho) flows, their Jacobian, the
truncated-series and exponential scaling factors, and the dfbar/dt
identity.

Both flows share the structure

    dx/dt   = -factor(g) * fbar_x(x, rho)
    drho/dt = gamma * psi(x)

and differ only in the scalar factor applied to the gradient. They are
one ODE in the packed state y = [x_0 .. x_{n-1}, rho], the vector the
stepper integrates: ``flow_rhs(problem, y, params)`` returns
dy/dt = [dx, drho], ``flow_jacobian(problem, y, params)`` its
(n+1, n+1) Jacobian, and ``fbar_dot_identity(problem, y, params)`` takes
the same y. The paper's sufficient descent condition bounds gamma by

    gamma_max = [ min_{i=1..n_psi} (lam*k_c)^i / (2 alpha_i lam (i-1)!) ]^2

with k_c and the growth coefficients alpha_i hypotheses that no
problem data determines; the solver neither computes nor enforces it.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, FactorOverflowError
from .problem import (PenaltyConfig, _central_diff, _finite,
                      _lagrangian_grad, _norm, _terms, evaluate,
                      penalty_weights)

__all__ = [
    "FlowParams", "FlowState", "series_factor", "exp_factor", "flow_rhs",
    "flow_jacobian", "fbar_dot_identity",
]

MODES = ("truncated", "exponential")

# exp(x) overflows double precision just above x = 709; the guard fires a
# little earlier so the error names the magnitude instead of returning inf
_EXP_ARG_MAX = 700.0

# central-difference step of a Hessian without a hook, relative to
# max(1, |x|_inf): it balances truncation (h^2) against round-off (eps/h)
_HESS_STEP = np.finfo(float).eps ** (1.0 / 3.0)


@dataclass(frozen=True)
class FlowParams:
    """Flow configuration: gradient scaling lambda, penalty growth rate
    gamma, series truncation order q, flow mode, and penalty exponent m.

    mode = "truncated" scales the gradient by the series factor of order
    q, mode = "exponential" by its q -> infinity limit exp(lam * g).
    With q = 1 the series factor is the constant 1, which gives the
    unscaled penalty gradient flow.
    """

    lam: float = 1e-4
    gamma: float = 1e-6
    q: int = 2
    mode: str = "truncated"
    m: int = 2

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError("lam must be finite and > 0")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and > 0")
        if not (isinstance(self.q, numbers.Integral) and self.q >= 1):
            raise ValueError("q must be an integer >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not (isinstance(self.m, numbers.Integral) and self.m >= 1):
            raise ValueError("m must be an integer >= 1")

    @property
    def cfg(self) -> PenaltyConfig:
        return PenaltyConfig(m=self.m)


@dataclass
class FlowState:
    """``solve``'s start state (x, rho); the flow starts at t = 0.

    rho is non-decreasing along any exact trajectory since
    drho/dt = gamma * psi >= 0.
    """

    x: np.ndarray
    rho: float = 0.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)


def series_factor(g: float, lam: float, q: int) -> float:
    """Truncated exponential series sum_{i=1..q} (lam*g)^(i-1) / (i-1)!.

    Equals 1 for q = 1 or g = 0 and is non-decreasing in g, lam, and q.
    Raises FactorOverflowError when the accumulation leaves the finite
    range (the caller should rescale lam).
    """
    z = lam * g
    total = 0.0
    term = 1.0
    for i in range(1, q + 1):
        total += term
        term *= z / i
    if not math.isfinite(total):
        raise FactorOverflowError(z)
    return total


def exp_factor(g: float, lam: float) -> float:
    """exp(lam * g), the q -> infinity limit of series_factor."""
    z = lam * g
    if z > _EXP_ARG_MAX:
        raise FactorOverflowError(z)
    return math.exp(z)


def _factor(g, params: FlowParams) -> float:
    if params.mode == "exponential":
        return exp_factor(g, params.lam)
    return series_factor(g, params.lam, params.q)


def _factor_slope(g, params: FlowParams) -> float:
    """d factor / d g: lam * series_{q-1}(lam g), 0 for q = 1, and
    lam * exp(lam g) in the exponential mode."""
    if params.mode == "exponential":
        return params.lam * exp_factor(g, params.lam)
    if params.q == 1:
        return 0.0
    return params.lam * series_factor(g, params.lam, params.q - 1)


def flow_rhs(problem, y, params: FlowParams):
    """The flow right-hand side dy/dt = [dx, drho] at the packed state y.

    dx = -factor * fbar_x and drho = gamma * psi. dx is antiparallel to
    fbar_x whenever the gradient is nonzero (the factor is always
    positive), and drho >= 0 always. Each of f_x, c and c_x is evaluated
    once, and a factor that overflows raises FactorOverflowError.
    """
    fbar_x, g, psi, _ = _terms(problem, y[:-1], float(y[-1]), params.m)
    dy = np.empty(y.size)
    dy[:-1] = -_factor(g, params) * fbar_x
    dy[-1] = params.gamma * psi
    return dy


def flow_jacobian(problem, y, params: FlowParams):
    """Jacobian of the flow y -> [dx, drho] at the packed state y, the
    one the stepper uses.

    With G = fbar_x, A = c_x, w the penalty weights,
    v = m A' max(0, c)^(m-1) = dG/drho and the x-Hessian of the weighted
    cost

        K = hess(x, w) + rho m (m-1) A' diag(max(0, c)^(m-2)) A

    (for m = 2 the diagonal is the indicator c_i > 0, for m = 1 the term
    is absent), the blocks are

        J_xx     = -factor K - (factor' / g) G (K'G)'
        J_xrho   = -factor v - (factor' / g) (G'v) G
        J_rhox   = gamma v'
        J_rhorho = 0

    and the rank-one terms vanish at g = 0. hess(x, w) is the problem's
    hook; without one it is the symmetrized central difference of the
    Lagrangian gradient f_x + w'c_x. Returns an (n+1, n+1) array.
    """
    m, n, x, rho = params.m, problem.n, y[:-1], float(y[-1])
    grad, cvals, jac = evaluate(problem, x)
    w = penalty_weights(cvals, rho, m)
    G = grad + w @ jac
    if problem.hess is None:
        step = _HESS_STEP * max(1.0, float(np.max(np.abs(x))))
        K = _central_diff(_lagrangian_grad(problem, w), x, step)
        K = 0.5 * (K + K.T)
    else:
        K = np.asarray(problem.hess(x, w), dtype=float)
    if not _finite(K):
        raise EvaluationError(None, "Hessian")
    if m > 1:
        # rho m (m-1) max(0, c)^(m-2), with the m = 2 indicator
        K = K + (jac.T * (m * penalty_weights(cvals, rho, m - 1))) @ jac
    v = penalty_weights(cvals, 1.0, m) @ jac
    g = _norm(G)
    factor = _factor(g, params)

    J = np.zeros((n + 1, n + 1))
    J[:n, :n] = -factor * K
    J[:n, n] = -factor * v
    if g > 0.0:
        s = _factor_slope(g, params) / g
        J[:n, :n] -= np.outer(s * G, G @ K)
        J[:n, n] -= (s * float(G @ v)) * G
    J[n, :n] = params.gamma * v
    return J


def fbar_dot_identity(problem, y, params: FlowParams):
    """Time derivative of the weighted cost along the flow at the packed
    state y, two ways.

    Returns (analytic, assembled) where

        analytic  = gamma * psi^2 - factor * g^2
        assembled = <fbar_x, dx> + psi * drho

    with fbar_x and psi from one evaluation at y and [dx, drho] from
    flow_rhs. The closed form follows from the chain rule: the factor
    enters linearly through dx, so the two values agree to roundoff at
    any state.
    """
    fbar_x, g, psi, _ = _terms(problem, y[:-1], float(y[-1]), params.m)
    analytic = params.gamma * psi ** 2 - _factor(g, params) * g ** 2

    dy = flow_rhs(problem, y, params)
    assembled = float(fbar_x @ dy[:-1]) + psi * float(dy[-1])
    return analytic, assembled
