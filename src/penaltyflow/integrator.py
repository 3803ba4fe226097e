"""Flow integration with event-based stopping, trajectory sampling, and a
cost-monotonicity monitor, wrapped into the top-level ``solve``.

The flow is stepped by scipy's BDF, a variable-order implicit multistep
method, driven one accepted step at a time. The penalty Hessian scale
grows like rho along the flow, so reaching the asymptotic regime (psi
below 1e-8 at gamma = 1e-6 means flow times beyond 1e15) is only
practical for a stiff method whose steps grow geometrically. When the
problem has a Hessian hook the stepper gets the exact flow Jacobian;
otherwise it estimates the Jacobian by finite differences of the
right-hand side. If the stepper stalls it is rebuilt from the last
accepted state; rebuilds that make no forward progress terminate the
run.

The integrand state is packed as y = [x_0 .. x_{n-1}, rho].
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import BDF

from .errors import EvaluationError, FactorOverflowError
from .flow import FlowParams, FlowState, flow_jacobian, flow_rhs
from .kkt import KktReport, extract_multipliers, kkt_residuals
from .problem import Problem, measure_state
from .fileio import atomic_write_text, fmt

__all__ = [
    "StopCriteria", "IntegratorConfig", "SolveResult", "integrate",
    "solve", "trajectory_header", "save_trajectory",
]

STATUSES = ("converged", "t_max_reached", "rho_max_reached",
            "step_budget_exhausted", "rhs_failure")

# pathological stepper-stall ceiling; each restart must advance t
_MAX_RESTARTS = 100

_GAMMA_WARNING_STREAK = 50


@dataclass(frozen=True)
class StopCriteria:
    """Finite-horizon surrogates for the flow's asymptotic convergence.

    The flow converges only as t -> infinity; a run is declared
    converged once psi <= eps_psi and g <= eps_g simultaneously.
    t_max is flow time (dimensionless), not wall-clock. The default is
    large because the asymptotic regime at gamma = 1e-6 lives at flow
    times around 1e15 and beyond; the stiff stepper covers such horizons
    in a few hundred steps.
    """

    eps_psi: float = 1e-8
    eps_g: float = 1e-4
    t_max: float = 1e24
    rho_max: float = 1e9
    max_steps: int = 5_000_000

    def __post_init__(self):
        if min(self.eps_psi, self.eps_g, self.t_max, self.rho_max) <= 0.0:
            raise ValueError("all stop thresholds must be > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class IntegratorConfig:
    """Local-error tolerances, first and largest step sizes, and
    trajectory decimation."""

    rtol: float = 1e-6
    atol: float = 1e-9
    h_init: float = 1e-6
    h_max: float = math.inf
    sample_stride: int = 10

    def __post_init__(self):
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("rtol and atol must be > 0")
        if not (0.0 < self.h_init <= self.h_max):
            raise ValueError("need 0 < h_init <= h_max")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


@dataclass
class SolveResult:
    """Final state, sampled trajectory, step statistics, and (after
    ``solve``) multipliers with KKT residuals.

    trajectory rows are [t, rho, psi, g, f, fbar, x_0 .. x_{n-1}],
    decimated to every sample_stride-th accepted step plus the initial
    and final states. status = "converged" guarantees psi_final <=
    eps_psi and g_final <= eps_g. restarts counts the rebuilds of a
    stalled stepper.
    """

    status: str
    x: np.ndarray
    rho: float
    t: float
    psi: float
    g: float
    f: float
    fbar: float
    trajectory: np.ndarray
    accepted_steps: int
    restarts: int = 0
    warnings: list = field(default_factory=list)
    mu: Optional[np.ndarray] = None
    kkt: Optional[KktReport] = None


def trajectory_header(n: int) -> str:
    return "t,rho,psi,g,f,fbar," + ",".join(f"x{i}" for i in range(n))


def save_trajectory(result: SolveResult, path) -> None:
    """Write the sampled trajectory as CSV, 17 significant digits
    (decimal round-trip exact), atomically."""
    n = result.x.size
    lines = [trajectory_header(n)]
    for row in result.trajectory:
        lines.append(",".join(fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# integration loop
# ----------------------------------------------------------------------

class _Recorder:
    """Accumulates decimated trajectory rows and the monitor state."""

    def __init__(self, problem, params, config):
        self.problem = problem
        self.params = params
        self.cfg = params.cfg
        self.config = config
        self.rows = []
        self.accepted = 0
        self.warnings = []
        self._streak = 0
        self._gamma_warned = False
        self._last_sampled = -1
        self.fbar_prev = None

    def measure(self, t, y):
        x, rho = y[:-1], float(y[-1])
        psi, g, f = measure_state(self.problem, x, rho, self.cfg)
        return x, rho, psi, g, f, f + rho * psi

    def record(self, t, x, rho, psi, g, f, fbar, force=False):
        # force bypasses the stride, never the one-row-per-step guard
        if force or self.accepted % self.config.sample_stride == 0:
            if self._last_sampled != self.accepted:
                self.rows.append([t, rho, psi, g, f, fbar, *x])
                self._last_sampled = self.accepted

    def monitor(self, fbar):
        # advisory only: a sustained climb is expected whenever the
        # constrained optimum value lies above the start value, so the
        # warning flags gamma for review rather than declaring it wrong
        if self.fbar_prev is not None:
            slack = 10.0 * (self.config.atol
                            + self.config.rtol * abs(self.fbar_prev))
            if fbar > self.fbar_prev + slack:
                self._streak += 1
            else:
                self._streak = 0
            if self._streak >= _GAMMA_WARNING_STREAK and not self._gamma_warned:
                self._gamma_warned = True
                self.warnings.append(
                    "gamma-too-large: weighted cost increased over "
                    f"{_GAMMA_WARNING_STREAK} consecutive accepted steps; "
                    f"gamma = {self.params.gamma:g} may exceed the "
                    "sufficient-descent bound for this problem")
        self.fbar_prev = fbar


def _guarded(problem, params):
    """Flow RHS and, when the problem has a Hessian hook, the exact flow
    Jacobian over packed y, sharing one failure flag. An evaluator
    failure in either sets the flag and poisons the output with NaN, so
    the stepper fails softly; once the flag is set every later call of
    either returns NaN. Returns (rhs, jac or None, failure)."""
    failure = {"exc": None}
    k = problem.n + 1

    def guard(fn, shape):
        def call(t, y):
            if failure["exc"] is None:
                try:
                    return fn(FlowState(x=y[:-1], rho=float(y[-1]), t=t))
                except (EvaluationError, FactorOverflowError) as exc:
                    failure["exc"] = exc
            return np.full(shape, np.nan)
        return call

    def rhs(state):
        dx, drho = flow_rhs(problem, state, params)
        return np.concatenate([dx, [drho]])

    def jac(state):
        return flow_jacobian(problem, state, params)

    if problem.hess is None:
        return guard(rhs, k), None, failure
    return guard(rhs, k), guard(jac, (k, k)), failure


def integrate(problem: Problem, params: FlowParams, state0: FlowState,
              stop: StopCriteria, config: IntegratorConfig) -> SolveResult:
    """Integrate the flow from ``state0`` until a stop criterion fires.

    Convergence (psi <= eps_psi and g <= eps_g) is checked after every
    accepted step; trajectory samples are retained every sample_stride
    accepted steps plus the initial and final states. Evaluator and
    overflow failures surface as status "rhs_failure" with the detail in
    ``warnings``; any other exception raised by an evaluator propagates.
    """
    if state0.rho < 0.0:
        raise ValueError("initial rho must be >= 0")
    y = np.concatenate([np.asarray(state0.x, dtype=float),
                        [float(state0.rho)]])
    t = float(state0.t)

    rec = _Recorder(problem, params, config)
    rhs, jac, failure = _guarded(problem, params)

    # initial sample and immediate convergence check
    try:
        x, rho, psi, g, f, fbar = rec.measure(t, y)
    except (EvaluationError, FactorOverflowError) as exc:
        rec.warnings.append(f"rhs failure at t={t:g}: {exc}")
        return SolveResult(
            status="rhs_failure", x=np.asarray(state0.x, float).copy(),
            rho=float(state0.rho), t=t, psi=math.nan, g=math.nan,
            f=math.nan, fbar=math.nan, trajectory=np.zeros((0, y.size + 5)),
            accepted_steps=0, warnings=list(rec.warnings))
    rec.record(t, x, rho, psi, g, f, fbar, force=True)
    rec.monitor(fbar)
    status = ("converged" if psi <= stop.eps_psi and g <= stop.eps_g
              else None)

    restarts = 0
    t_anchor = t
    while status is None:
        stepper = BDF(rhs, t, y, t_bound=stop.t_max, jac=jac,
                      rtol=config.rtol, atol=config.atol,
                      max_step=config.h_max, first_step=config.h_init)
        while status is None and stepper.status == "running":
            try:
                stepper.step()
            except Exception:
                # the NaN output of a flagged RHS can make scipy raise;
                # any other raise is a fault in the evaluators
                if failure["exc"] is None:
                    raise
            if failure["exc"] is not None:
                rec.warnings.append(
                    f"rhs failure at t={stepper.t:g}: {failure['exc']}")
                status = "rhs_failure"
            elif stepper.status != "failed":
                try:
                    x, rho, psi, g, f, fbar = rec.measure(stepper.t,
                                                          stepper.y)
                except (EvaluationError, FactorOverflowError) as exc:
                    # the result keeps the last state that measured
                    rec.warnings.append(
                        f"rhs failure at t={stepper.t:g}: {exc}")
                    status = "rhs_failure"
                    break
                t, y = stepper.t, stepper.y
                rec.accepted += 1
                rec.record(t, x, rho, psi, g, f, fbar)
                rec.monitor(fbar)
                if psi <= stop.eps_psi and g <= stop.eps_g:
                    status = "converged"
                elif rho > stop.rho_max:
                    status = "rho_max_reached"
                elif rec.accepted >= stop.max_steps:
                    status = "step_budget_exhausted"
        if status is not None:
            break
        if stepper.status == "finished":
            status = "t_max_reached"
            break
        # stepper stalled: rebuild from the last accepted state, but only
        # while rebuilds keep advancing t
        restarts += 1
        if restarts > _MAX_RESTARTS or (t <= t_anchor and restarts > 1):
            rec.warnings.append(
                f"stiff stepper failed at t={t:g} after {restarts} restarts")
            status = "rhs_failure"
        t_anchor = t

    # (x, rho, psi, g, f, fbar) still hold the measurement of (t, y)
    rec.record(t, x, rho, psi, g, f, fbar, force=True)
    return SolveResult(
        status=status, x=x.copy(), rho=rho, t=t, psi=psi, g=g, f=f,
        fbar=fbar, trajectory=np.array(rec.rows, dtype=float),
        accepted_steps=rec.accepted, restarts=restarts,
        warnings=list(rec.warnings))


def solve(problem: Problem, params: FlowParams, state0: FlowState,
          stop: StopCriteria, config: IntegratorConfig) -> SolveResult:
    """integrate, then attach multipliers and KKT residuals at the final
    state. The termination status is unchanged."""
    result = integrate(problem, params, state0, stop, config)
    mu = extract_multipliers(problem, result.x, result.rho, params.cfg)
    result.mu = mu
    result.kkt = kkt_residuals(problem, result.x, mu)
    return result
