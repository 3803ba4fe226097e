"""Flow integration with event-based stopping and trajectory sampling,
wrapped into the top-level ``solve``.

The flow is stepped by ``bdf.BDF``, the package's port of scipy's
variable-order BDF/NDF method (Shampine & Reichelt, "The MATLAB ODE
Suite", 1997), driven one accepted step at a time. The penalty Hessian
scale grows like rho along the flow, so reaching the asymptotic regime
(psi below 1e-8 at gamma = 1e-6 means flow times beyond 1e15) is only
practical for a stiff method whose steps grow geometrically. The
stepper always gets the flow Jacobian (``flow_jacobian``): exact when
the problem has a Hessian hook, and with its Hessian K differenced
from the Lagrangian gradient when it has none. The first step is 1e-6,
or the rest of the horizon when that is shorter. If the stepper stalls
it is rebuilt from the last accepted state; rebuilds that make no
forward progress terminate the run.

The answer is the asymptotic state, not the path to it: "converged" is
certified at the final state by the stop test (psi <= eps_psi and
g <= eps_g), and the local error along the trajectory does not enter
that certificate. The default relative tolerance is therefore loose
(1e-3); most accepted steps lie in the tail, where the violated set no
longer changes and tighter tracking buys nothing the stop test checks.

The integrand state is packed as y = [x_0 .. x_{n-1}, rho].
"""

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bdf import BDF
from .errors import EvaluationError, FactorOverflowError
from .flow import FlowParams, FlowState, flow_jacobian, flow_rhs
from .kkt import KktReport, extract_multipliers, kkt_residuals
from .problem import Problem, measure_state
from .fileio import atomic_write_text, fmt

__all__ = [
    "StopCriteria", "IntegratorConfig", "SolveResult", "integrate",
    "solve", "trajectory_header", "save_trajectory",
]

# pathological stepper-stall ceiling; each restart must advance t
_MAX_RESTARTS = 100

# first BDF step size, cut to the remaining horizon; the stepper grows it
# geometrically from here
_FIRST_STEP = 1e-6

# the trajectory keeps every this-many-th accepted step
_SAMPLE_STRIDE = 10

# below this the local error test asks for less than round-off, and the
# Newton tolerance of the stepper would sit at round-off level
_RTOL_MIN = 100 * sys.float_info.epsilon


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
        # written so that NaN fails; t_max and rho_max may be inf
        if not all(v > 0.0 for v in (self.eps_psi, self.eps_g, self.t_max,
                                     self.rho_max)):
            raise ValueError("all stop thresholds must be > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class IntegratorConfig:
    """Local-error tolerances of the BDF stepper.

    They steer the step size only. Whether a run converged is decided at
    its final state by ``StopCriteria`` (psi <= eps_psi and
    g <= eps_g), which no tolerance setting relaxes, so rtol is sized to
    the stop test rather than to the trajectory. A looser rtol can keep
    a run from ever meeting the stop test: at 1e-2, 38 of the 50 QPs of
    the seeded benchmark end unconverged. atol stays tight: at 1e-6 the
    final x and the multipliers read off it are 30-100 times further
    from the reference on that benchmark, and one of its solves fails.
    """

    rtol: float = 1e-3
    atol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.rtol < math.inf and 0.0 < self.atol < math.inf):
            raise ValueError("rtol and atol must be finite and > 0")
        if self.rtol < _RTOL_MIN:
            raise ValueError(f"rtol must be >= 100 * machine epsilon = "
                             f"{_RTOL_MIN:g}, got {self.rtol:g}")


@dataclass
class SolveResult:
    """Final state, sampled trajectory, step statistics, and (after
    ``solve``) multipliers with KKT residuals.

    trajectory rows are [t, rho, psi, g, f, fbar, x_0 .. x_{n-1}],
    decimated to every 10th accepted step plus the initial and final
    states. status = "converged" guarantees psi_final <= eps_psi and
    g_final <= eps_g. restarts counts the rebuilds of a stalled stepper.
    warnings holds the detail of a failure and is empty otherwise.
    """

    status: str
    x: np.ndarray
    rho: float
    t: float
    psi: float
    g: float
    f: float
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

def _guarded(problem, params):
    """Flow RHS and flow Jacobian over packed y, sharing one failure
    flag. An evaluator failure in either sets the flag and poisons the
    output with NaN, so the stepper fails softly; once the flag is set
    every later call of either returns NaN. Returns (rhs, jac,
    failure)."""
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

    return guard(rhs, k), guard(jac, (k, k)), failure


def integrate(problem: Problem, params: FlowParams, state0: FlowState,
              stop: StopCriteria, config: IntegratorConfig) -> SolveResult:
    """Integrate the flow from ``state0`` until a stop criterion fires.

    Convergence (psi <= eps_psi and g <= eps_g) is checked after every
    accepted step; trajectory samples are retained every 10th accepted
    step plus the initial and final states. Evaluator and overflow
    failures surface as status "rhs_failure" with the detail in
    ``warnings``; any other exception raised by an evaluator propagates.
    The flow runs forward in time only: a start past ``stop.t_max`` is
    refused with ValueError, and a start at it ends in "t_max_reached".
    """
    # written so that NaN fails
    if not 0.0 <= state0.rho < math.inf:
        raise ValueError(f"initial rho must be finite and >= 0, "
                         f"got {state0.rho}")
    if not math.isfinite(state0.t):
        raise ValueError(f"initial t must be finite, got {state0.t}")
    if state0.t > stop.t_max:
        raise ValueError(f"initial t = {state0.t} is past t_max = "
                         f"{stop.t_max}")
    x0 = np.asarray(state0.x, dtype=float)
    if x0.shape != (problem.n,):
        raise ValueError(f"initial x has shape {x0.shape}, "
                         f"expected ({problem.n},)")
    y = np.concatenate([x0, [float(state0.rho)]])
    t = float(state0.t)
    cfg = params.cfg
    rhs, jac, failure = _guarded(problem, params)

    def measure(t, y):
        """The trajectory row [t, rho, psi, g, f, fbar, *x] of (t, y)."""
        x, rho = y[:-1], float(y[-1])
        psi, g, f = measure_state(problem, x, rho, cfg)
        return [t, rho, psi, g, f, f + rho * psi, *x]

    def done(row):
        return row[2] <= stop.eps_psi and row[3] <= stop.eps_g

    try:
        row = measure(t, y)
    except (EvaluationError, FactorOverflowError) as exc:
        return SolveResult(
            status="rhs_failure", x=y[:-1].copy(), rho=float(y[-1]), t=t,
            psi=math.nan, g=math.nan, f=math.nan,
            trajectory=np.zeros((0, y.size + 5)), accepted_steps=0,
            warnings=[f"rhs failure at t={t:g}: {exc}"])
    rows = [row]
    accepted = 0
    warnings = []
    if done(row):
        status = "converged"
    elif t == stop.t_max:
        status = "t_max_reached"
    else:
        status = None

    restarts = 0
    t_anchor = t
    while status is None:
        stepper = BDF(rhs, t, y, t_bound=stop.t_max, jac=jac,
                      rtol=config.rtol, atol=config.atol,
                      first_step=min(_FIRST_STEP, stop.t_max - t))
        while status is None and stepper.status == "running":
            try:
                stepper.step()
            except ValueError:
                # the NaN output of a flagged RHS makes the LU refuse it;
                # any other raise is a fault in the evaluators
                if failure["exc"] is None:
                    raise
            if failure["exc"] is not None:
                warnings.append(
                    f"rhs failure at t={stepper.t:g}: {failure['exc']}")
                status = "rhs_failure"
            elif stepper.status != "failed":
                try:
                    row = measure(stepper.t, stepper.y)
                except (EvaluationError, FactorOverflowError) as exc:
                    # the result keeps the last state that measured
                    warnings.append(f"rhs failure at t={stepper.t:g}: {exc}")
                    status = "rhs_failure"
                    break
                t, y = stepper.t, stepper.y
                accepted += 1
                if accepted % _SAMPLE_STRIDE == 0:
                    rows.append(row)
                if done(row):
                    status = "converged"
                elif row[1] > stop.rho_max:
                    status = "rho_max_reached"
                elif accepted >= stop.max_steps:
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
            warnings.append(
                f"stiff stepper failed at t={t:g} after {restarts} restarts")
            status = "rhs_failure"
        t_anchor = t

    # row is the measurement of (t, y), already kept if it was sampled
    if rows[-1] is not row:
        rows.append(row)
    _, rho, psi, g, f = row[:5]
    return SolveResult(
        status=status, x=y[:-1].copy(), rho=rho, t=t, psi=psi, g=g, f=f,
        trajectory=np.array(rows, dtype=float), accepted_steps=accepted,
        restarts=restarts, warnings=warnings)


def solve(problem: Problem, params: FlowParams, state0: FlowState,
          stop: StopCriteria, config: IntegratorConfig) -> SolveResult:
    """integrate, then attach multipliers and KKT residuals at the final
    state. The termination status is unchanged. When not even the start
    state could be evaluated there is no final state, and mu and kkt
    stay None."""
    result = integrate(problem, params, state0, stop, config)
    if len(result.trajectory):
        result.mu = extract_multipliers(problem, result.x, result.rho,
                                        params.cfg)
        result.kkt = kkt_residuals(problem, result.x, result.mu)
    return result
