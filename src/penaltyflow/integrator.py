"""``solve``: flow integration with event-based stopping, trajectory
sampling, and the multipliers and KKT residuals read off the final
state.

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

``solve`` steps the packed state y = [x, rho] of ``flow`` through two
closures that look ``flow_rhs(problem, y, params)`` and
``flow_jacobian(problem, y, params)`` up in this module at call time.
"""

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bdf import BDF
from .errors import EvaluationError, FactorOverflowError
from .flow import FlowParams, FlowState, flow_jacobian, flow_rhs
from .kkt import KktReport, _kkt_report
from .problem import Problem, measure_state, penalty_weights
from .fileio import atomic_write_text, fmt

__all__ = [
    "StopCriteria", "IntegratorConfig", "SolveResult", "solve",
    "trajectory_header", "save_trajectory",
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
        if not (isinstance(self.max_steps, numbers.Integral)
                and self.max_steps >= 1):
            raise ValueError("max_steps must be an integer >= 1")


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
    """Final state, sampled trajectory, step statistics, and the
    multipliers with KKT residuals read off the final state.

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

def solve(problem: Problem, params: FlowParams, state0: FlowState,
          stop: StopCriteria, config: IntegratorConfig) -> SolveResult:
    """Integrate the flow from ``state0`` at t = 0 until a stop criterion
    fires, and read the multipliers and KKT residuals off the final state.

    The stop criteria are checked at the start state and after every
    accepted step, so a start that meets one ends there without a step;
    trajectory samples are retained every 10th accepted step plus the
    initial and final states. Evaluator and overflow failures surface as
    status "rhs_failure" with the detail in ``warnings``, and the result
    keeps the last state that was measured; any other exception raised
    by an evaluator propagates.

    mu and kkt come from the evaluation that measured the final state.
    When not even the start state could be evaluated there is no final
    state, and they stay None.
    """
    # written so that NaN fails
    if not 0.0 <= state0.rho < math.inf:
        raise ValueError(f"initial rho must be finite and >= 0, "
                         f"got {state0.rho}")
    x0 = np.asarray(state0.x, dtype=float)
    if x0.shape != (problem.n,):
        raise ValueError(f"initial x has shape {x0.shape}, "
                         f"expected ({problem.n},)")
    y = np.concatenate([x0, [float(state0.rho)]])
    t = 0.0

    def rhs(t, y):
        return flow_rhs(problem, y, params)

    def jac(t, y):
        return flow_jacobian(problem, y, params)

    def measure(t, y):
        """The trajectory row [t, rho, psi, g, f, fbar, *x] of (t, y) and
        the constraint values at x."""
        x, rho = y[:-1], float(y[-1])
        psi, g, f, cvals = measure_state(problem, x, rho, params)
        return [t, rho, psi, g, f, f + rho * psi, *x], cvals

    rows, warnings = [], []
    accepted = restarts = 0
    status = stepper = None
    t_anchor = t
    try:
        row, cvals = measure(t, y)
        rows.append(row)
        # a Newton update whose norm overflows reads inf: the iteration
        # counts it as divergence, or the next RHS call fails with a
        # typed error, so numpy's overflow warning adds nothing
        with np.errstate(over="ignore"):
            while True:
                if row[2] <= stop.eps_psi and row[3] <= stop.eps_g:
                    status = "converged"
                elif row[1] > stop.rho_max:
                    status = "rho_max_reached"
                elif accepted >= stop.max_steps:
                    status = "step_budget_exhausted"
                elif t == stop.t_max:
                    status = "t_max_reached"
                if status is not None:
                    break
                if stepper is None:
                    stepper = BDF(rhs, t, y, t_bound=stop.t_max, jac=jac,
                                  rtol=config.rtol, atol=config.atol,
                                  first_step=min(_FIRST_STEP,
                                                 stop.t_max - t))
                stepper.step()
                if stepper.status == "failed":
                    # stalled: rebuild from the last accepted state, but
                    # only while rebuilds keep advancing t
                    restarts += 1
                    if restarts > _MAX_RESTARTS or (t <= t_anchor
                                                    and restarts > 1):
                        warnings.append(f"stiff stepper failed at t={t:g} "
                                        f"after {restarts} restarts")
                        status = "rhs_failure"
                        break
                    t_anchor, stepper = t, None
                    continue
                row, cvals = measure(stepper.t, stepper.y)
                t, y = stepper.t, stepper.y
                accepted += 1
                if accepted % _SAMPLE_STRIDE == 0:
                    rows.append(row)
    except (EvaluationError, FactorOverflowError) as exc:
        # a failed step leaves the stepper at the last accepted t; a
        # failed measurement names the step it could not measure
        at = t if stepper is None else stepper.t
        warnings.append(f"rhs failure at t={at:g}: {exc}")
        status = "rhs_failure"

    if not rows:
        return SolveResult(
            status=status, x=y[:-1].copy(), rho=float(y[-1]), t=t,
            psi=math.nan, g=math.nan, f=math.nan,
            trajectory=np.zeros((0, y.size + 5)), accepted_steps=0,
            warnings=warnings)
    # row is the measurement of (t, y), already kept if it was sampled
    if rows[-1] is not row:
        rows.append(row)
    _, rho, psi, g, f = row[:5]
    mu = penalty_weights(cvals, rho, params.m)
    return SolveResult(
        status=status, x=y[:-1].copy(), rho=rho, t=t, psi=psi, g=g, f=f,
        trajectory=np.array(rows, dtype=float), accepted_steps=accepted,
        restarts=restarts, warnings=warnings, mu=mu,
        kkt=_kkt_report(g, cvals, mu))
