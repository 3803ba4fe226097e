"""Constrained NLP solving via an exact-penalty ODE flow.

The solver integrates the coupled system

    dx/dt   = -factor(g) * grad fbar(x, rho)
    drho/dt = gamma * psi(x)

whose trajectories approach KKT points of min f(x) s.t. c(x) <= 0, and
recovers the multipliers from the asymptotic penalty gradient. QP, MPC,
and binary-deflation harnesses with independent reference solvers are
included.
"""

from .errors import (EnumerationBoundError, EvaluationError,
                     FactorOverflowError, FileFormatError, OracleError,
                     PenaltyFlowError)
from .problem import (GradCheckReport, KktReport, PenaltyConfig, Problem,
                      check_gradients, evaluate, kkt_residuals,
                      measure_state)
from .flow import (FlowParams, FlowState, exp_factor, fbar_dot_identity,
                   flow_jacobian, flow_rhs, series_factor)
from .integrator import (IntegratorConfig, SolveResult, StopCriteria,
                         save_trajectory, solve)
from .qp import (BenchReport, BenchRow, OracleSolution, QpData,
                 active_set_oracle, generate_random_qp, qp_problem,
                 run_benchmark)
from .mpc import (DEMO_STOP, ClosedLoopTrace, ParametricQp, Plant, condense,
                  double_integrator_demo, instantiate, mpc_step,
                  simulate_closed_loop)
from .binary import (BinaryRunResult, DeflationRecord, binarize,
                     binary_quadratic, brute_force_oracle, bumped_cost,
                     deflate_cost, find_neighbor, native_feasible,
                     solve_binary)
from .fileio import load_binary_problem, load_mpc_scenario, load_qp

__version__ = "0.1.0"
