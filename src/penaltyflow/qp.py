"""Inequality-constrained quadratic programs: flow instantiation, a
seeded feasible-instance generator, an exact active-set reference solver,
and the multi-instance benchmark.

QP form: min (1/2) x'Hx + F'x subject to Ax <= B, with H symmetric and,
for generated instances, positive definite.
"""

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg as sla

from .errors import OracleError, PenaltyFlowError
from .fileio import atomic_write_text, fmt
from .flow import FlowParams, FlowState
from .integrator import IntegratorConfig, SolveResult, StopCriteria, solve
from .problem import PenaltyConfig, Problem

__all__ = [
    "QpData", "OracleSolution", "qp_problem", "generate_random_qp",
    "active_set_oracle", "run_benchmark", "BenchRow", "BenchReport",
    "BENCH_PSI_MAX", "BENCH_RATIO_BAND",
]

# benchmark pass thresholds
BENCH_PSI_MAX = 1e-6
BENCH_RATIO_BAND = (0.99, 1.01)

_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class QpData:
    """QP matrices. H is symmetrized at construction; A is n_c x n with
    one row per constraint A_i x <= B_i. Every entry must be finite."""

    H: np.ndarray
    F: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        # halving first keeps every finite H finite; away from the
        # subnormal range it gives the same bits as 0.5 * (H + H.T)
        H = np.asarray(self.H, dtype=float)
        H = 0.5 * H + 0.5 * H.T
        F = np.asarray(self.F, dtype=float)
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        n = F.size
        if H.shape != (n, n):
            raise ValueError(f"H has shape {H.shape}, expected ({n}, {n})")
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError(f"A has shape {A.shape}, expected (n_c, {n})")
        if B.shape != (A.shape[0],):
            raise ValueError(f"B has shape {B.shape}, expected ({A.shape[0]},)")
        for name, arr in (("H", H), ("F", F), ("A", A), ("B", B)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has a non-finite entry")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.F.size

    @property
    def n_c(self) -> int:
        return self.B.size


def qp_problem(data: QpData, cfg: PenaltyConfig = PenaltyConfig()) -> Problem:
    """Wrap QpData as a Problem with analytic derivatives:
    f = (1/2) x'Hx + F'x, c = Ax - B, and the Lagrangian Hessian H
    (the constraints are linear). ``cfg`` is not read: the penalty
    exponent is FlowParams.m."""
    H, F, A, B = data.H, data.F, data.A, data.B

    def f(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ H @ x) + float(F @ x)

    def f_x(x):
        return H @ np.asarray(x, dtype=float) + F

    def c(x):
        return A @ np.asarray(x, dtype=float) - B

    def c_x(x):
        return A

    def hess(x, w):
        return H

    return Problem(n=data.n, n_c=data.n_c, f=f, f_x=f_x, c=c, c_x=c_x,
                   hess=hess)


def generate_random_qp(n: int, n_c: int, seed: int):
    """Seeded feasible QP instance.

    Draw order (fixed; part of the determinism contract): M (n x n)
    standard normal, F (n), A (n_c x n), x_f (n), slacks s (n_c) uniform
    on (0.1, 1.0). Then H = M'M + I (so H >= I) and B = A x_f + s, which
    makes x_f strictly feasible. Returns (QpData, x_f).
    """
    if n < 1 or n_c < 0:
        raise ValueError("need n >= 1 and n_c >= 0")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    F = rng.standard_normal(n)
    A = rng.standard_normal((n_c, n))
    x_f = rng.standard_normal(n)
    s = rng.uniform(0.1, 1.0, size=n_c)
    H = M.T @ M + np.eye(n)
    B = A @ x_f + s
    return QpData(H=H, F=F, A=A, B=B), x_f


@dataclass(frozen=True)
class OracleSolution:
    """Certified QP solution: primal point, objective, active set and
    full multiplier vector."""

    x_star: np.ndarray
    f_star: float
    active_set: tuple
    mu_star: np.ndarray


def _subset_candidate(S, W, HinvAT, x_u, c_u):
    """Solve the equality-KKT system on subset S.

    Returns (x, mu_S) or None when the reduced Schur system is singular.
    """
    if not S:
        return x_u, np.zeros(0)
    idx = np.asarray(S, dtype=int)
    WSS = W[np.ix_(idx, idx)]
    try:
        mu_S = sla.solve(WSS, c_u[idx], assume_a="sym")
    except sla.LinAlgError:
        return None
    if not np.all(np.isfinite(mu_S)):
        return None
    x = x_u - HinvAT[:, idx] @ mu_S
    return x, mu_S


def _verify(data, x, S, mu_S, scale):
    """Full KKT check of a candidate; returns the assembled full
    multiplier vector or None."""
    mu = np.zeros(data.n_c)
    if len(S):
        mu[np.asarray(S, dtype=int)] = mu_S
    if np.any(mu < -_FEAS_TOL * scale):
        return None
    resid = data.A @ x - data.B
    if np.any(resid > _FEAS_TOL * scale):
        return None
    stat = data.H @ x + data.F + mu @ data.A
    if np.linalg.norm(stat) > 1e-9 * scale:
        return None
    if np.max(np.abs(mu * resid), initial=0.0) > 1e-9 * scale * scale:
        return None
    return np.maximum(mu, 0.0)


def active_set_oracle(data: QpData) -> OracleSolution:
    """Exact reference solution for a strictly convex QP: certified or
    refused.

    Candidate active sets are solved as equality-KKT systems built on
    the Cholesky factor of H. An exchange loop starts from the empty set
    and either drops the constraint with the most negative multiplier
    or adds the most violated one. Since H > 0 makes the KKT point
    unique, a candidate passing the full KKT check (primal and dual
    feasibility, stationarity, complementarity) is the optimum, and it
    is returned.

    Raises OracleError if H is not positive definite, or when one of the
    loop's guards fires before a candidate is certified:
    - an active set is seen a second time (the loop cycles);
    - the reduced system of an active set is singular;
    - adding a violated constraint would make the set exceed n rows;
    - a candidate with no negative multiplier and no violated
      constraint fails the KKT check;
    - 4 (n_c + 1) exchanges pass without a certificate.
    """
    try:
        cho = sla.cho_factor(data.H)
    except sla.LinAlgError as e:
        raise OracleError(f"H is not positive definite: {e}") from e

    scale = 1.0 + float(np.linalg.norm(data.F)) + float(
        np.abs(data.B).max(initial=0.0)) + float(np.abs(data.H).max())
    x_u = sla.cho_solve(cho, -data.F)

    if data.n_c == 0:
        f_star = 0.5 * float(x_u @ data.H @ x_u) + float(data.F @ x_u)
        return OracleSolution(x_star=x_u, f_star=f_star, active_set=(),
                              mu_star=np.zeros(0))

    HinvAT = sla.cho_solve(cho, data.A.T)
    W = data.A @ HinvAT
    c_u = data.A @ x_u - data.B

    S = []
    seen = set()
    max_iter = 4 * (data.n_c + 1)
    for _ in range(max_iter):
        key = tuple(S)
        if key in seen:
            raise OracleError(f"active set {key} seen twice: the exchange "
                              "loop cycles")
        seen.add(key)
        out = _subset_candidate(S, W, HinvAT, x_u, c_u)
        if out is None:
            raise OracleError(f"reduced system of active set {key} is "
                              "singular")
        x, mu_S = out
        if len(S) and np.min(mu_S) < -_FEAS_TOL * scale:
            S = sorted(set(S) - {S[int(np.argmin(mu_S))]})
            continue
        resid = data.A @ x - data.B
        if len(S):
            resid[np.asarray(S, dtype=int)] = -np.inf
        worst = int(np.argmax(resid))
        if resid[worst] > _FEAS_TOL * scale:
            if len(S) >= data.n:
                raise OracleError(
                    f"constraint {worst} is violated with n = {data.n} "
                    "rows already active")
            S = sorted(set(S) | {worst})
            continue
        mu = _verify(data, x, S, mu_S, scale)
        if mu is None:
            raise OracleError(f"active set {key} fails the KKT check")
        f_star = 0.5 * float(x @ data.H @ x) + float(data.F @ x)
        return OracleSolution(x_star=x, f_star=f_star,
                              active_set=tuple(S), mu_star=mu)
    raise OracleError(f"no certified active set after {max_iter} "
                      "exchanges")


# ----------------------------------------------------------------------
# benchmark
# ----------------------------------------------------------------------

BENCH_HEADER = ("seed,n,nc,status,psi_final,g_final,f_flow,f_oracle,"
                "ratio,stationarity,steps,millis")


@dataclass
class BenchRow:
    seed: int
    n: int
    nc: int
    status: str
    psi_final: float
    g_final: float
    f_flow: float
    f_oracle: float
    ratio: float
    stationarity: float
    steps: int
    millis: float
    x_oracle: Optional[np.ndarray] = None
    result: Optional[SolveResult] = None

    def csv(self) -> str:
        return ",".join([
            str(self.seed), str(self.n), str(self.nc), self.status,
            fmt(self.psi_final), fmt(self.g_final), fmt(self.f_flow),
            fmt(self.f_oracle), fmt(self.ratio), fmt(self.stationarity),
            str(self.steps), fmt(self.millis)])


@dataclass
class BenchReport:
    rows: list
    passed: bool = field(init=False)
    failing_seeds: list = field(init=False)

    def __post_init__(self):
        lo, hi = BENCH_RATIO_BAND
        failing = []
        for r in self.rows:
            ok = (r.status == "converged" and r.psi_final <= BENCH_PSI_MAX
                  and lo <= r.ratio <= hi)
            if not ok:
                failing.append(r.seed)
        self.failing_seeds = failing
        self.passed = not failing

    def to_csv(self, path) -> None:
        lines = [BENCH_HEADER] + [r.csv() for r in self.rows]
        atomic_write_text(path, "\n".join(lines) + "\n")


def run_benchmark(count: int, n: int, n_c: int, params: FlowParams,
                  stop: StopCriteria, config: IntegratorConfig,
                  seed: int = 0) -> BenchReport:
    """Flow-vs-oracle sweep over ``count`` seeded instances.

    Instance i uses seed ``seed + i``. Every instance is solved by the
    flow from (0, 0) and by the active-set reference. A package error
    (``PenaltyFlowError``) in one instance is recorded in its row and
    does not abort the batch; any other exception propagates. Rows are
    ordered by seed.
    """
    rows = []
    for i in range(count):
        s = seed + i
        data, _ = generate_random_qp(n, n_c, s)
        problem = qp_problem(data)
        t0 = time.perf_counter()
        row = BenchRow(seed=s, n=n, nc=n_c, status="", psi_final=np.nan,
                       g_final=np.nan, f_flow=np.nan, f_oracle=np.nan,
                       ratio=np.nan, stationarity=np.nan, steps=0,
                       millis=np.nan)
        try:
            res = solve(problem, params,
                        FlowState(x=np.zeros(n), rho=0.0), stop, config)
            oracle = active_set_oracle(data)
            row.status = res.status
            row.psi_final = res.psi
            row.g_final = res.g
            row.f_flow = res.f
            row.f_oracle = oracle.f_star
            row.ratio = res.f / oracle.f_star
            if res.kkt is not None:
                row.stationarity = res.kkt.stationarity
            row.steps = res.accepted_steps
            row.x_oracle = oracle.x_star
            row.result = res
        except PenaltyFlowError as e:  # record, keep going
            row.status = f"error:{type(e).__name__}"
        row.millis = 1e3 * (time.perf_counter() - t0)
        rows.append(row)
    return BenchReport(rows=rows)
