"""Binary optimization through smooth constraints and deflation.

A binary problem is an ordinary Problem whose nbar_c constraints are the
native ones and all of whose n variables are binary. Each binary
variable contributes three inequality constraints

    x_i - x_i^2 <= 0,   -x_i <= 0,   x_i - 1 <= 0

whose only feasible values are x_i in {0, 1}; with the native constraints
this gives n_c = nbar_c + 3n. The penalty with m = 2 then grows with
order n_psi = 2m = 4, so the flow for these problems uses q = 4.

Successive local minima are visited by deflation: after a converged run
lands near a vertex, a localized Gaussian bump is added to the cost at
that vertex (sized against an admissible neighbor's value) and the flow
is restarted from it with rho reset to 0. The bumps are data next to the
base objective: a (k, n) array of centres and a (k,) array of amplitudes.
"""

import math
import numbers
from dataclasses import dataclass, replace
from itertools import chain, combinations, product
from typing import Optional

import numpy as np

from .errors import EnumerationBoundError
from .fileio import write_csv
from .flow import FlowParams, FlowState
from .integrator import IntegratorConfig, StopCriteria, solve
from .problem import Problem
from .qp import QpData, qp_problem

__all__ = [
    "DeflationRecord", "BinaryRunResult", "native_feasible",
    "binary_quadratic", "binarize", "find_neighbor", "bumped_cost",
    "deflate_cost", "solve_binary", "brute_force_oracle", "BINARY_Q",
]

# growth order of the m = 2 penalty over the binarization constraints
BINARY_Q = 4

ORACLE_N_MAX = 20

_NATIVE_TOL = 1e-9


def native_feasible(problem: Problem, x) -> bool:
    """True when x satisfies every native constraint of ``problem`` to
    within 1e-9; always true without native constraints."""
    if problem.n_c == 0:
        return True
    return bool(np.max(np.asarray(problem.c(x), dtype=float))
                <= _NATIVE_TOL)


def binary_quadratic(H, F, A=None, B=None) -> Problem:
    """Binary problem with objective (1/2) x'Hx + F'x and optional
    native linear constraints Ax <= B: the QP ``qp_problem`` builds,
    with no constraints when A and B are None. Every entry must be
    finite."""
    F = np.asarray(F, dtype=float)
    if A is None:
        A, B = np.zeros((0, F.size)), np.zeros(0)
    return qp_problem(QpData(H=H, F=F, A=A, B=B))


def binarize(problem: Problem) -> Problem:
    """Smooth Problem enforcing binariness through inequalities.

    Constraint order: the native constraints of ``problem`` first, then
    x - x^2, then -x, then x - 1 (n_c + 3n in total). The objective is
    the problem's own. When ``problem`` has a Hessian hook the result
    has one too: the x - x^2 block is the only curved addition, so

        hess(x, w) = problem.hess(x, w[:k]) - 2 diag(w[k:k+n])

    with k native constraints. Without a hook the result has none, and
    the flow Jacobian differences the Lagrangian gradient.
    """
    n, k = problem.n, problem.n_c
    # rows of the -x and x - 1 blocks never change; each call fills in
    # the native rows and the diagonal of the x - x^2 block
    jac_base = np.vstack([np.zeros((k + n, n)), -np.eye(n), np.eye(n)])

    def c(x):
        x = np.asarray(x, dtype=float)
        native = problem.c(x) if k else ()
        return np.concatenate([np.asarray(native, dtype=float),
                               x - x * x, -x, x - 1.0])

    def c_x(x):
        x = np.asarray(x, dtype=float)
        jac = jac_base.copy()
        if k:
            jac[:k] = problem.c_x(x)
        np.fill_diagonal(jac[k:k + n], 1.0 - 2.0 * x)
        return jac

    def hess(x, w):
        return (np.asarray(problem.hess(x, w[:k]), dtype=float)
                - 2.0 * np.diag(w[k:k + n]))

    return Problem(n=n, n_c=k + 3 * n, f=problem.f, f_x=problem.f_x,
                   c=c, c_x=c_x,
                   hess=None if problem.hess is None else hess)


def find_neighbor(x_s, bp: Problem):
    """First native-feasible neighbor of a binary point.

    Scans single-bit flips in index order, then two-bit flips in
    lexicographic index order, and returns the first candidate whose
    native constraints hold; None when every candidate is infeasible.
    The scan order is the deterministic generation process that makes
    deflation reproducible.
    """
    x_s = np.asarray(x_s, dtype=float)
    bits = range(x_s.size)
    for flip in chain(combinations(bits, 1), combinations(bits, 2)):
        z = x_s.copy()
        z[list(flip)] = 1.0 - z[list(flip)]
        if native_feasible(bp, z):
            return z
    return None


def bumped_cost(bp: Problem, centres, amplitudes, mu_defl: float) -> Problem:
    """``bp`` with its cost deflated to

        f(x) = bp.f(x) + sum_j a_j * exp(-mu_defl * ||x - x_j||^2 / 4)

    with one bump per row x_j of the (k, n) array ``centres`` and its
    amplitude a_j in the (k,) array ``amplitudes``. With d = x - x_j and
    e_j the exponential, bump j adds a_j e_j (-mu_defl / 2) d to the
    gradient and a_j e_j (-mu_defl / 2) (I - (mu_defl / 2) d d') to the
    Hessian; without a Hessian hook on ``bp`` the result has none. The
    bumps are added one at a time in stacking order: a deflation run
    turns on the last bit of these sums, and a vectorized sum over the
    bumps rounds differently. ``mu_defl`` must be finite and > 0.
    """
    # written so that NaN fails
    if not 0.0 < mu_defl < math.inf:
        raise ValueError("mu_defl must be finite and > 0")
    amplitudes = np.asarray(amplitudes, dtype=float)
    centres = np.asarray(centres, dtype=float).reshape(amplitudes.size, bp.n)
    bumps = list(zip(centres, amplitudes))

    def f(x):
        x = np.asarray(x, dtype=float)
        value = float(bp.f(x))
        for x_j, a_j in bumps:
            d = x - x_j
            value = value + a_j * np.exp(-mu_defl * float(d @ d) / 4.0)
        return value

    def f_x(x):
        x = np.asarray(x, dtype=float)
        grad = np.asarray(bp.f_x(x), dtype=float)
        for x_j, a_j in bumps:
            d = x - x_j
            bump = a_j * np.exp(-mu_defl * float(d @ d) / 4.0)
            grad = grad + bump * (-mu_defl / 2.0) * d
        return grad

    def hess(x, w):
        x = np.asarray(x, dtype=float)
        H = np.asarray(bp.hess(x, w), dtype=float)
        for x_j, a_j in bumps:
            d = x - x_j
            bump = a_j * np.exp(-mu_defl * float(d @ d) / 4.0)
            H = H + (bump * (-mu_defl / 2.0)) * (
                np.eye(bp.n) - (mu_defl / 2.0) * np.outer(d, d))
        return H

    return replace(bp, f=f, f_x=f_x,
                   hess=None if bp.hess is None else hess)


def deflate_cost(f, centres, amplitudes, x_s, z_s):
    """Stack a bump at x_s sized against the neighbor z_s.

    Returns ``centres`` and ``amplitudes`` with x_s and
    a = 1 + 2 |f(z_s)| appended, ``f`` being the cost
    they give. The guard keeps a >= 1, so the bump raises the cost at x_s
    by at least 1 while the cost at z_s (distance >= 1) moves by only
    a * exp(-mu_defl / 4). Where x_s lies much lower than z_s one bump
    does not lift it above z_s; the loop lands on x_s again and stacks
    another bump.
    """
    a = 1.0 + 2.0 * abs(float(f(z_s)))
    return (np.vstack([centres, np.asarray(x_s, dtype=float)]),
            np.append(amplitudes, a))


@dataclass(frozen=True)
class DeflationRecord:
    """One visited local minimum: the rounded vertex x_s of a converged
    inner solve, its admissible neighbor z_s (None when none exists),
    and its original cost and native feasibility."""

    x_s: np.ndarray
    z_s: Optional[np.ndarray]
    f_original: float
    native_feasible: bool


@dataclass
class BinaryRunResult:
    """Everything a deflation run produced: the records in visit order,
    the best native-feasible vertex under the original objective, the
    terminating condition, and the raw inner-solve count."""

    records: list
    best_x: Optional[np.ndarray]
    best_f: float
    status: str
    inner_solves: int

    def to_csv(self, path, oracle_f: Optional[float] = None,
               oracle_skipped: bool = False) -> None:
        """One row per record: s (its index), x_s, f_original,
        native_feasible, z_s (bit strings; z_s empty when none) and gap =
        f_original - oracle_f ("skipped" past the oracle bound, empty
        without one)."""
        def bits(x):
            return "" if x is None else "".join(str(int(b)) for b in x)

        write_csv(path, "s,x_s,f_original,native_feasible,neighbor,gap", [
            (s, bits(r.x_s), r.f_original, str(r.native_feasible).lower(),
             bits(r.z_s), "skipped" if oracle_skipped else
             "" if oracle_f is None else r.f_original - oracle_f)
            for s, r in enumerate(self.records)])


def solve_binary(bp: Problem, params: Optional[FlowParams] = None,
                 stop: StopCriteria = StopCriteria(),
                 config: IntegratorConfig = IntegratorConfig(),
                 max_minima: Optional[int] = None,
                 mu_defl: float = 40.0) -> BinaryRunResult:
    """Deflation loop over flow solves of the binarized problem.

    Starting point is (0.5, ..., 0.5) with rho = 0; each subsequent solve
    restarts from the last vertex with rho reset to 0 and one more bump
    of width ``mu_defl`` stacked onto the running cost. A converged solve
    is rounded to the nearest vertex (threshold 0.5, ties to 1) and
    recorded if new.

    A solve can land back on a vertex that already carries a bump; the
    vertex is then bumped again (amplitudes stack) and the loop goes on,
    so recorded vertices stay pairwise distinct. ``max_minima`` caps the
    number of inner solves (default min(2^n, 64)).

    The loop ends on the cap, a missing neighbor, or a non-converged
    inner solve; the result carries the partially accumulated records in
    every case.
    """
    if params is None:
        params = FlowParams(q=BINARY_Q)
    if max_minima is None:
        max_minima = min(2 ** bp.n, 64)
    if not (isinstance(max_minima, numbers.Integral) and max_minima >= 1):
        raise ValueError("max_minima must be an integer >= 1")

    centres, amplitudes = np.zeros((0, bp.n)), np.zeros(0)
    cost = bumped_cost(bp, centres, amplitudes, mu_defl)
    x_start = np.full(bp.n, 0.5)
    records = []
    status = "max_minima"
    inner = 0
    while inner < max_minima:
        res = solve(binarize(cost), params, FlowState(x=x_start, rho=0.0),
                    stop, config)
        inner += 1
        if res.status != "converged":
            status = f"inner_{res.status}"
            break
        x_vertex = np.where(res.x >= 0.5, 1.0, 0.0)
        z = find_neighbor(x_vertex, bp)
        if not any(np.array_equal(x_vertex, r.x_s) for r in records):
            records.append(DeflationRecord(
                x_s=x_vertex, z_s=z,
                f_original=float(bp.f(x_vertex)),
                native_feasible=native_feasible(bp, x_vertex)))
        if z is None:
            status = "no_neighbor"
            break
        centres, amplitudes = deflate_cost(cost.f, centres, amplitudes,
                                           x_vertex, z)
        cost = bumped_cost(bp, centres, amplitudes, mu_defl)
        x_start = x_vertex
    best_x, best_f = None, np.inf
    for r in records:
        if r.native_feasible and r.f_original < best_f:
            best_x, best_f = r.x_s, r.f_original
    return BinaryRunResult(records=records, best_x=best_x, best_f=best_f,
                           status=status, inner_solves=inner)


def brute_force_oracle(bp: Problem):
    """Exhaustive scan of {0,1}^n filtered by the native constraints.

    Returns (x_best, f_best) or None when no binary point is feasible.
    Lexicographic enumeration with strict improvement gives the
    deterministic tie-break. n is capped at ORACLE_N_MAX.
    """
    if bp.n > ORACLE_N_MAX:
        raise EnumerationBoundError(
            f"n = {bp.n} exceeds the oracle bound {ORACLE_N_MAX}")
    best_x, best_f = None, np.inf
    for bits in product((0.0, 1.0), repeat=bp.n):
        x = np.array(bits)
        if not native_feasible(bp, x):
            continue
        v = float(bp.f(x))
        if v < best_f:
            best_x, best_f = x, v
    if best_x is None:
        return None
    return best_x, best_f
