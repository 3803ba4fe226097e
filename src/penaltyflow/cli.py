"""Command-line front end.

Subcommands: solve-qp, bench, mpc, minlp, check-grads. Output is CSV
plus plain-text report lines; plotting is left to external tools. Exit
codes: 0 success, 2 argument or file parse error, 3 solver failure.

Each subcommand registers only the flags it reads. ``build_parser``
states a solving one's FlowParams, StopCriteria and IntegratorConfig
once, and each of their fields becomes a flag showing its default.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import fileio
from .binary import (ORACLE_N_MAX, binarize, brute_force_oracle,
                     solve_binary, BINARY_Q)
from .errors import FileFormatError, PenaltyFlowError
from .flow import FlowParams, FlowState
from .integrator import IntegratorConfig, StopCriteria, solve, save_trajectory
from .mpc import DEMO_STOP, condense, double_integrator_demo, Plant, \
    simulate_closed_loop
from .problem import check_gradients
from .qp import generate_random_qp, qp_problem, run_benchmark

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3


def _checked(kind, ok, what):
    """argparse ``type=`` converter: ``kind(text)``, refused with the
    parse-error code unless ``ok`` holds for it."""
    def convert(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    return convert


_POS_INT = _checked(int, lambda v: v > 0, "an integer > 0")
_NONNEG_INT = _checked(int, lambda v: v >= 0, "an integer >= 0")
_POS_FLOAT = _checked(float, lambda v: 0.0 < v < np.inf,
                     "a finite number > 0")


# a field named after a Python keyword keeps the keyword as its flag
_FLAG_NAMES = {"lam": "lambda"}


def _add_config(p, *bases):
    """One flag per field of each configuration dataclass instance in
    ``bases``, typed like the field's value and None unless given."""
    for base in bases:
        for f in dataclasses.fields(base):
            value = getattr(base, f.name)
            flag = _FLAG_NAMES.get(f.name, f.name).replace("_", "-")
            p.add_argument(f"--{flag}", dest=f.name, type=type(value),
                           default=None, help=f"default {value}")
    p.set_defaults(bases=bases)


class _BadFlag(Exception):
    """A flag value that a configuration dataclass rejects."""


def _configs(args):
    """The subcommand's bases with the given flags applied. A value the
    dataclass rejects raises _BadFlag, which ``main`` maps to the
    parse-error code."""
    try:
        return [dataclasses.replace(base, **{
            f.name: getattr(args, f.name) for f in dataclasses.fields(base)
            if getattr(args, f.name) is not None}) for base in args.bases]
    except ValueError as e:
        raise _BadFlag(str(e)) from None


def _emit(args, text):
    if args.report:
        fileio.atomic_write_text(args.report, text + "\n")
    print(text)


def cmd_solve_qp(args) -> int:
    params, stop, config = _configs(args)
    data = fileio.load_qp(args.input)
    res = solve(qp_problem(data), params,
                FlowState(x=np.zeros(data.n), rho=0.0), stop, config)
    if args.trace:
        save_trajectory(res, args.trace)
    k = res.kkt
    line = (f"status={res.status} psi_final={res.psi:.6e} "
            f"g_final={res.g:.6e} f_final={res.f:.9e}")
    if k is not None:
        line += (f" stationarity={k.stationarity:.6e} "
                 f"primal={k.primal_infeasibility:.6e} "
                 f"dual={k.dual_infeasibility:.6e} "
                 f"complementarity={k.complementarity:.6e}")
    for w in res.warnings:
        line += f"\nwarning: {w}"
    _emit(args, line)
    return EXIT_OK if res.status == "converged" else EXIT_SOLVER


def cmd_bench(args) -> int:
    report = run_benchmark(args.count, args.n, args.nc, *_configs(args),
                           seed=args.seed)
    report.to_csv(args.report)
    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
        for row in report.rows:
            if row.result is None:
                continue
            # psi and f/f_oracle per retained sample, the figure data
            tr = row.result.trajectory
            fileio.write_csv(
                os.path.join(args.trace, f"traj_seed{row.seed}.csv"),
                "t,psi,f_ratio",
                zip(tr[:, 0], tr[:, 2], tr[:, 4] / row.f_oracle))
    print(f"wrote {args.report}: {len(report.rows)} instances, "
          f"{'all passed' if report.passed else 'FAILING'}")
    if not report.passed:
        print("failing seeds: "
              + ",".join(str(s) for s in report.failing_seeds),
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_mpc(args) -> int:
    params, stop, config = _configs(args)
    if args.input:
        sc = fileio.load_mpc_scenario(args.input)
        plant = Plant(A_d=sc["A_d"], B_d=sc["B_d"])
        try:
            pqp = condense(plant, sc["N"], sc["Q"], sc["R"], sc["P"],
                           sc["u_max"])
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_PARSE
        xi0, steps, u_max = sc["xi0"], sc["steps"], sc["u_max"]
    else:
        plant, pqp, xi0 = double_integrator_demo()
        steps, u_max = 60, 0.5
    steps = args.steps or steps
    trace = simulate_closed_loop(plant, pqp, xi0, steps, params, stop,
                                 config)
    if args.trace:
        trace.to_csv(args.trace)
    max_u = float(np.abs(trace.u).max(initial=0.0))
    bounds_ok = max_u <= u_max + 1e-6
    xi_end = plant.A_d @ trace.xi[-1] + plant.B_d @ trace.u[-1]
    _emit(args, f"steps={trace.u.shape[0]} "
                f"final_|xi|={float(np.linalg.norm(xi_end)):.6e} "
                f"max|u|={max_u:.6f} all_converged={trace.all_converged} "
                f"bounds_ok={bounds_ok}")
    return EXIT_OK if trace.all_converged and bounds_ok else EXIT_SOLVER


def cmd_minlp(args) -> int:
    params, stop, config = _configs(args)
    bp = fileio.load_binary_problem(args.input)
    result = solve_binary(bp, params, stop, config,
                          max_minima=args.max_minima, mu_defl=args.mu_defl)
    oracle_f = None
    oracle_skipped = bp.n > ORACLE_N_MAX
    if not oracle_skipped:
        oracle = brute_force_oracle(bp)
        if oracle is not None:
            oracle_f = oracle[1]
    result.to_csv(args.report, oracle_f=oracle_f,
                  oracle_skipped=oracle_skipped)
    found = result.best_x is not None
    if found:
        bits = "".join(str(int(b)) for b in result.best_x)
        gap = ("skipped" if oracle_skipped else
               "" if oracle_f is None else f"{result.best_f - oracle_f:.6e}")
        print(f"best={bits} f={result.best_f:.9e} gap={gap} "
              f"visited={len(result.records)} status={result.status}")
        return EXIT_OK
    print(f"no native-feasible binary point found "
          f"(status={result.status})", file=sys.stderr)
    return EXIT_SOLVER


def cmd_check_grads(args) -> int:
    if args.input and (args.n is not None or args.nc is not None):
        print("error: --n and --nc size a generated QP, not an input file",
              file=sys.stderr)
        return EXIT_PARSE
    if args.kind == "qp":
        data = fileio.load_qp(args.input) if args.input else \
            generate_random_qp(15 if args.n is None else args.n,
                               20 if args.nc is None else args.nc,
                               args.seed)[0]
        problem = qp_problem(data)
    else:
        if not args.input:
            print("error: --kind binary needs an input file",
                  file=sys.stderr)
            return EXIT_PARSE
        problem = binarize(fileio.load_binary_problem(args.input))
    rng = np.random.default_rng(args.seed)
    # np.max, unlike max, keeps a NaN deviation, which then fails the tol
    worst = float(np.max([
        check_gradients(problem, rng.standard_normal(problem.n),
                        args.step).worst
        for _ in range(args.points)]))
    print(f"worst relative deviation over {args.points} points: "
          f"{worst:.3e}")
    return EXIT_OK if worst <= args.tol else EXIT_SOLVER


def build_parser():
    ap = argparse.ArgumentParser(
        prog="penaltyflow",
        description="KKT points as asymptotic values of a penalty flow")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-qp", help="solve a QP file by flow "
                                        "integration")
    p.add_argument("input")
    _add_config(p, FlowParams(), StopCriteria(), IntegratorConfig())
    p.add_argument("--trace", help="trajectory CSV path")
    p.add_argument("--report", help="report text path")
    p.set_defaults(fn=cmd_solve_qp)

    p = sub.add_parser("bench", help="flow-vs-oracle benchmark on seeded "
                                     "random QPs")
    p.add_argument("--count", type=_POS_INT, default=50)
    p.add_argument("--n", type=_POS_INT, default=15)
    p.add_argument("--nc", type=_NONNEG_INT, default=20)
    p.add_argument("--seed", type=_NONNEG_INT, default=0)
    _add_config(p, FlowParams(), StopCriteria(), IntegratorConfig())
    p.add_argument("--trace", help="directory for one trajectory CSV "
                                   "per seed")
    p.add_argument("--report", default="bench.csv",
                   help="benchmark CSV path (default bench.csv)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("mpc", help="closed-loop MPC simulation")
    p.add_argument("input", nargs="?", default=None,
                   help="scenario file (default: built-in double "
                        "integrator)")
    p.add_argument("--steps", type=_POS_INT, default=None)
    _add_config(p, FlowParams(), DEMO_STOP, IntegratorConfig())
    p.add_argument("--trace", help="closed-loop CSV path")
    p.add_argument("--report", help="summary text path")
    p.set_defaults(fn=cmd_mpc)

    p = sub.add_parser("minlp", help="binary solve by deflation")
    p.add_argument("input")
    p.add_argument("--mu-defl", type=_POS_FLOAT, default=40.0)
    p.add_argument("--max-minima", type=_POS_INT, default=None)
    _add_config(p, FlowParams(q=BINARY_Q), StopCriteria(),
                IntegratorConfig())
    p.add_argument("--report", default="minlp.csv",
                   help="visited-vertex CSV path (default minlp.csv)")
    p.set_defaults(fn=cmd_minlp)

    p = sub.add_parser("check-grads", help="finite-difference gradient "
                                           "diagnostic")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--kind", choices=("qp", "binary"), default="qp")
    p.add_argument("--n", type=_POS_INT, default=None,
                   help="variables of the generated QP (default 15)")
    p.add_argument("--nc", type=_NONNEG_INT, default=None,
                   help="constraints of the generated QP (default 20)")
    p.add_argument("--points", type=_POS_INT, default=10)
    p.add_argument("--step", type=_POS_FLOAT, default=1e-6)
    p.add_argument("--tol", type=_POS_FLOAT, default=1e-5)
    p.add_argument("--seed", type=_NONNEG_INT, default=0)
    p.set_defaults(fn=cmd_check_grads)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags, matching the parse-error code
        return int(e.code) if e.code else EXIT_OK
    try:
        return args.fn(args)
    except (FileFormatError, _BadFlag) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except PenaltyFlowError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
