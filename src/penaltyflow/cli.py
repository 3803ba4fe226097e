"""Command-line front end.

Subcommands: solve-qp, bench, mpc, minlp, check-grads. Output is CSV
plus plain-text report lines; plotting is left to external tools. Exit
codes: 0 success, 2 argument or file parse error, 3 solver failure.
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
from .flow import MODES, FlowParams, FlowState
from .integrator import IntegratorConfig, StopCriteria, solve, save_trajectory
from .mpc import DEMO_STOP, condense, double_integrator_demo, Plant, \
    simulate_closed_loop
from .problem import check_gradients
from .qp import (ORACLE_NC_MAX, generate_random_qp, qp_problem,
                 run_benchmark)

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


def _add_common(p):
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="gradient scaling factor (default 1e-4)")
    p.add_argument("--gamma", type=float, default=None,
                   help="penalty growth rate (default 1e-6)")
    p.add_argument("--q", type=int, default=None,
                   help="series truncation order")
    p.add_argument("--m", type=int, default=None,
                   help="penalty exponent (default 2)")
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--rtol", type=float, default=None,
                   help="BDF relative tolerance (default 1e-3)")
    p.add_argument("--atol", type=float, default=None,
                   help="BDF absolute tolerance (default 1e-9)")
    p.add_argument("--eps-psi", type=float, default=None)
    p.add_argument("--eps-g", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--rho-max", type=float, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--seed", type=_NONNEG_INT, default=0)
    p.add_argument("--trace", default=None,
                   help="trajectory CSV path (bench: directory)")
    p.add_argument("--report", default=None, help="report CSV path")


class _BadFlag(Exception):
    """A flag value that a configuration dataclass rejects."""


def _override(base, args):
    """``base`` with every field that has a non-None parsed flag of the
    same name replaced by that flag's value. A value the dataclass
    rejects raises _BadFlag, which ``main`` maps to the parse-error
    code."""
    given = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(base)
             if getattr(args, f.name) is not None}
    try:
        return dataclasses.replace(base, **given)
    except ValueError as e:
        raise _BadFlag(str(e)) from None


def _emit(args, text):
    if args.report:
        fileio.atomic_write_text(args.report, text + "\n")
    print(text)


def cmd_solve_qp(args) -> int:
    data = fileio.load_qp(args.input)
    params = _override(FlowParams(), args)
    problem = qp_problem(data, params.cfg)
    res = solve(problem, params, FlowState(x=np.zeros(data.n), rho=0.0),
                _override(StopCriteria(), args),
                _override(IntegratorConfig(), args))
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
    if args.nc > ORACLE_NC_MAX:
        print(f"error: --nc {args.nc} exceeds the oracle bound "
              f"{ORACLE_NC_MAX}", file=sys.stderr)
        return EXIT_PARSE
    params = _override(FlowParams(), args)
    report = run_benchmark(args.count, args.n, args.nc, params,
                           _override(StopCriteria(), args),
                           _override(IntegratorConfig(), args),
                           seed=args.seed)
    out = args.report or "bench.csv"
    report.to_csv(out)
    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
        for row in report.rows:
            if row.result is None:
                continue
            # psi and f/f_oracle per retained sample, the figure data
            tr = row.result.trajectory
            lines = ["t,psi,f_ratio"]
            for r in tr:
                lines.append(f"{fileio.fmt(r[0])},{fileio.fmt(r[2])},"
                             f"{fileio.fmt(r[4] / row.f_oracle)}")
            fileio.atomic_write_text(
                os.path.join(args.trace, f"traj_seed{row.seed}.csv"),
                "\n".join(lines) + "\n")
    print(f"wrote {out}: {len(report.rows)} instances, "
          f"{'all passed' if report.passed else 'FAILING'}")
    if not report.passed:
        print("failing seeds: "
              + ",".join(str(s) for s in report.failing_seeds),
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_mpc(args) -> int:
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
    if args.steps is not None:
        steps = args.steps
    params = _override(FlowParams(), args)
    trace = simulate_closed_loop(plant, pqp, xi0, steps, params,
                                 _override(DEMO_STOP, args),
                                 _override(IntegratorConfig(), args))
    if args.trace:
        trace.to_csv(args.trace)
    max_u = float(np.abs(trace.u).max(initial=0.0))
    bounds_ok = max_u <= u_max + 1e-6
    print(f"steps={trace.u.shape[0]} final_|xi|="
          f"{float(np.linalg.norm(plant.A_d @ trace.xi[-1] + plant.B_d @ trace.u[-1])):.6e} "
          f"max|u|={max_u:.6f} all_converged={trace.all_converged} "
          f"bounds_ok={bounds_ok}")
    return EXIT_OK if trace.all_converged and bounds_ok else EXIT_SOLVER


def cmd_minlp(args) -> int:
    bp = fileio.load_binary_problem(args.input)
    params = _override(FlowParams(q=BINARY_Q), args)
    result = solve_binary(bp, params, _override(StopCriteria(), args),
                          _override(IntegratorConfig(), args),
                          max_minima=args.max_minima, mu_defl=args.mu_defl)
    oracle_f = None
    oracle_skipped = bp.n > ORACLE_N_MAX
    if not oracle_skipped:
        oracle = brute_force_oracle(bp)
        if oracle is not None:
            oracle_f = oracle[1]
    out = args.report or "minlp.csv"
    result.to_csv(out, oracle_f=oracle_f, oracle_skipped=oracle_skipped)
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
    cfg = _override(FlowParams(), args).cfg
    if args.kind == "qp":
        data = fileio.load_qp(args.input) if args.input else \
            generate_random_qp(args.n, args.nc, args.seed)[0]
        problem = qp_problem(data, cfg)
    else:
        if not args.input:
            print("error: --kind binary needs an input file",
                  file=sys.stderr)
            return EXIT_PARSE
        problem = binarize(fileio.load_binary_problem(args.input))
    rng = np.random.default_rng(args.seed)
    # np.max, unlike max, keeps a NaN deviation, which then fails the tol
    worst = float(np.max([
        check_gradients(problem, rng.standard_normal(problem.n), args.step,
                        cfg).worst
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
    _add_common(p)
    p.set_defaults(fn=cmd_solve_qp)

    p = sub.add_parser("bench", help="flow-vs-oracle benchmark on seeded "
                                     "random QPs")
    p.add_argument("--count", type=_POS_INT, default=50)
    p.add_argument("--n", type=_POS_INT, default=15)
    p.add_argument("--nc", type=_NONNEG_INT, default=20)
    _add_common(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("mpc", help="closed-loop MPC simulation")
    p.add_argument("input", nargs="?", default=None,
                   help="scenario file (default: built-in double "
                        "integrator)")
    p.add_argument("--steps", type=_POS_INT, default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_mpc)

    p = sub.add_parser("minlp", help="binary solve by deflation")
    p.add_argument("input")
    p.add_argument("--mu-defl", type=_POS_FLOAT, default=40.0)
    p.add_argument("--max-minima", type=_POS_INT, default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_minlp)

    p = sub.add_parser("check-grads", help="finite-difference gradient "
                                           "diagnostic")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--kind", choices=("qp", "binary"), default="qp")
    p.add_argument("--n", type=_POS_INT, default=15)
    p.add_argument("--nc", type=_NONNEG_INT, default=20)
    p.add_argument("--points", type=_POS_INT, default=10)
    p.add_argument("--step", type=_POS_FLOAT, default=1e-6)
    p.add_argument("--tol", type=_POS_FLOAT, default=1e-5)
    _add_common(p)
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
