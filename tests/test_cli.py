"""Command-line interface: exit codes, reports, and trace files."""

import argparse
import dataclasses
import json

import numpy as np
import pytest

import penaltyflow as pf
from penaltyflow import cli
from penaltyflow.binary import BINARY_Q
from penaltyflow.cli import EXIT_OK, EXIT_PARSE, EXIT_SOLVER, main
from penaltyflow.errors import EvaluationError


def _write_json(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _descent_qp(tmp_path):
    # interior optimum at (2, 0), constraint x0 >= -1 never active
    return _write_json(tmp_path, "qp.json",
                       {"n": 2, "nc": 1, "H": [1.0, 0.0, 0.0, 1.0],
                        "F": [-2.0, 0.0], "A": [-1.0, 0.0], "B": [-1.0]})


def _knapsack_file(tmp_path):
    return _write_json(tmp_path, "knap.json",
                       {"n": 2, "H": [0.0, 0.0, 0.0, 0.0],
                        "F": [-1.0, -2.0], "A": [1.0, 1.0], "B": [1.0]})


class TestSolveQp:
    def test_converged_run_writes_trace_and_report(self, tmp_path, capsys):
        trace = tmp_path / "traj.csv"
        report = tmp_path / "report.txt"
        rc = main(["solve-qp", _descent_qp(tmp_path),
                   "--trace", str(trace), "--report", str(report)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.startswith("status=converged")
        assert "stationarity=" in out
        assert trace.read_text().splitlines()[0] == \
            "t,rho,psi,g,f,fbar,x0,x1"
        assert report.read_text().startswith("status=converged")

    def test_budget_exhaustion_is_solver_failure(self, tmp_path, capsys):
        rc = main(["solve-qp", _descent_qp(tmp_path), "--max-steps", "5"])
        assert rc == EXIT_SOLVER
        assert "status=step_budget_exhausted" in capsys.readouterr().out

    def test_unevaluable_start(self, tmp_path, capsys, monkeypatch):
        # a run that measured no state reports no KKT residuals
        def failing_problem(data):
            def c(x):
                raise EvaluationError(0)
            return dataclasses.replace(pf.qp_problem(data), c=c)

        monkeypatch.setattr(cli, "qp_problem", failing_problem)
        rc = main(["solve-qp", _descent_qp(tmp_path)])
        out = capsys.readouterr().out
        assert rc == EXIT_SOLVER
        assert out.startswith("status=rhs_failure")
        assert "stationarity=" not in out

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["solve-qp", str(tmp_path / "absent.json")])
        assert rc == EXIT_PARSE
        assert "error:" in capsys.readouterr().err


class TestBench:
    def test_small_sweep_passes(self, tmp_path, capsys):
        report = tmp_path / "bench.csv"
        rc = main(["bench", "--count", "2", "--n", "3", "--nc", "2",
                   "--report", str(report)])
        assert rc == EXIT_OK
        assert "all passed" in capsys.readouterr().out
        lines = report.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("seed,n,nc,status")

    def test_trace_directory(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        rc = main(["bench", "--count", "1", "--n", "3", "--nc", "2",
                   "--report", str(tmp_path / "bench.csv"),
                   "--trace", str(trace_dir)])
        assert rc == EXIT_OK
        traj = (trace_dir / "traj_seed0.csv").read_text().splitlines()
        assert traj[0] == "t,psi,f_ratio"
        assert len(traj) > 1

    def test_large_nc_accepted(self, tmp_path, capsys):
        report = tmp_path / "bench.csv"
        rc = main(["bench", "--count", "1", "--n", "2", "--nc", "26",
                   "--report", str(report)])
        assert rc == EXIT_OK
        assert "all passed" in capsys.readouterr().out
        row = report.read_text().splitlines()[1].split(",")
        assert row[:4] == ["0", "2", "26", "converged"]

    def test_failing_seed_reported(self, tmp_path, capsys):
        rc = main(["bench", "--count", "1", "--n", "3", "--nc", "2",
                   "--max-steps", "5",
                   "--report", str(tmp_path / "bench.csv")])
        captured = capsys.readouterr()
        assert rc == EXIT_SOLVER
        assert "FAILING" in captured.out
        assert "failing seeds: 0" in captured.err


class TestMpc:
    def test_builtin_demo_short_run(self, capsys):
        rc = main(["mpc", "--steps", "5"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.startswith("steps=5")
        assert "bounds_ok=True" in out
        assert "all_converged=True" in out

    def test_scenario_file_with_trace(self, tmp_path, capsys):
        doc = {
            "plant": {"n_xi": 2, "n_u": 1,
                      "A_d": [1.0, 0.1, 0.0, 1.0],
                      "B_d": [0.005, 0.1]},
            "horizon": 3,
            "u_max": 0.5,
            "Q": [1.0, 0.0, 0.0, 1.0],
            "R": [0.1],
            "P": [1.0, 0.0, 0.0, 1.0],
            "xi0": [0.2, 0.0],
            "steps": 4,
        }
        trace = tmp_path / "loop.csv"
        rc = main(["mpc", _write_json(tmp_path, "s.json", doc),
                   "--trace", str(trace)])
        assert rc == EXIT_OK
        lines = trace.read_text().splitlines()
        assert lines[0] == "k,xi0,xi1,u0,status,psi_final,g_final,steps"
        assert len(lines) == 5

    def test_report_holds_summary(self, tmp_path, capsys):
        report = tmp_path / "r.txt"
        rc = main(["mpc", "--steps", "2", "--report", str(report)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.startswith("steps=2")
        assert report.read_text() == out


class TestMinlp:
    def test_knapsack(self, tmp_path, capsys):
        report = tmp_path / "minlp.csv"
        rc = main(["minlp", _knapsack_file(tmp_path),
                   "--report", str(report)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "best=01" in out
        assert "gap=0.000000e+00" in out
        lines = report.read_text().splitlines()
        assert lines[0].startswith("s,x_s,f_original")
        assert lines[1].split(",")[1] == "01"

    def test_large_problem_skips_oracle(self, tmp_path, capsys):
        doc = {"n": 21, "H": [0.0] * 441, "F": [-1.0] * 21}
        rc = main(["minlp", _write_json(tmp_path, "b21.json", doc),
                   "--max-minima", "1",
                   "--report", str(tmp_path / "r.csv")])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "best=" + "1" * 21 in out
        assert "gap=skipped" in out

    def test_infeasible_natives(self, tmp_path, capsys):
        doc = {"n": 2, "H": [0.0] * 4, "F": [0.0, 0.0],
               "A": [1.0, 1.0], "B": [-1.0]}
        rc = main(["minlp", _write_json(tmp_path, "binf.json", doc),
                   "--rho-max", "10.0",
                   "--report", str(tmp_path / "r.csv")])
        assert rc == EXIT_SOLVER
        assert "no native-feasible" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        rc = main(["minlp", str(p), "--report", str(tmp_path / "r.csv")])
        assert rc == EXIT_PARSE
        assert "error:" in capsys.readouterr().err


class TestCheckGrads:
    def test_seeded_qp(self, capsys):
        rc = main(["check-grads", "--n", "4", "--nc", "3",
                   "--points", "3"])
        assert rc == EXIT_OK
        assert "worst relative deviation" in capsys.readouterr().out

    def test_qp_from_file(self, tmp_path, capsys):
        rc = main(["check-grads", _descent_qp(tmp_path), "--points", "2"])
        assert rc == EXIT_OK

    def test_binary_kind_needs_file(self, capsys):
        rc = main(["check-grads", "--kind", "binary"])
        assert rc == EXIT_PARSE
        assert "needs an input file" in capsys.readouterr().err

    def test_binary_from_file(self, tmp_path, capsys):
        rc = main(["check-grads", _knapsack_file(tmp_path),
                   "--kind", "binary", "--points", "3"])
        assert rc == EXIT_OK

    def test_unattainable_tolerance(self, capsys):
        rc = main(["check-grads", "--n", "3", "--nc", "2",
                   "--points", "2", "--tol", "1e-300"])
        assert rc == EXIT_SOLVER

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_deviation_fails(self, tmp_path, capsys):
        # f = 1e308 x^2 overflows, so every deviation is NaN
        path = _write_json(tmp_path, "qp.json", {**_QP_DOC, "H": [1e308]})
        rc = main(["check-grads", path, "--points", "3"])
        assert rc == EXIT_SOLVER
        assert "deviation over 3 points: nan" in capsys.readouterr().out


class TestParser:
    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_PARSE

    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["bench", "--does-not-exist"]) == EXIT_PARSE
        # the explicit stepper, its options and the step-size and
        # sampling knobs are gone
        qp = _descent_qp(tmp_path)
        for flags in (["--method", "rk45"], ["--h-min", "1e-9"],
                      ["--mode", "plain"], ["--h-init", "1e-6"],
                      ["--h-max", "1.0"], ["--sample-stride", "10"]):
            assert main(["solve-qp", qp, *flags]) == EXIT_PARSE

    @pytest.mark.parametrize("flags", [
        ["--rtol", "0"], ["--q", "0"], ["--gamma", "nan"],
        ["--gamma", "inf"], ["--t-max", "nan"], ["--lambda", "nan"],
        ["--lambda", "inf"], ["--rtol", "nan"], ["--rtol", "inf"],
        ["--atol", "nan"], ["--atol", "inf"], ["--eps-psi", "nan"],
        ["--eps-g", "nan"], ["--rho-max", "nan"], ["--rtol", "1e-16"],
    ])
    def test_rejected_config_value(self, tmp_path, capsys, flags):
        # parsed fine, refused by the config dataclass: still exit 2
        assert main(["solve-qp", _descent_qp(tmp_path), *flags]) \
            == EXIT_PARSE
        assert "error:" in capsys.readouterr().err

    def test_horizon_shorter_than_first_step(self, tmp_path, capsys):
        # the first step is cut to the horizon
        rc = main(["solve-qp", _descent_qp(tmp_path), "--t-max", "1e-7"])
        assert rc == EXIT_SOLVER
        assert "status=t_max_reached" in capsys.readouterr().out

    def test_infinite_horizons_accepted(self, tmp_path, capsys):
        rc = main(["solve-qp", _descent_qp(tmp_path), "--t-max", "inf",
                   "--rho-max", "inf"])
        assert rc == EXIT_OK
        assert "status=converged" in capsys.readouterr().out

    @pytest.mark.parametrize("command, flag, value", [
        ("check-grads", "--step", "0"), ("check-grads", "--n", "0"),
        ("check-grads", "--nc", "-1"), ("check-grads", "--points", "0"),
        ("bench", "--n", "0"), ("bench", "--nc", "-1"),
        ("bench", "--count", "0"), ("minlp", "--max-minima", "0"),
        ("minlp", "--mu-defl", "0"), ("minlp", "--mu-defl", "nan"),
        ("mpc", "--steps", "0"), ("bench", "--seed", "-1"),
        ("check-grads", "--seed", "-1"), ("check-grads", "--tol", "-1"),
        ("check-grads", "--tol", "nan"),
    ])
    def test_out_of_range_subcommand_flag(self, tmp_path, capsys, command,
                                          flag, value):
        # refused while parsing, before any work; bench and minlp would
        # otherwise write their report here
        argv = [command, flag, value, "--report", str(tmp_path / "r.csv")]
        if command == "minlp":
            argv.insert(1, _knapsack_file(tmp_path))
        assert main(argv) == EXIT_PARSE
        assert f"argument {flag}: must be" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


_CONFIG_FLAGS = {"--lambda", "--gamma", "--q", "--mode", "--m", "--rtol",
                 "--atol", "--eps-psi", "--eps-g", "--t-max", "--rho-max",
                 "--max-steps"}


class TestFlagReaders:
    def test_registered_flags(self):
        # each subcommand registers exactly the flags it reads
        expected = {
            "solve-qp": _CONFIG_FLAGS | {"--trace", "--report"},
            "bench": _CONFIG_FLAGS | {"--count", "--n", "--nc", "--seed",
                                      "--trace", "--report"},
            "mpc": _CONFIG_FLAGS | {"--steps", "--trace", "--report"},
            "minlp": _CONFIG_FLAGS | {"--mu-defl", "--max-minima",
                                      "--report"},
            "check-grads": {"--kind", "--n", "--nc", "--points", "--step",
                            "--tol", "--seed"},
        }
        sub, = (a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        registered = {
            name: {s for a in p._actions for s in a.option_strings
                   if s != "--help" and s.startswith("--")}
            for name, p in sub.choices.items()}
        assert registered == expected

    def test_defaults_stated_per_subcommand(self):
        ap = cli.build_parser()
        params, stop, config = cli._configs(ap.parse_args(["minlp", "k"]))
        assert (params, stop, config) == (pf.FlowParams(q=BINARY_Q),
                                          pf.StopCriteria(),
                                          pf.IntegratorConfig())
        params, stop, config = cli._configs(ap.parse_args(
            ["mpc", "--lambda", "0.5", "--eps-g", "0.01", "--rtol", "0.1"]))
        assert params == pf.FlowParams(lam=0.5)
        assert stop == dataclasses.replace(pf.DEMO_STOP, eps_g=0.01)
        assert config == pf.IntegratorConfig(rtol=0.1)

    @pytest.mark.parametrize("argv", [
        ["check-grads", "--m", "0"], ["check-grads", "--rtol", "0"],
        ["minlp", "knap.json", "--trace", "t.csv"],
        ["mpc", "--steps", "1", "--seed", "1"],
        ["solve-qp", "qp.json", "--seed", "1"],
    ])
    def test_unread_flag_refused(self, tmp_path, capsys, monkeypatch, argv):
        # a flag the subcommand would ignore is refused before any work
        monkeypatch.chdir(tmp_path)
        inputs = {_knapsack_file(tmp_path), _descent_qp(tmp_path)}
        assert main(argv) == EXIT_PARSE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert {str(f) for f in tmp_path.iterdir()} == inputs

    @pytest.mark.parametrize("argv", [
        ["check-grads", "qp.json", "--n", "5", "--nc", "7"],
        ["check-grads", "--kind", "binary", "knap.json", "--n", "9"],
    ])
    def test_generator_size_refused_with_file(self, tmp_path, capsys,
                                              monkeypatch, argv):
        # --n and --nc size only a generated QP; a file has its own size
        monkeypatch.chdir(tmp_path)
        _knapsack_file(tmp_path)
        _descent_qp(tmp_path)
        assert main(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "--n and --nc size a generated QP" in err


def _mpc_doc(**fields):
    doc = {"plant": {"n_xi": 1, "n_u": 1, "A_d": [1.0], "B_d": [1.0]},
           "horizon": 2, "u_max": 0.5, "Q": [1.0], "R": [1.0], "P": [1.0],
           "steps": 1}
    doc.update(fields)
    return doc


_QP_DOC = {"n": 1, "nc": 1, "H": [1.0], "F": [0.0], "A": [1.0], "B": [1.0]}
_BINARY_DOC = {"n": 2, "H": [0.0] * 4, "F": [0.0, 0.0], "A": [1.0, 1.0],
               "B": [1.0]}
_NAN, _INF = float("nan"), float("inf")


class TestMalformedFiles:
    @pytest.mark.parametrize("command, doc, field", [
        ("minlp", {**_BINARY_DOC, "A": ["x", 1.0]}, "A"),
        ("minlp", {**_BINARY_DOC, "A": [_NAN, 1.0]}, "A"),
        ("minlp", {**_BINARY_DOC, "F": [0.0, -_INF]}, "F"),
        ("mpc", _mpc_doc(u_max="x"), "u_max"),
        ("mpc", _mpc_doc(u_max=_NAN), "u_max"),
        ("mpc", _mpc_doc(u_max=_INF), "u_max"),
        ("mpc", _mpc_doc(Q=[_NAN]), "Q"),
        ("mpc", _mpc_doc(xi0=[_INF]), "xi0"),
        ("solve-qp", {**_QP_DOC, "F": [_NAN]}, "F"),
        ("solve-qp", {**_QP_DOC, "H": [_INF]}, "H"),
        ("solve-qp", {**_QP_DOC, "B": [-_INF]}, "B"),
        ("solve-qp", {**_QP_DOC, "H": ["1"]}, "H"),
        ("minlp", {**_BINARY_DOC, "F": [True, 0.0]}, "F"),
    ])
    def test_typed_error_and_exit_2(self, tmp_path, capsys, command, doc,
                                    field):
        # json.dumps writes non-finite floats as NaN / Infinity literals
        rc = main([command, _write_json(tmp_path, "in.json", doc),
                   "--report", str(tmp_path / "r.csv")])
        assert rc == EXIT_PARSE
        assert f"bad or missing field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, code", [
        # the flow converges at its start x = 0
        ("solve-qp", {**_QP_DOC, "H": [1e308]}, EXIT_OK),
        # f overflows on every inner solve, so no vertex is found
        ("minlp", {**_BINARY_DOC, "H": [1e308, 0.0, 0.0, 1e308]},
         EXIT_SOLVER),
        # A_d^2 = 1e400: the condensed QP overflows
        ("mpc", _mpc_doc(plant={"n_xi": 1, "n_u": 1, "A_d": [1e200],
                                "B_d": [1.0]}, horizon=3), EXIT_PARSE),
        # the Newton matrix I - cJ overflows at long steps, so Newton
        # fails there and the step shrinks; the flow converges
        ("solve-qp", {"n": 2, "nc": 1, "H": [1e300, 0.0, 0.0, 1.0],
                      "F": [0.0, 1.0], "A": [0.0, -1.0], "B": [-1.0]},
         EXIT_OK),
        # the first-step rule gives h = 0 at every restart
        ("solve-qp", {"n": 2, "nc": 1, "H": [1e100, 0.0, 0.0, 1.0],
                      "F": [1.0, 1.0], "A": [1.0, 1.0], "B": [-1.0]},
         EXIT_SOLVER),
    ], ids=["qp", "binary", "mpc", "qp-newton-overflow",
            "qp-zero-first-step"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_entries(self, tmp_path, capsys, command, doc,
                                 code):
        # finite entries whose sums overflow end in an exit code, never
        # in a traceback, and print no numpy warning ahead of it
        rc = main([command, _write_json(tmp_path, "in.json", doc),
                   "--report", str(tmp_path / "r.csv")])
        assert rc == code
        if code == EXIT_PARSE:
            assert "error: the QP condensed over horizon 3" \
                in capsys.readouterr().err


# optional fields, whose absence is valid
_OPTIONAL = {"mpc": {"xi0", "steps"}}
# a numeric string, a bool, null, NaN and a ragged nested list
_BAD_VALUES = ["1", True, None, _NAN, [[1.0], [1.0, 2.0]]]


def _mutations(command, doc, rng):
    """Malformed variants of a valid document, as (description, doc):
    every required field (also those of a nested object) dropped, every
    field replaced by each bad value, every number made negative, every
    list truncated, and a seeded choice of list entries replaced by each
    bad value."""
    def edit(path, change):
        new = json.loads(json.dumps(doc))
        *outer, key = path
        target = new
        for k in outer:
            target = target[k]
        change(target, key)
        return new

    def paths(d, prefix=()):
        for key, value in d.items():
            yield prefix + (key,), value
            if isinstance(value, dict):
                yield from paths(value, prefix + (key,))

    for path, value in paths(doc):
        name = ".".join(path)
        if path[-1] not in _OPTIONAL.get(command, ()):
            yield f"drop {name}", edit(path, lambda t, k: t.pop(k))
        for bad in _BAD_VALUES:
            yield f"{name} = {bad!r}", edit(
                path, lambda t, k, bad=bad: t.__setitem__(k, bad))
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield f"{name} negative", edit(
                path, lambda t, k: t.__setitem__(k, -1 - t[k]))
        if isinstance(value, list):
            yield f"truncate {name}", edit(path, lambda t, k: t[k].pop())
            for i in sorted(set(rng.integers(len(value), size=2))):
                for bad in _BAD_VALUES:
                    yield f"{name}[{i}] = {bad!r}", edit(
                        path,
                        lambda t, k, i=i, bad=bad: t[k].__setitem__(i, bad))


class TestFileFuzz:
    @pytest.mark.parametrize("command, doc", [
        ("solve-qp", _QP_DOC), ("minlp", _BINARY_DOC),
        ("mpc", _mpc_doc(xi0=[0.0])),
    ], ids=["qp", "binary", "mpc"])
    def test_mutations_exit_2(self, tmp_path, capsys, command, doc):
        # one step at most, so a mutation that slipped through ends fast
        # instead of running a full solve
        argv = [command, str(tmp_path / "in.json"), "--max-steps", "1",
                "--report", str(tmp_path / "r.csv")]
        _write_json(tmp_path, "in.json", doc)
        assert main(argv) != EXIT_PARSE
        capsys.readouterr()
        escaped = []
        cases = list(_mutations(command, doc, np.random.default_rng(0)))
        for what, bad in cases:
            _write_json(tmp_path, "in.json", bad)
            rc = main(argv)
            if rc != EXIT_PARSE or "error:" not in capsys.readouterr().err:
                escaped.append(f"{what}: exit {rc}")
        assert len(cases) >= 60
        assert escaped == []
