"""The benchmark's calls into the package.

``flowbench/`` drives the package through names such as
``FlowParams.cfg``, ``qp_problem(data, cfg)``,
``solve_binary(..., mu_defl=)``, ``mpc_step(..., warm=)`` and
``instantiate``. These tests run the benchmark's self-test and make
every workload's inputs and warm-up operation, so a change that breaks
one of those calls fails here, not in a benchmark run. One traced solve
checks that the per-layer metrics the tracer can read today are live.
Nothing is written.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import penaltyflow as pf
from penaltyflow import integrator

FLOWBENCH = Path(__file__).resolve().parent.parent / "flowbench"


@pytest.fixture(scope="module")
def flowbench():
    """The ``selftest`` and ``workloads`` modules, imported the way
    ``flowbench/run.py`` imports its siblings."""
    saved = list(sys.path)
    sys.path.insert(0, str(FLOWBENCH))
    try:
        yield (importlib.import_module("selftest"),
               importlib.import_module("workloads"))
    finally:
        sys.path[:] = saved


def test_selftest_passes(flowbench, capsys):
    selftest, _ = flowbench
    assert selftest.main() == 0, capsys.readouterr().out


def test_workloads_make_inputs_and_warm_up(flowbench):
    _, workloads = flowbench
    assert set(workloads.WORKLOADS) == {"qp_bench", "mpc_episodes",
                                        "binary_deflation"}
    for workload in workloads.WORKLOADS.values():
        w = workload()
        assert w.inputs(0)
        w.warm_up()


def test_traced_solve_reads_live_metrics(flowbench):
    # integrator.jac_ms, integrator.measure_ms and kkt.ms read 0 until
    # the tracer repairs of ROADMAP.md item 1 land, so they are left out
    tracing = importlib.import_module("tracing")
    data, _ = pf.generate_random_qp(6, 4, seed=2)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.begin_op()
        # solve is looked up on its module, where the tracer wraps it
        integrator.solve(pf.qp_problem(data), pf.FlowParams(),
                         pf.FlowState(x=np.zeros(data.n)),
                         pf.StopCriteria(), pf.IntegratorConfig())
        tracer.end_op()
    metrics = {name: value for name, (value, _) in
               tracing.layer_metrics(tracer, [{}], [1.0], 0.0).items()}
    for name in ("problem.evals", "integrator.steps", "integrator.njev",
                 "integrator.nlu", "integrator.lu_ms"):
        assert metrics[name] > 0, name
    assert metrics["flow.rhs_calls"] == metrics["integrator.nfev"]
