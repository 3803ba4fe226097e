"""The benchmark's calls into the package.

``flowbench/`` drives the package through names such as
``FlowParams.cfg``, ``qp_problem(data, cfg)``,
``solve_binary(..., mu_defl=)``, ``mpc_step(..., warm=)`` and
``instantiate``. These tests run the benchmark's self-test and make
every workload's inputs and warm-up operation, so a change that breaks
one of those calls fails here, not in a benchmark run. Nothing is
written.
"""

import importlib
import sys
from pathlib import Path

import pytest

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
