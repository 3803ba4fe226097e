"""Per-layer tracing for the traced run, installed from outside the
program.

``installed(tracer)`` wraps, for the duration of a ``with`` block:

* the Problem evaluators f, f_x, c and c_x, by rebuilding each Problem
  handed to ``solve`` (layer ``problem``);
* ``flow_rhs`` as the integrator module sees it (layer ``flow``);
* ``eval_penalty`` and ``eval_g`` as the integrator module sees them,
  which is the post-step measure pass, a scipy ``BDF`` subclass that
  times the Jacobian, the LU factorisation and the LU solves and keeps
  the stepper for its nfev, njev and nlu counters, and ``solve`` itself
  wherever the package calls it (layer ``integrator``);
* ``extract_multipliers`` and ``kkt_residuals`` (layer ``kkt``).

A name the package no longer has is left alone, and its metrics read 0.
Spans are aggregated per operation in memory: for every span name the
number of calls, the total time and the self time (total minus the time
of the spans nested in it).
"""

import dataclasses
import time
from contextlib import contextmanager

from penaltyflow import binary, integrator, mpc

PROBLEM_FIELDS = ("f", "f_x", "c", "c_x")
PROBLEM_SPANS = tuple(f"problem.{field}" for field in PROBLEM_FIELDS)


class Tracer:
    """Span and counter aggregates, one dict per operation."""

    def __init__(self):
        self._stack = []
        self.op = None
        self.ops = []

    def begin_op(self):
        self.op = {"spans": {}, "steppers": [], "solves": 0, "steps": 0,
                   "restarts": 0}

    def end_op(self):
        op, self.op = self.op, None
        steppers = op.pop("steppers")
        for counter in ("nfev", "njev", "nlu"):
            op[counter] = sum(getattr(s, counter) for s in steppers)
        self.ops.append(op)

    def wrap(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                if self.op is not None:
                    agg = self.op["spans"].setdefault(name, [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - children[0]
        return traced

    def total(self, name, field):
        """Sum over operations of a span's count (0), total seconds (1)
        or self seconds (2)."""
        return sum(op["spans"].get(name, (0, 0.0, 0.0))[field]
                   for op in self.ops)


def _traced_bdf(tracer, base):
    class TracedBDF(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tracer.op["steppers"].append(self)
            self.lu = tracer.wrap("integrator.lu", self.lu)
            self.solve_lu = tracer.wrap("integrator.lu", self.solve_lu)

        def _validate_jac(self, jac, sparsity):
            # builds the first Jacobian, then returns the callable that
            # builds the later ones
            jac_fn, J = tracer.wrap("integrator.jac",
                                    super()._validate_jac)(jac, sparsity)
            if jac_fn is not None:
                jac_fn = tracer.wrap("integrator.jac", jac_fn)
            return jac_fn, J
    return TracedBDF


def _traced_solve(tracer, solve):
    timed_solve = tracer.wrap("integrator.solve", solve)

    def traced(problem, *args, **kwargs):
        problem = dataclasses.replace(problem, **{
            field: tracer.wrap(f"problem.{field}", getattr(problem, field))
            for field in PROBLEM_FIELDS})
        result = timed_solve(problem, *args, **kwargs)
        tracer.op["solves"] += 1
        tracer.op["steps"] += result.accepted_steps
        tracer.op["restarts"] += result.restarts
        return result
    return traced


@contextmanager
def installed(tracer):
    saved = []

    def patch(module, name, make):
        if hasattr(module, name):
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, make(getattr(module, name)))

    patch(integrator, "flow_rhs", lambda f: tracer.wrap("flow.rhs", f))
    for name in ("eval_penalty", "eval_g"):
        patch(integrator, name, lambda f: tracer.wrap("integrator.measure", f))
    for name in ("extract_multipliers", "kkt_residuals"):
        patch(integrator, name, lambda f: tracer.wrap("kkt", f))
    patch(integrator, "BDF", lambda cls: _traced_bdf(tracer, cls))
    solve = _traced_solve(tracer, integrator.solve)
    for module in (integrator, mpc, binary):
        patch(module, "solve", lambda _: solve)
    try:
        yield tracer
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def layer_metrics(tracer, records, op_ms, oracle_ms):
    """Per-layer metrics of a traced round, per operation unless the
    name says otherwise. ``records`` are the workload's check records,
    ``op_ms`` the traced wall time of each operation and ``oracle_ms``
    the total time of ``active_set_oracle`` on the round's QPs."""
    ops = len(tracer.ops)
    per_op = lambda v: v / ops
    ms = lambda name, field: per_op(1e3 * tracer.total(name, field))
    counts = {c: sum(op[c] for op in tracer.ops)
              for c in ("steps", "restarts", "nfev", "njev", "nlu")}
    problem_evals = sum(tracer.total(n, 0) for n in PROBLEM_SPANS)
    problem_s = sum(tracer.total(n, 1) for n in PROBLEM_SPANS)
    saturated = sum(t for t, r in zip(op_ms, records) if r.get("saturated"))
    inner = sum(r.get("inner_solves", 0) for r in records)
    distinct = sum(r.get("distinct_vertices", 0) for r in records)
    return {
        "problem.evals": (per_op(problem_evals), "count"),
        "problem.ms": (per_op(1e3 * problem_s), "ms"),
        "flow.rhs_calls": (per_op(tracer.total("flow.rhs", 0)), "count"),
        "flow.rhs_self_ms": (ms("flow.rhs", 2), "ms"),
        "integrator.steps": (per_op(counts["steps"]), "count"),
        "integrator.nfev": (per_op(counts["nfev"]), "count"),
        "integrator.njev": (per_op(counts["njev"]), "count"),
        "integrator.nlu": (per_op(counts["nlu"]), "count"),
        "integrator.rhs_per_step": (
            counts["nfev"] / counts["steps"] if counts["steps"] else 0.0,
            "ratio"),
        "integrator.jac_ms": (ms("integrator.jac", 1), "ms"),
        "integrator.lu_ms": (ms("integrator.lu", 1), "ms"),
        "integrator.measure_ms": (ms("integrator.measure", 1), "ms"),
        "integrator.self_ms": (ms("integrator.solve", 2), "ms"),
        "integrator.restarts": (per_op(counts["restarts"]), "count"),
        "kkt.ms": (ms("kkt", 1), "ms"),
        "kkt.mu_err_max": (
            max((r.get("mu_err", 0.0) for r in records), default=0.0), "1"),
        "qp.rel_gap_max": (
            max((r.get("rel_gap", 0.0) for r in records), default=0.0), "1"),
        "qp.oracle_ms": (per_op(oracle_ms), "ms"),
        "mpc.saturated_ms_share": (saturated / sum(op_ms), "ratio"),
        "binary.inner_solves": (per_op(inner), "count"),
        "binary.distinct_vertices": (per_op(distinct), "count"),
        "binary.distinct_per_inner": (distinct / inner if inner else 0.0,
                                      "ratio"),
    }
