"""Run one workload of the penalty-flow benchmark and print its metrics.

    python3 flowbench/run.py --workload qp_bench --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src`` directory. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. A record of the run is also
written under ``flowbench/out/``. See README.md for the workloads and
the meaning of every metric.
"""

import os

# one BLAS and OpenMP thread; this must happen before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import penaltyflow  # noqa: E402

# an installed copy of the package must not stand in for the checkout's
if Path(penaltyflow.__file__).resolve().parent.parent != SRC:
    sys.exit(f"penaltyflow imported from {penaltyflow.__file__}, not {SRC}")

import workloads  # noqa: E402
import tracing  # noqa: E402
from penaltyflow import qp  # noqa: E402

# separate processes that each import, make the inputs and warm up;
# setup_s is their median
SETUP_SAMPLES = 5
# operations beyond the tail percentile, and the fewest operations for
# which that percentile is a tail rather than the slowest operation
TAIL_BEYOND = 10
TAIL_MIN_OPS = 40


class Timer:
    """Times each program call; around it, a traced run opens and
    closes the operation in the tracer."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall_ms = []
        self.cpu_s = 0.0

    def __call__(self, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.begin_op()
        c0 = time.process_time()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        c1 = time.process_time()
        if self.tracer is not None:
            self.tracer.end_op()
        self.wall_ms.append(1e3 * (t1 - t0))
        self.cpu_s += c1 - c0
        return out


def setup_seconds(args):
    """Wall time from starting a fresh process to its first timed
    operation being due, once per sample."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if line != b"ready\n" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        samples.append(t1 - t0)
    return samples


def end_to_end(timer, pass_s, setup_samples, rss_mb):
    ops = len(timer.wall_ms)
    ordered = sorted(timer.wall_ms)
    tail = (ordered[ops - 1 - TAIL_BEYOND] if ops >= TAIL_MIN_OPS
            else ordered[-1])
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_ms.p50": (statistics.median(timer.wall_ms), "ms"),
        "op_ms.tail": (tail, "ms"),
        "ops_per_s": (ops / pass_s, "1/s"),
        "cpu_ms_per_op": (1e3 * timer.cpu_s / ops, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.inputs(args.seed)
    workload.warm_up()
    if args.setup_probe:
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    oracle_ms = 0.0
    if args.trace:
        # one round: per-operation counts do not depend on the length
        with tracing.installed(tracing.Tracer()) as tracer:
            timer = Timer(tracer)
            outputs = workload.run_round(inputs, timer)
        for data in workload.oracle_inputs(inputs, outputs):
            t0 = time.perf_counter()
            qp.active_set_oracle(data)
            oracle_ms += 1e3 * (time.perf_counter() - t0)
    else:
        timer = Timer()
        rounds = max(1, int(args.seconds // workload.round_seconds))
        t0 = time.perf_counter()
        outputs = []
        for _ in range(rounds):
            outputs += workload.run_round(inputs, timer)
        pass_s = time.perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = workload.check(outputs)
    failures = [r for r in records if r["reason"] is not None]
    correct = all(r.get("known_fault") for r in failures)

    if args.trace:
        metrics = tracing.layer_metrics(tracer, records, timer.wall_ms,
                                        oracle_ms)
    else:
        metrics = end_to_end(timer, pass_s, setup_seconds(args), rss_mb)

    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, op_ms=timer.wall_ms,
                  failures=[f"{r['op']}: {r['reason']}" for r in failures])
    if args.trace:
        record["ops"] = tracer.ops
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    for line in record["failures"]:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
