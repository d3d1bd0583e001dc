"""Benchmark for rackforge: one workload, one process, one thread.

    python3 perfbench/run.py --workload alt-identify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory and nowhere else. The run runs whole rounds of the
workload's operations for about --seconds, timing each call into the
public API, sets the workload up between rounds (set-up time is the
median of at least five), and checks every output against computations
made apart from the program. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 every set-up and round is traced
and the run reports the per-layer figures instead (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# numpy, used only by the homology checks, must not start BLAS threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

perf_counter = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import rackforge from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "rackforge" / "__init__.py").is_file():
        raise SystemExit("perfbench: no rackforge sources under %s" % src)
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import rackforge

    if Path(rackforge.__file__).resolve().parent != (src / "rackforge").resolve():
        raise SystemExit("perfbench: imported rackforge from %s, not %s" % (rackforge.__file__, src))


class Round:
    """One round's wall time, per-call latencies and output summaries."""

    __slots__ = ("wall", "latencies", "outputs")

    def __init__(self, wall, latencies, outputs):
        self.wall = wall
        self.latencies = latencies
        self.outputs = outputs


def run_round(ops, summarize):
    gc.collect()  # every round starts from the same collector state
    latencies = []
    results = []
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            result = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        latencies.append(perf_counter() - t0)
        results.append(result)
    wall = perf_counter() - start
    # summaries, not results, are kept, so memory does not grow with rounds
    return Round(wall, latencies, [summarize(op, res) for op, res in zip(ops, results)])


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def plain_run(setup, summarize, seed, seconds):
    setup_times = []

    def timed_setup():
        t0 = perf_counter()
        ops = setup(seed)
        setup_times.append(perf_counter() - t0)
        return ops

    # one set-up before the first round and one after every round, topped
    # up at the end: spread through the run, a slow spell of the shared host
    # does not land on all of them
    ops = timed_setup()
    rounds = []
    measured = 0.0
    while True:
        rounds.append(run_round(ops, summarize))
        measured += rounds[-1].wall
        timed_setup()
        # stop before a round that would end past the run length
        if measured + rounds[-1].wall > seconds:
            break
    while len(setup_times) < SETUP_REPEATS:
        timed_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # every time figure is taken per round and then the median over rounds:
    # with three rounds or more, a slow spell of the host that covers one
    # round moves none of them
    sorted_latencies = [sorted(r.latencies) for r in rounds]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r.wall for r in rounds),
        "ops_per_s": statistics.median(len(ops) / r.wall for r in rounds),
        "op_p50_ms": statistics.median(percentile(lat, 50) for lat in sorted_latencies) * 1e3,
        "op_p99_ms": statistics.median(percentile(lat, 99) for lat in sorted_latencies) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    return ops, rounds, {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}


def perm_kernel_ns(seed):
    """ns per call of the public compose and conjugate at 11 and 26 points,
    median of seven batches."""
    import random

    from rackforge import perm

    rng = random.Random(seed)
    out = {}
    for degree in (11, 26):
        a = perm.Permutation(rng.sample(range(degree), degree))
        b = perm.Permutation(rng.sample(range(degree), degree))
        for name in ("compose", "conjugate"):
            func = getattr(perm, name)
            batches = []
            for _ in range(7):
                t0 = perf_counter()
                for _ in range(2000):
                    func(a, b)
                batches.append((perf_counter() - t0) / 2000 * 1e9)
            out["perm.%s_ns.d%d" % (name, degree)] = statistics.median(batches)
    return out


def layer_unit(metric):
    if metric.endswith("_ns.d11") or metric.endswith("_ns.d26"):
        return "ns"
    if metric.endswith(".s") or metric.endswith(".self_s") or metric == "trace.overhead_s":
        return "s"
    return "count"


def traced_run(setup, summarize, seed, seconds, workload):
    from tracing import Tracer, wrapper_cost_s

    tracer = Tracer()
    tracer.install()
    try:
        for i in range(SETUP_REPEATS):
            tracer.begin_phase("setup", i)
            ops = setup(seed)
        rounds = []
        measured = 0.0
        while True:
            tracer.begin_phase("round", len(rounds))
            rounds.append(run_round(ops, summarize))
            measured += rounds[-1].wall
            if measured + rounds[-1].wall > seconds:
                break
    finally:
        tracer.restore()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / ("trace-%s-seed%d.jsonl" % (workload, seed)))
    figures = tracer.layer_metrics()
    figures.update(perm_kernel_ns(seed))
    # the wrappers' cost in one round, from their measured cost per span; a
    # traced round's wall time less an untraced one's would be mostly the
    # host's drift between the two rounds
    figures["trace.overhead_s"] = tracer.spans_per_round() * wrapper_cost_s()
    return ops, rounds, {name: (value, layer_unit(name)) for name, value in figures.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(workloads.WORKLOADS)))
    setup, check = workloads.WORKLOADS[args.workload]
    if args.trace:
        ops, rounds, metrics = traced_run(setup, workloads.summarize, args.seed, args.seconds, args.workload)
    else:
        ops, rounds, metrics = plain_run(setup, workloads.summarize, args.seed, args.seconds)

    # checks run after the timed part; every round must repeat the first
    first = rounds[0].outputs
    problems = check(ops, first, args.seed)
    for number, r in enumerate(rounds[1:], 2):
        if r.outputs != first:
            problems.append("round %d gave different outputs from round 1" % number)
    for problem in problems[:20]:
        print("perfbench: check failed: %s" % problem, file=sys.stderr)

    failed = sum(out[0] == "error" for r in rounds for out in r.outputs)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
