"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 1-10

From the root of a checkout. Every workload of BENCHMARK.json is run for
its run_seconds, seed by seed, cycling through the workloads; each
end-to-end metric is then given as the median of its values, the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, and the range. This is how the reference figures in
README.md were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, capture_output=True, text=True, check=True)
            results[workload].append(json.loads(done.stdout.strip().splitlines()[-1]))
    for workload, rows in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in rows})
        print("%s: %d runs, all correct: %s, failed share: %s"
              % (workload, len(rows), all(r["correct"] for r in rows), shares))
        for name, first in rows[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in rows]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = "%.3f" % ((q3 - q1) / median)
            else:
                spread = "-"
            print("  %-12s %14.6g %-5s spread %s  range %.6g-%.6g"
                  % (name, median, first["unit"], spread, min(values), max(values)))


if __name__ == "__main__":
    main()
