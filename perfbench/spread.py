#!/usr/bin/env python3
"""Run a workload with several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload serve-mixed --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints,
per end-to-end metric, the median and the spread (Q3 - Q1) / median of
the runs, against a third of the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.stats import quartile_spread  # noqa: E402


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print("seed %d failed (exit %d):\n%s"
                  % (seed, proc.returncode, proc.stderr), file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print("seed %d: correct %s, %d/%d failed, %s" % (
            seed, result["correct"], result["failed"], result["attempted"],
            ", ".join("%s %.4g" % (name, entry["value"])
                      for name, entry in result["metrics"].items())))
    if len(runs) < 2:
        return 0
    print("%-20s %14s %8s %8s" % ("metric", "median", "spread", "bound/3"))
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        bound = bounds.get(name)
        print("%-20s %14.6g %7.2f%% %s" % (
            name, statistics.median(values), 100 * quartile_spread(values),
            "%7.2f%%" % (100 * bound / 3) if bound else "-"))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
