#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-timing --seed 1 \\
        --seconds 30 --trace 0

Workloads: ``sweep-timing``, ``sweep-functional``, ``serve-mixed``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that gives the per-layer metrics.  Every metric is
printed by name with its unit, with the run's environment (nproc,
Python, git revision) and checks; the last line of standard output is
the JSON result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full record (detail metrics, notes, environment) is also written to
``.perfbench/runs/``, and a traced run's spans to a JSON-lines file
beside it.  ``--record`` computes the expected result digests of its
(workload, seed) into ``perfbench/digests.json`` instead of running.

Exits 2 without a result when the directory holds no ``src/repro`` to
benchmark, and 1 when the run itself fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep-timing", "sweep-functional", "serve-mixed")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="compute and store the expected result "
                             "digests of (workload, seed), then exit")
    return parser.parse_args(argv)


def git_revision(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(root: str) -> str:
    """Digest of the program's sources, for checkouts without git."""
    digest = hashlib.blake2b(digest_size=8)
    src = os.path.join(root, "src")
    for directory, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def environment(root: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": git_revision(root),
        "source_digest": source_digest(root),
    }


def _execute(args, workdir, tracer, check):
    from perfbench import serve, sweeps

    if args.workload == "serve-mixed":
        if args.trace:
            return serve.run_traced(ROOT, workdir, args.seed, args.seconds,
                                    tracer, check)
        return serve.run(ROOT, workdir, args.seed, args.seconds, check)
    if args.trace:
        return sweeps.run_traced(args.workload, args.seed, tracer, check)
    return sweeps.run(args.workload, args.seed, args.seconds, check)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro under %s; run from a full checkout"
              % ROOT, file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so the server subprocess is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    # One CPU for the benchmark and the server it starts (children inherit
    # the affinity).  Client and server on two CPUs wake each other across
    # CPUs, which on a shared virtual machine made served/s vary twofold
    # between runs; on one CPU it varied by a few percent.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    # The benchmark's own environment: no on-disk image cache and no
    # forced invariant checking, so every run does the same work.
    os.environ.pop("REPRO_WORKLOAD_CACHE", None)
    os.environ.pop("REPRO_CHECK_INVARIANTS", None)

    if args.record:
        from perfbench.record import record

        digests = record(args.workload, args.seed)
        print("perfbench: recorded %d digests for %s seed %d"
              % (len(digests), args.workload, args.seed))
        return 0

    from perfbench.checks import DigestCheck, load_record
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.tracing import Tracer, summarize

    runs_dir = os.path.join(ROOT, ".perfbench", "runs")
    workdir = os.path.join(ROOT, ".perfbench", "work-%d" % os.getpid())
    os.makedirs(runs_dir, exist_ok=True)
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer(enabled=bool(args.trace))
    check = DigestCheck(load_record(args.workload, args.seed))
    try:
        outcome = _execute(args, workdir, tracer, check)
    except Exception:  # noqa: BLE001 - report and exit without a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    catalogue = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in catalogue.items()
    }
    correct = outcome.correct and outcome.failed == 0
    if not args.trace:
        for name, entry in metrics.items():
            if not (math.isfinite(entry["value"]) and entry["value"] > 0):
                correct = False
                outcome.notes.append("end-to-end metric %s is %r"
                                     % (name, entry["value"]))
    env = environment(ROOT)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env, "correct": correct,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": metrics,
        "detail": {name: {"value": value, "unit": unit}
                   for name, (value, unit) in outcome.detail.items()},
        "notes": outcome.notes,
    }
    if args.trace:
        record["spans"] = summarize(tracer.spans)
        tracer.write_jsonl(os.path.join(runs_dir, tag + ".spans.jsonl"))
    with open(os.path.join(runs_dir, tag + ".json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print("perfbench %s seed %d trace %d: nproc %s (pinned to cpu %s), "
          "python %s, git %s, source %s"
          % (args.workload, args.seed, args.trace, env["nproc"],
             env["cpu_affinity"], env["python"], env["git_revision"] or "-",
             env["source_digest"]))
    for name, entry in metrics.items():
        print("  %-44s %16.6g %s" % (name, entry["value"], entry["unit"]))
    for name, entry in sorted(record["detail"].items()):
        print("  (detail) %-35s %16.6g %s"
              % (name, entry["value"], entry["unit"]))
    for name, row in sorted(record.get("spans", {}).items()):
        print("  (span) %-30s n=%-6d total %10.4fs self %10.4fs"
              % (name, row["count"], row["total_s"], row["self_s"]))
    for note in outcome.notes:
        print("  note: %s" % note)
    print("  checks: %d attempted, %d failed, digest record %s"
          % (outcome.attempted, outcome.failed,
             "none" if check.record is None else "used"))
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
