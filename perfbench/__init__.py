"""The repository benchmark: seeded simulator sweeps and a mixed HTTP load.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``perfbench/README.md`` documents
the workloads, metrics and checks.
"""
