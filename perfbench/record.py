"""Compute the expected result digests of one (workload, seed).

Every sweep cell runs once in-process; every serving pool request runs
once through ``execute_job``, the function the server's workers call.
The digests go to ``digests.json`` (see :mod:`perfbench.checks`), where
later runs of that (workload, seed) are checked against them.
"""

from __future__ import annotations

from repro.service.request import request_digest
from repro.service.workers import execute_job, make_job_spec
from repro.workloads.suite import build_benchmark

from perfbench import gen
from perfbench.checks import result_digest, save_record
from perfbench.sweeps import CELLS, simulate


def expected_digests(workload: str, seed: int) -> dict:
    if workload == "serve-mixed":
        digests = {}
        for index, request in enumerate(gen.serve_plan(seed).pool):
            spec = make_job_spec(request, request_digest(request), None)
            _status, result, _meta = execute_job(spec)
            digests["pool/%d" % index] = result_digest(result)
        return digests
    digests = {}
    for cell in CELLS[workload](seed):
        image = build_benchmark(cell.benchmark, scale=cell.scale,
                                seed=cell.image_seed)
        _, result = simulate(cell, image)
        digests[cell.ident] = result_digest(result)
    return digests


def record(workload: str, seed: int) -> dict:
    digests = expected_digests(workload, seed)
    save_record(workload, seed, digests)
    return digests
