"""The metric catalogue: every metric a run reports, with its unit.

``BENCHMARK.json`` lists the same names; ``tests/test_contract.py``
keeps the two in step.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field

from perfbench.stats import MIN_BEYOND, samples_beyond
from perfbench.tracing import GROUPS, LAYERS

#: Reported by every untraced run, on every workload.  What each means
#: per workload is in README.md ("End-to-end metrics").
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
}

#: Tail percentile of ``tail_ms`` per workload: of one cell's host time
#: on the sweeps, of a cold request's latency on ``serve-mixed``.
TAIL_PERCENTILE = {
    "sweep-timing": 90.0,
    "sweep-functional": 90.0,
    "serve-mixed": 90.0,
}


def _per_layer() -> dict:
    out = {"workloads.build_s": "s"}
    for layer in LAYERS:
        out[layer + ".self_s"] = "s"
        out[layer + ".calls_per_uop"] = "calls/uop"
    for group in GROUPS[len(LAYERS):]:
        out[group + ".self_s"] = "s"
    out.update({
        "unattributed.self_s": "s",
        "sim.calls_per_uop": "calls/uop",
        "sim.uops": "count",
        "sim.measured_uops": "count",
        "core.memsys.events_per_uop": "events/uop",
        "cache.l1_misses_per_kuop": "1/kuop",
        "cache.l2_requests_per_kuop": "1/kuop",
        "prefetch.content.issued_per_kuop": "1/kuop",
        "prefetch.content.accuracy": "ratio",
        "prefetch.content.issued": "count",
        "prefetch.stride.accuracy": "ratio",
        "prefetch.stride.issued": "count",
        "prefetch.content.rescans_per_kuop": "1/kuop",
        "prefetch.matcher.candidates_per_kword": "1/kword",
        "prefetch.matcher.words": "count",
        "tlb.prefetch_walks_per_kuop": "1/kuop",
        "interconnect.bus_transfers_per_kuop": "1/kuop",
        "interconnect.bus_queue_cycles_per_transfer": "cycles",
        "service.request.digest_us": "us",
        "service.store.get_us": "us",
        "service.scheduler.submit_hit_us": "us",
        "service.http.encode_us": "us",
        "service.client.decode_us": "us",
        "service.workers.execute_job_ms": "ms",
        "service.store.put_us": "us",
        "service.client.polls_per_cold": "polls",
        "service.store.hits": "count",
        "service.store.misses": "count",
        "service.store.puts": "count",
        "service.scheduler.queue_high_water": "count",
        "service.scheduler.rejected": "count",
        "service.scheduler.retried": "count",
        "service.scheduler.failures": "count",
        "service.http.responses_4xx": "count",
        "service.http.responses_5xx": "count",
        "tracing.traced_wall_s": "s",
        "tracing.untraced_wall_s": "s",
        "tracing.overhead_s": "s",
    })
    return out


PER_LAYER = _per_layer()


@dataclass
class Outcome:
    """What one workload run measured.

    ``detail`` holds metrics beyond the catalogue (sample counts, the
    workload's own names for the end-to-end figures) as ``name -> (value,
    unit)``; they are printed and saved but not part of the result line.
    ``correct`` turns false when a run cannot stand behind its figures
    even though no operation failed.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    correct: bool = True

    def require_tail(self, name: str, n: int, q: float) -> None:
        """Reject the run unless p*q* of *n* samples has enough beyond it."""
        beyond = samples_beyond(n, q) if n else 0
        if beyond < MIN_BEYOND:
            self.correct = False
            self.notes.append("%s: p%g of %d samples has %d beyond it, "
                              "needs %d" % (name, q, n, beyond, MIN_BEYOND))


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
