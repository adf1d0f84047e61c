"""The two simulator sweeps: ``sweep-timing`` and ``sweep-functional``.

An untraced run builds every image of the sweep ``SETUP_REPEATS`` times
from a cold image cache (``setup_s`` is the median), then runs complete
rounds of the cell list until ``--seconds`` have passed and the tail
percentile has enough samples.  Every cell run is one operation; its
result digest is checked.

A traced run builds once, runs every cell once with spans only and once
more under the module profiler, and reports the per-layer metrics.
"""

from __future__ import annotations

import statistics
import time

from repro import perf
from repro.core.functional import FunctionalSimulator
from repro.core.simulator import TimingSimulator
from repro.experiments.common import warmup_uops_for
from repro.workloads.suite import build_benchmark, clear_cache

from perfbench import gen
from perfbench.checks import DigestCheck, result_digest
from perfbench.metrics import TAIL_PERCENTILE, Outcome, own_peak_rss_mb
from perfbench.stats import (interquartile_mean, min_samples_for,
                             percentile, samples_beyond)
from perfbench.tracing import LAYERS, ModuleProfiler, Tracer

SETUP_REPEATS = 3

#: The timed phase stops at this many seconds even if the tail
#: percentile still lacks samples (the run is then not correct).
MAX_TIMED_S = 100.0

CELLS = {
    "sweep-timing": gen.timing_cells,
    "sweep-functional": gen.functional_cells,
}

#: Layers each sweep must not reach; a layer counts as bypassed while
#: its self time stays under ``BYPASS_SHARE`` of the traced wall time.
BYPASSED = {
    "sweep-timing": ("core.functional",),
    "sweep-functional": ("core.cpu", "core.memsys", "interconnect"),
}
BYPASS_SHARE = 0.01


def _image_cells(cells) -> list:
    """One cell per benchmark, which names the image its cells share."""
    return list({cell.benchmark: cell for cell in cells}.values())


def _build(cells) -> dict:
    """Each benchmark's image, built or taken from the image cache."""
    return {
        cell.benchmark: build_benchmark(cell.benchmark, scale=cell.scale,
                                        seed=cell.image_seed)
        for cell in _image_cells(cells)
    }


def simulate(cell, workload):
    """Run one cell on its image; returns ``(simulator, result)``."""
    if cell.mode == "timing":
        simulator = TimingSimulator(cell.machine, workload.memory)
    else:
        simulator = FunctionalSimulator(cell.machine, workload.memory)
    return simulator, simulator.run(workload.trace,
                                    warmup_uops_for(workload.trace))


def run(workload: str, seed: int, seconds: float,
        check: DigestCheck) -> Outcome:
    """The untraced run: end-to-end metrics."""
    cells = CELLS[workload](seed)
    outcome = Outcome()

    setup = []
    for _ in range(SETUP_REPEATS):
        clear_cache()
        started = time.perf_counter()
        images = _build(cells)
        setup.append(time.perf_counter() - started)

    q = TAIL_PERCENTILE[workload]
    needed = min_samples_for(q)
    times = []
    round_times = []
    started = time.perf_counter()
    while True:
        for cell in cells:
            begin = time.perf_counter()
            _, result = simulate(cell, images[cell.benchmark])
            elapsed = time.perf_counter() - begin
            times.append(elapsed)
            outcome.attempted += 1
            if not check.check(cell.ident, result_digest(result)):
                outcome.failed += 1
        round_times.append(sum(times[-len(cells):]))
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and len(times) >= needed:
            break
        if elapsed >= MAX_TIMED_S:
            break
    check.settle(outcome)
    outcome.require_tail("tail_ms", len(times), q)

    # Both figures are taken over rounds, each of which runs every cell
    # once, so which cells the seed's images make cheap or dear weighs
    # the same in every round.  The rate is the interquartile mean of the
    # round rates; p50 is the median over rounds of the mean cell time.
    uops = sum(images[cell.benchmark].trace.uop_count for cell in cells)
    rate = interquartile_mean([uops / t for t in round_times])
    millis = [t * 1000.0 for t in times]
    outcome.metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": own_peak_rss_mb(),
        "throughput_per_s": rate,
        "p50_ms": statistics.median(round_times) / len(cells) * 1000.0,
        "tail_ms": percentile(millis, q),
    }
    kind = "timing" if workload == "sweep-timing" else "functional"
    outcome.detail.update({
        "%s_uops_per_s" % kind: (rate, "1/s"),
        "cell_pooled_p50_ms": (percentile(millis, 50), "ms"),
        "tail_percentile": (q, "%"),
        "cell_samples": (len(times), "count"),
        "cell_samples_beyond_tail": (samples_beyond(len(times), q), "count"),
        "cells_per_round": (len(cells), "count"),
        "rounds": (len(round_times), "count"),
        "images": (len(images), "count"),
        "setup_samples": (len(setup), "count"),
        "timed_s": (time.perf_counter() - started, "s"),
    })
    return outcome


def model_counts(runs) -> dict:
    """Modelled-hardware counts over ``(simulator, result, uops)`` runs.

    Result counters start after the warm-up quarter and are taken per
    measured µop; component counters (matcher, rescans) cover the whole
    trace and are taken per simulated µop.  Runs whose simulator is
    ``None`` contribute result counters only.
    """
    measured = total = 0
    l1 = l2 = walks = transfers = queue = rescans = words = found = 0
    content_issued = content_useful = stride_issued = stride_useful = 0
    for simulator, result, uops in runs:
        measured += result.uops
        total += uops
        l1 += result.demand_l1_misses
        l2 += getattr(result, "demand_l2_requests",
                      getattr(result, "l2_requests", 0))
        walks += result.prefetch_page_walks
        transfers += getattr(result, "bus_transfers", 0)
        queue += getattr(result, "bus_queue_delay", 0)
        content_issued += result.content.issued
        content_useful += result.content.useful
        stride_issued += result.stride.issued
        stride_useful += result.stride.useful
        if simulator is not None:
            rescans += simulator.content.stats.rescans
            words += simulator.content.matcher.stats.words_examined
            found += simulator.content.matcher.stats.candidates

    def per(count, base, unit=1000.0):
        return unit * count / base if base else 0.0

    return {
        "sim.measured_uops": measured,
        "cache.l1_misses_per_kuop": per(l1, measured),
        "cache.l2_requests_per_kuop": per(l2, measured),
        "prefetch.content.issued_per_kuop": per(content_issued, measured),
        "prefetch.content.accuracy": per(content_useful, content_issued, 1),
        "prefetch.content.issued": content_issued,
        "prefetch.stride.accuracy": per(stride_useful, stride_issued, 1),
        "prefetch.stride.issued": stride_issued,
        "prefetch.content.rescans_per_kuop": per(rescans, total),
        "prefetch.matcher.candidates_per_kword": per(found, words),
        "prefetch.matcher.words": words,
        "tlb.prefetch_walks_per_kuop": per(walks, measured),
        "interconnect.bus_transfers_per_kuop": per(transfers, measured),
        "interconnect.bus_queue_cycles_per_transfer": per(queue, transfers,
                                                          1),
    }


def profile_metrics(profiler: ModuleProfiler, uops: int) -> dict:
    """Per-layer self time and calls per simulated µop."""
    out = {}
    for group, seconds in profiler.self_s.items():
        out[group + ".self_s"] = seconds
    for layer in LAYERS:
        out[layer + ".calls_per_uop"] = (
            profiler.calls[layer] / uops if uops else 0.0)
    out["unattributed.self_s"] = profiler.unattributed_s
    out["sim.calls_per_uop"] = (
        sum(profiler.calls.values()) / uops if uops else 0.0)
    out["sim.uops"] = uops
    return out


def check_bypass(workload: str, profiler: ModuleProfiler,
                 outcome: Outcome) -> None:
    """One check per layer *workload* must bypass; a violation fails."""
    for layer in BYPASSED.get(workload, ()):
        share = profiler.self_s[layer] / profiler.wall_s
        ok = share <= BYPASS_SHARE
        outcome.attempted += 1
        outcome.failed += not ok
        outcome.notes.append("bypass %s: %s has %.3f%% of traced self time"
                             % ("ok" if ok else "VIOLATED", layer,
                                100.0 * share))


def run_traced(workload: str, seed: int, tracer: Tracer,
               check: DigestCheck) -> Outcome:
    """The traced run: per-layer metrics."""
    cells = CELLS[workload](seed)
    outcome = Outcome()

    clear_cache()
    with tracer.span("setup", ident=workload):
        for cell in _image_cells(cells):
            with tracer.span("workloads.build", ident=cell.benchmark):
                build_benchmark(cell.benchmark, scale=cell.scale,
                                seed=cell.image_seed)
    images = _build(cells)

    for cell in cells:
        with tracer.span("cell", ident=cell.ident):
            with tracer.span("sim.run"):
                _, result = simulate(cell, images[cell.benchmark])
        outcome.attempted += 1
        if not check.check(cell.ident, result_digest(result)):
            outcome.failed += 1

    profiler = ModuleProfiler()
    runs = []
    uops = 0
    perf.RECORDER.reset()
    was_enabled = perf.set_enabled(True)
    try:
        for cell in cells:
            image = images[cell.benchmark]
            with tracer.span("cell", ident=cell.ident):
                with tracer.span("sim.run.profiled"):
                    with profiler:
                        simulator, result = simulate(cell, image)
            uops += image.trace.uop_count
            runs.append((simulator, result, image.trace.uop_count))
            outcome.attempted += 1
            if not check.check(cell.ident, result_digest(result)):
                outcome.failed += 1
        events = perf.RECORDER.counters.get("timing-events-posted", 0)
    finally:
        perf.set_enabled(was_enabled)
        perf.RECORDER.reset()
    check.settle(outcome)

    untraced = sum(tracer.durations("sim.run"))
    metrics = {
        "workloads.build_s": sum(tracer.durations("workloads.build")),
        "core.memsys.events_per_uop": events / uops,
        "tracing.traced_wall_s": profiler.wall_s,
        "tracing.untraced_wall_s": untraced,
        "tracing.overhead_s": profiler.wall_s - untraced,
    }
    metrics.update(profile_metrics(profiler, uops))
    metrics.update(model_counts(runs))
    outcome.metrics = metrics
    check_bypass(workload, profiler, outcome)
    return outcome
