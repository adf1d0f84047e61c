"""The ``serve-mixed`` workload: ``repro-serve serve`` under a mixed load.

The server runs in a subprocess on a fresh store, with default flags
apart from the port and the store directory.  Set-up is server start to
first healthy answer plus the pool pre-warm; it is repeated
``SETUP_REPEATS`` times and the last server takes the load.

The load is closed-loop: ``gen.CLIENTS`` clients, one keep-alive
connection each, send their next request only after the previous one
resolved, as sweep callers do.  A cached read is a submit answered from
the store plus a result fetch.  A cold write is a submit, then result
polls every ``POLL_S`` until done; ``POLL_S`` is well below the cold
latency, so it quantizes that latency little.

Every result passes the client's digest verification and is compared
with the digest recorded for the pool request; a sample of cold results
is recomputed in-process with ``execute_job``.  A traced run adds spans
around each client call and an in-process replay of the same request mix
that times each service layer call.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

from repro.service.client import AsyncServiceClient, ServiceHTTPError
from repro.service.http import decode_result, encode_result
from repro.service.request import canonical_request_tree, request_digest
from repro.service.scheduler import SimulationService
from repro.service.store import ResultStore
from repro.service.workers import execute_job, make_job_spec
from repro.workloads.suite import clear_cache

from perfbench import gen
from perfbench.checks import DigestCheck, result_digest
from perfbench.metrics import TAIL_PERCENTILE, Outcome
from perfbench.stats import (interquartile_mean, min_samples_for,
                             percentile, samples_beyond)
from perfbench.sweeps import model_counts, profile_metrics
from perfbench.tracing import ModuleProfiler, Tracer

WORKLOAD = "serve-mixed"
SETUP_REPEATS = 3
POLL_S = 0.002
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
#: A cold request not done after this long counts as failed.
COLD_TIMEOUT_S = 60.0
#: The timed phase stops at this many seconds even if a tail percentile
#: still lacks samples (the run is then not correct).
MAX_TIMED_S = 100.0
#: The server's peak RSS is read when this many cold writes have
#: completed.  Its image cache keeps every cold write's image, so a
#: reading at the end of the timed phase would grow with throughput.
RSS_AT_COLD = 100
COLD_CHECK_SAMPLES = 3
REPLAY_OPS_PER_CLIENT = 150
#: ``served_per_s`` is the interquartile mean of the completion rates of
#: consecutive windows of this many seconds.
RATE_WINDOW_S = 1.0
CACHED_TAIL = 99.0
COLD_TAIL = TAIL_PERCENTILE[WORKLOAD]

_TRANSPORT_ERRORS = (ServiceHTTPError, ValueError, ConnectionError, OSError,
                     asyncio.IncompleteReadError, asyncio.TimeoutError)


class Server:
    """One ``repro-serve serve`` subprocess on a free loopback port."""

    def __init__(self, root: str, store_dir: str, log_path: str) -> None:
        self.root = root
        self.store_dir = store_dir
        self.log_path = log_path
        self.process = None
        self.port = None

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.service.cli", "serve",
                 "--port", "0", "--store", self.store_dir],
                cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log,
            )
        line = self._first_line()
        match = re.search(rb"http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError("unexpected server banner: %r" % line)
        self.port = int(match.group(1))

    def _first_line(self) -> bytes:
        deadline = time.monotonic() + START_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if selector.select(timeout=0.5):
                    line = self.process.stdout.readline()
                    if line:
                        return line
                if self.process.poll() is not None:
                    break
        raise RuntimeError("server did not start; see %s" % self.log_path)

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.process.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """SIGTERM (drain), then SIGKILL if it lingers; always reaped."""
        if self.process is None:
            return
        if self.process.poll() is not None:
            self.process.stdout.close()
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdout.close()


# -- /metrics ----------------------------------------------------------------

_SAMPLE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{([^}]*)\})?\s+(\S+)\s*$")
_LABEL = re.compile(r'(\w+)="([^"]*)"')


def parse_metrics(text: str) -> dict:
    """Prometheus text samples as ``{(name, ((label, value), ...)): value}``.
    """
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        key = (name, tuple(sorted(_LABEL.findall(labels or ""))))
        samples[key] = float(value)
    return samples


def metric_total(samples: dict, name: str, where=None) -> float:
    """Sum of the samples of *name* whose labels satisfy *where*."""
    return sum(
        value for (sample, labels), value in samples.items()
        if sample == name and (where is None or where(dict(labels)))
    )


def server_counters(before: dict, after: dict) -> tuple:
    """Per-layer counters over the timed phase, plus by-code detail."""
    prefix = "repro_service_"

    def delta(name, where=None):
        return (metric_total(after, prefix + name, where)
                - metric_total(before, prefix + name, where))

    def status_class(digit):
        return lambda labels: labels.get("status", "").startswith(digit)

    counters = {
        "service.store.hits": delta("store_hits_total"),
        "service.store.misses": delta("store_misses_total"),
        "service.store.puts": delta("store_puts_total"),
        "service.scheduler.queue_high_water": metric_total(
            after, prefix + "queue_high_water"),
        "service.scheduler.rejected": delta("rejected_total"),
        "service.scheduler.retried": delta("retried_total"),
        "service.scheduler.failures": delta("failures_total"),
        "service.http.responses_4xx": delta("http_requests_total",
                                            status_class("4")),
        "service.http.responses_5xx": delta("http_requests_total",
                                            status_class("5")),
    }
    by_code = {}
    for (name, labels), value in after.items():
        label = dict(labels)
        if name == prefix + "failures_total":
            key = "failures.%s" % label.get("code")
        elif (name == prefix + "http_requests_total"
              and label.get("status", "").startswith(("4", "5"))):
            key = "http.%s.%s" % (label.get("method"), label.get("status"))
        else:
            continue
        by_code[key] = value - before.get((name, labels), 0.0)
    return counters, by_code


async def _scrape(port: int) -> dict:
    async with AsyncServiceClient(port=port) as client:
        return parse_metrics(await client.metrics())


# -- the load ---------------------------------------------------------------

class Load:
    """Shared tallies of the closed-loop clients."""

    def __init__(self, seconds: float, server: Server) -> None:
        self.seconds = seconds
        self.server = server
        self.started = time.perf_counter()
        self.cached: list = []
        self.cold: list = []
        self.completed_at: list = []
        self.polls = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.cold_digests: dict = {}
        self.rss_mb = None
        self.needed_cached = min_samples_for(CACHED_TAIL)
        self.needed_cold = max(min_samples_for(COLD_TAIL), RSS_AT_COLD)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def done(self) -> bool:
        elapsed = self.elapsed()
        if elapsed >= MAX_TIMED_S:
            return True
        return (elapsed >= self.seconds
                and len(self.cached) >= self.needed_cached
                and len(self.cold) >= self.needed_cold)

    def add_cached(self, latency: float) -> None:
        self.cached.append(latency)
        self.completed_at.append(self.elapsed())

    def add_cold(self, latency: float) -> None:
        self.cold.append(latency)
        self.completed_at.append(self.elapsed())
        if len(self.cold) == RSS_AT_COLD:
            self.rss_mb = self.server.peak_rss_mb()

    def fail(self, ident: str, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append("%s: %s" % (ident, reason))


async def _fetch(client, request, tracer: Tracer):
    """Submit, then fetch the result, polling while it is pending."""
    with tracer.span("client.submit"):
        accepted = await client.submit(request)
    digest = accepted["digest"]
    polls = 0
    give_up = time.perf_counter() + COLD_TIMEOUT_S
    while True:
        with tracer.span("client.result"):
            result = await client.result(digest)
        if result is not None:
            return result, polls
        if time.perf_counter() >= give_up:
            raise asyncio.TimeoutError("%s not done" % digest[:12])
        polls += 1
        await asyncio.sleep(POLL_S)


async def _client_loop(index, port, plan, check, load, tracer) -> None:
    async with AsyncServiceClient(port=port) as client:
        for position, (kind, item) in enumerate(plan.streams[index]):
            if load.done():
                return
            ident = "c%d-%d" % (index, position)
            request = plan.pool[item] if kind == "cached" else item
            load.attempted += 1
            begin = time.perf_counter()
            try:
                with tracer.span("request", ident):
                    result, polls = await _fetch(client, request, tracer)
            except _TRANSPORT_ERRORS as exc:
                load.fail(ident, "%s: %s" % (type(exc).__name__, exc))
                continue
            latency = time.perf_counter() - begin
            digest = result_digest(result)
            if kind == "cached":
                if not check.check("pool/%d" % item, digest):
                    load.fail(ident, "pool digest mismatch")
                    continue
                load.add_cached(latency)
            else:
                load.add_cold(latency)
                load.polls += polls
                load.cold_digests[ident] = (request, digest)
        load.fail("c%d" % index, "request stream exhausted")


async def _timed_phase(server, plan, check, seconds, tracer):
    before = await _scrape(server.port)
    load = Load(seconds, server)
    await asyncio.gather(*(
        _client_loop(index, server.port, plan, check, load, tracer)
        for index in range(len(plan.streams))
    ))
    elapsed = load.elapsed()
    after = await _scrape(server.port)
    return load, elapsed, before, after


async def _prewarm(port: int, pool: list) -> list:
    """Compute every pool request once; returns results in pool order."""
    results = [None] * len(pool)

    async def worker(offset: int) -> None:
        async with AsyncServiceClient(port=port) as client:
            for index in range(offset, len(pool), gen.CLIENTS):
                results[index] = await client.run(pool[index],
                                                  poll_interval=POLL_S)

    await asyncio.gather(*(worker(i) for i in range(gen.CLIENTS)))
    return results


def _start(root, workdir, name, plan, check, outcome, tracer):
    """Start a server on a fresh store and pre-warm the pool.

    Returns the server and the pool results.
    """
    store_dir = os.path.join(workdir, name)
    shutil.rmtree(store_dir, ignore_errors=True)
    server = Server(root, store_dir, os.path.join(workdir, "server.log"))
    try:
        with tracer.span("server.start"):
            server.start()
            asyncio.run(_health(server.port))
        with tracer.span("pool.prewarm"):
            results = asyncio.run(_prewarm(server.port, plan.pool))
    except BaseException:
        server.stop()
        raise
    for index, result in enumerate(results):
        outcome.attempted += 1
        if not check.check("pool/%d" % index, result_digest(result)):
            outcome.failed += 1
    return server, results


async def _health(port: int) -> None:
    deadline = time.monotonic() + START_TIMEOUT_S
    while True:
        try:
            async with AsyncServiceClient(port=port) as client:
                await client.health()
            return
        except (ConnectionError, OSError):
            if time.monotonic() >= deadline:
                raise
            await asyncio.sleep(0.05)


def _recompute(request) -> str:
    digest = request_digest(request)
    status, result, _meta = execute_job(make_job_spec(request, digest, None))
    return result_digest(result)


def _require_tails(load: Load, outcome: Outcome) -> None:
    outcome.require_tail("cached_p%g_ms" % CACHED_TAIL, len(load.cached),
                         CACHED_TAIL)
    outcome.require_tail("cold_p%g_ms" % COLD_TAIL, len(load.cold),
                         COLD_TAIL)


def window_rates(completed_at, elapsed: float,
                 window: float = RATE_WINDOW_S) -> list:
    """Completions per second in each whole *window* of the timed phase."""
    counts = [0] * max(1, int(elapsed / window))
    for at in completed_at:
        index = int(at / window)
        if index < len(counts):
            counts[index] += 1
    return [count / window for count in counts]


def _load_detail(load: Load, elapsed: float) -> dict:
    cached = [t * 1000.0 for t in load.cached]
    cold = [t * 1000.0 for t in load.cold]
    served = len(cached) + len(cold)
    rates = window_rates(load.completed_at, elapsed)
    return {
        "served_per_s": (interquartile_mean(rates), "1/s"),
        "served_mean_per_s": (served / elapsed, "1/s"),
        "rate_windows": (len(rates), "count"),
        "cached_p50_ms": (percentile(cached, 50), "ms"),
        "cached_p99_ms": (percentile(cached, CACHED_TAIL), "ms"),
        "cold_p50_ms": (percentile(cold, 50), "ms"),
        "cold_p90_ms": (percentile(cold, COLD_TAIL), "ms"),
        "cached_samples": (len(cached), "count"),
        "cached_samples_beyond_p99": (samples_beyond(len(cached),
                                                     CACHED_TAIL), "count"),
        "cold_samples": (len(cold), "count"),
        "cold_samples_beyond_p90": (samples_beyond(len(cold), COLD_TAIL),
                                    "count"),
        "polls_per_cold": (load.polls / len(cold), "polls"),
        "timed_s": (elapsed, "s"),
    }


def run(root: str, workdir: str, seed: int, seconds: float,
        check: DigestCheck) -> Outcome:
    """The untraced run: end-to-end metrics."""
    plan = gen.serve_plan(seed)
    outcome = Outcome()
    quiet = Tracer(enabled=False)
    setup = []
    server = None
    try:
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            begin = time.perf_counter()
            server, _ = _start(root, workdir, "store-%d" % repeat, plan,
                               check, outcome, quiet)
            setup.append(time.perf_counter() - begin)
        load, elapsed, before, after = asyncio.run(
            _timed_phase(server, plan, check, seconds, quiet))
    finally:
        if server is not None:
            server.stop()

    outcome.attempted += load.attempted
    outcome.failed += load.failed
    outcome.notes.extend(load.errors)
    rng = random.Random("cold-check/%d" % seed)
    cold = sorted(load.cold_digests.items())
    for ident, (request, digest) in rng.sample(
            cold, min(COLD_CHECK_SAMPLES, len(cold))):
        outcome.attempted += 1
        if _recompute(request) != digest:
            outcome.failed += 1
            outcome.notes.append("cold result %s differs from execute_job"
                                 % ident)
    check.settle(outcome)
    _require_tails(load, outcome)

    # Each bounded name stands for one of the workload's own figures:
    # served_per_s, cached_p50_ms and cold_p90_ms.
    detail = _load_detail(load, elapsed)
    outcome.metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": load.rss_mb or 0.0,
        "throughput_per_s": detail["served_per_s"][0],
        "p50_ms": detail["cached_p50_ms"][0],
        "tail_ms": detail["cold_p90_ms"][0],
    }
    outcome.detail.update(detail)
    outcome.detail["setup_samples"] = (len(setup), "count")
    counters, by_code = server_counters(before, after)
    for name, value in list(counters.items()) + list(by_code.items()):
        outcome.detail[name] = (value, "count")
    return outcome


# -- the traced run ---------------------------------------------------------

def _replay_ops(plan) -> list:
    ops = []
    for position in range(REPLAY_OPS_PER_CLIENT):
        for index, stream in enumerate(plan.streams):
            kind, item = stream[position]
            ops.append(("c%d-%d" % (index, position), kind, item))
    return ops


async def _replay(plan, pool_results, store_dir, tracer, profiler):
    """Run the request mix in-process, one service call per span.

    Returns ``{ident: digest}`` of every result and the µops simulated.
    """
    shutil.rmtree(store_dir, ignore_errors=True)
    store = ResultStore(store_dir)
    for request, result in zip(plan.pool, pool_results):
        store.put(request_digest(request), result,
                  fingerprint=canonical_request_tree(request))
    service = SimulationService(store=ResultStore(store_dir))
    digests = {}
    uops = 0
    try:
        for ident, kind, item in _replay_ops(plan):
            with tracer.span("replay.op", ident), profiler or nullcontext():
                if kind == "cached":
                    request = plan.pool[item]
                    with tracer.span("service.request.digest"):
                        digest = request_digest(request)
                    fingerprint = canonical_request_tree(request)
                    with tracer.span("service.store.get"):
                        result = store.get(digest, fingerprint=fingerprint)
                    with tracer.span("service.scheduler.submit_hit"):
                        job = service.submit(request)
                    with tracer.span("service.http.encode"):
                        payload = encode_result(result)
                    wire = json.loads(json.dumps(payload))
                    with tracer.span("service.client.decode"):
                        result = decode_result(wire)
                    if job.source != "cache":
                        raise RuntimeError("replay submit missed the cache")
                else:
                    request = item
                    digest = request_digest(request)
                    spec = make_job_spec(request, digest, None)
                    with tracer.span("service.workers.execute_job"):
                        _status, result, meta = execute_job(spec)
                    with tracer.span("service.store.put"):
                        store.put(digest, result,
                                  fingerprint=canonical_request_tree(request),
                                  meta=meta)
                    uops += meta["uops"]
            digests[ident] = (kind, item, result_digest(result), result)
    finally:
        await service.shutdown()
    return digests, uops


def run_traced(root: str, workdir: str, seed: int, seconds: float,
               tracer: Tracer, check: DigestCheck) -> Outcome:
    """The traced run: per-layer metrics."""
    plan = gen.serve_plan(seed)
    outcome = Outcome()
    server = None
    try:
        with tracer.span("setup", ident=WORKLOAD):
            server, pool_results = _start(root, workdir, "store-traced",
                                          plan, check, outcome, tracer)
        load, elapsed, before, after = asyncio.run(
            _timed_phase(server, plan, check, seconds, tracer))
    finally:
        if server is not None:
            server.stop()
    outcome.attempted += load.attempted
    outcome.failed += load.failed
    outcome.notes.extend(load.errors)
    _require_tails(load, outcome)

    clear_cache()
    first, _ = asyncio.run(_replay(
        plan, pool_results, os.path.join(workdir, "replay-store"),
        tracer, None))
    clear_cache()
    profiler = ModuleProfiler()
    second, uops = asyncio.run(_replay(
        plan, pool_results, os.path.join(workdir, "replay-store"),
        Tracer(enabled=False), profiler))
    for ident, (kind, item, digest, _result) in first.items():
        outcome.attempted += 1
        expected = second[ident][2]
        if kind == "cached":
            ok = check.check("pool/%d" % item, digest)
        else:
            http = load.cold_digests.get(ident)
            ok = digest == expected and (http is None or http[1] == digest)
        if not ok:
            outcome.failed += 1
            outcome.notes.append("replay result %s differs" % ident)
    check.settle(outcome)

    def median_of(name, scale):
        values = tracer.durations(name)
        return statistics.median(values) * scale if values else 0.0

    untraced = sum(tracer.durations("replay.op"))
    metrics = {
        "service.request.digest_us": median_of("service.request.digest",
                                               1e6),
        "service.store.get_us": median_of("service.store.get", 1e6),
        "service.scheduler.submit_hit_us": median_of(
            "service.scheduler.submit_hit", 1e6),
        "service.http.encode_us": median_of("service.http.encode", 1e6),
        "service.client.decode_us": median_of("service.client.decode", 1e6),
        "service.workers.execute_job_ms": median_of(
            "service.workers.execute_job", 1e3),
        "service.store.put_us": median_of("service.store.put", 1e6),
        "service.client.polls_per_cold": (
            load.polls / len(load.cold) if load.cold else 0.0),
        "tracing.traced_wall_s": profiler.wall_s,
        "tracing.untraced_wall_s": untraced,
        "tracing.overhead_s": profiler.wall_s - untraced,
    }
    counters, by_code = server_counters(before, after)
    metrics.update(counters)
    metrics.update(profile_metrics(profiler, uops))
    metrics.update(model_counts(
        (None, result, 0) for kind, _, _, result in second.values()
        if kind == "cold"))
    outcome.metrics = metrics
    outcome.detail.update(_load_detail(load, elapsed))
    for name, value in by_code.items():
        outcome.detail[name] = (value, "count")
    return outcome
