"""In-process client API: batches, sweeps, and a sync session facade.

Two layers:

* **async helpers** against a running :class:`SimulationService` —
  :func:`sweep_speedups` re-expresses the classic
  :func:`repro.experiments.common.timing_speedups` sweep as a batch of
  content-addressed requests (one baseline + one enhanced cell per
  benchmark).  Because cells are cached by digest, re-running a sweep
  after changing one parameter recomputes only the changed cells.

* :class:`ServiceSession` — a synchronous facade that owns a private
  event loop on a background thread, so plain blocking code (the
  experiments CLI, scripts, tests) can use the service without being
  rewritten as coroutines.  ``session.install()`` plugs the session into
  :func:`repro.experiments.common.set_speedup_provider`, at which point
  every existing experiment sweep transparently runs through the
  service's cache.

* **HTTP clients** against a ``repro-serve serve`` front end
  (:mod:`repro.service.http`) — :class:`AsyncServiceClient` (asyncio,
  persistent keep-alive connection, what the load generator drives) and
  :class:`ServiceClient` (blocking, stdlib ``http.client``, for scripts
  and notebooks).  Both speak the same wire format, decode results
  through :func:`repro.service.http.decode_result` (digest-verified),
  and raise :class:`ServiceHTTPError` carrying the failure-taxonomy
  code, any ``Retry-After`` hint, and the attempt count on non-2xx
  responses.

Network resilience (both HTTP clients, opt-in via :class:`RetryPolicy`):

* **capped jittered-backoff retries** across connection failures,
  response corruption (any parse/digest failure), per-attempt timeouts,
  and retryable statuses (429/503 by default) — honouring the server's
  ``Retry-After`` hint when one is sent;
* **deadline budgets** — a per-request wall-clock budget, propagated to
  the server as ``X-Deadline-Ms`` (remaining milliseconds, recomputed
  per attempt) so the server can shed work whose caller has already
  given up; the client itself stops retrying when the budget is gone
  and raises a typed ``deadline_expired`` error;
* **hedged GETs** (:meth:`AsyncServiceClient.hedged_result`) — after a
  quiet period, a second connection races the first for a cached
  result; first intact answer wins.  Safe because results are
  content-addressed and digest-verified: any byte-identical answer is
  *the* answer, so duplicating a read can never return the wrong one;
* **hedged submits** (``hedged_submit`` on both clients) — the same
  race for ``POST /v1/jobs``.  Safe for the same reason one layer up:
  a submit is idempotent by content address, so when both POSTs land
  the second simply joins the first's in-flight job (or hits the
  cache) and both acceptance bodies name the same digest.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import threading
import time
from dataclasses import dataclass

from repro.experiments import common as _common
from repro.params import MachineConfig
from repro.service.request import (
    Priority,
    SimRequest,
    memoized,
    parse_priority,
    request_digest,
)
from repro.service.scheduler import JobFailed, SimulationService

__all__ = [
    "AsyncServiceClient",
    "RetryPolicy",
    "ServiceClient",
    "ServiceHTTPError",
    "ServiceSession",
    "sweep_requests",
    "sweep_speedups",
]


def baseline_machine(config: MachineConfig) -> MachineConfig:
    """The stride-only baseline every speedup is measured against."""
    return config.with_content(enabled=False).with_markov(enabled=False)


def sweep_requests(
    config: MachineConfig,
    benchmarks,
    scale: float,
    seed: int = 1,
    baseline_config: MachineConfig | None = None,
    warmup_fraction: float = 0.25,
) -> list:
    """The (baseline, enhanced) request pairs of one sweep.

    Returns ``[(benchmark, baseline_request, enhanced_request), ...]``.
    Baseline requests are identical across the configurations of a sweep,
    so the service's dedup/cache collapses them to one run each.
    """
    if baseline_config is None:
        baseline_config = baseline_machine(config)
    pairs = []
    for name in benchmarks:
        common = {
            "benchmark": name, "scale": scale, "seed": seed,
            "warmup_fraction": warmup_fraction, "mode": "timing",
        }
        pairs.append((
            name,
            SimRequest(machine=baseline_config, **common),
            SimRequest(machine=config, **common),
        ))
    return pairs


async def sweep_speedups(
    service: SimulationService,
    config: MachineConfig,
    benchmarks,
    scale: float,
    seed: int = 1,
    baseline_config: MachineConfig | None = None,
    warmup_fraction: float = 0.25,
    priority: Priority = Priority.SWEEP,
    *,
    failures: dict,
) -> dict:
    """``{benchmark: speedup}`` for one sweep configuration, via *service*.

    A failed cell does not stop the sweep: its benchmark is left out of
    the result and its :class:`~repro.failures.JobFailure` is recorded in
    *failures* under the cell's request digest.  A benchmark whose cell
    is already in *failures* is left out without being resubmitted, so a
    failing baseline is tried once, not once per sweep configuration.
    """
    pairs = sweep_requests(
        config, benchmarks, scale, seed=seed,
        baseline_config=baseline_config, warmup_fraction=warmup_fraction,
    )
    jobs = []
    for name, baseline_req, enhanced_req in pairs:
        digests = (request_digest(baseline_req), request_digest(enhanced_req))
        if any(digest in failures for digest in digests):
            continue
        jobs.append((
            name,
            digests,
            service.submit(baseline_req, priority),
            service.submit(enhanced_req, priority),
        ))
    speedups = {}
    for name, digests, baseline_job, enhanced_job in jobs:
        outcomes = await asyncio.gather(
            baseline_job.future, enhanced_job.future, return_exceptions=True
        )
        failed = [
            (digest, outcome) for digest, outcome in zip(digests, outcomes)
            if isinstance(outcome, BaseException)
        ]
        if not failed:
            baseline, enhanced = outcomes
            speedups[name] = enhanced.speedup_over(baseline)
            continue
        digest, error = failed[0]
        if not isinstance(error, JobFailed):
            raise error
        failures[digest] = error.failure
    return speedups


class ServiceSession:
    """Blocking facade over a :class:`SimulationService` on its own loop.

    Usable as a context manager::

        with ServiceSession(store_dir="results/service-cache") as session:
            result = session.run(request)
            sweep = session.speedups(config, ["b2c"], scale=0.05)
            print(session.status().render())

    All service bookkeeping stays on the background loop thread; the
    calling thread only ever blocks on completed futures.

    :meth:`speedups` continues past failed cells: each failed cell's
    :class:`~repro.failures.JobFailure` is listed once in
    :attr:`failures`, and :attr:`left_out` counts the sweep entries
    dropped for them.  The experiments runner reports both (exit 3).
    """

    def __init__(
        self,
        store_dir: str | None = None,
        service: SimulationService | None = None,
        **service_kwargs,
    ) -> None:
        if service is not None and (store_dir is not None or service_kwargs):
            raise ValueError(
                "pass either a prebuilt service or construction kwargs"
            )
        self._prebuilt = service
        self._store_dir = store_dir
        self._service_kwargs = service_kwargs
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self.service: SimulationService | None = None
        self._installed_previous = None
        self._installed = False
        #: Request digest -> JobFailure of each cell that failed.
        self._failed: dict = {}
        #: Benchmarks :meth:`speedups` left out, summed over its calls.
        self.left_out = 0

    @property
    def failures(self) -> list:
        """The JobFailure of every failed cell, once each."""
        return list(self._failed.values())

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ServiceSession":
        if self._loop is not None:
            raise RuntimeError("session already started")
        loop = asyncio.new_event_loop()
        ready = threading.Event()

        def runner() -> None:
            asyncio.set_event_loop(loop)
            ready.set()
            loop.run_forever()

        thread = threading.Thread(
            target=runner, name="repro-service-session", daemon=True
        )
        thread.start()
        ready.wait()
        self._loop = loop
        self._thread = thread
        if self._prebuilt is not None:
            self.service = self._prebuilt
        else:
            self.service = SimulationService(
                store=self._store_dir, **self._service_kwargs
            )
        return self

    def close(self, drain: bool = True) -> None:
        if self._loop is None:
            return
        if self._installed:
            self.uninstall()
        if self.service is not None:
            self._call(self.service.shutdown(drain=drain))
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServiceSession":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _call(self, coroutine):
        if self._loop is None:
            raise RuntimeError("session is not started")
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop
        ).result()

    # -- blocking request API -------------------------------------------------

    def run(self, request: SimRequest, priority: Priority = Priority.SWEEP):
        """Submit one request and block for its result."""
        return self._call(self.service.run(request, priority))

    def run_batch(self, requests, priority: Priority = Priority.SWEEP) -> list:
        return self._call(self.service.run_batch(requests, priority))

    def submit_batch(self, submissions) -> list:
        """Submit ``(request, priority)`` pairs; returns per-request
        ``(source, result_or_exception)`` records without failing the
        whole batch on one bad request."""

        async def drive() -> list:
            records = []
            jobs = []
            for request, priority in submissions:
                try:
                    job = self.service.submit(request, priority)
                except Exception as exc:  # noqa: BLE001 - typed rejections
                    records.append(("rejected", exc))
                    jobs.append(None)
                    continue
                records.append((job.source, None))
                jobs.append(job)
            results = await asyncio.gather(
                *(job.future for job in jobs if job is not None),
                return_exceptions=True,
            )
            it = iter(results)
            return [
                record if job is None else (record[0], next(it))
                for record, job in zip(records, jobs)
            ]

        return self._call(drive())

    def speedups(
        self,
        config: MachineConfig,
        benchmarks,
        scale: float,
        seed: int = 1,
        baseline_config: MachineConfig | None = None,
    ) -> dict:
        """Blocking :func:`sweep_speedups` — the speedup-provider shape.

        Returns the surviving benchmarks; failed cells land in
        :attr:`failures`.
        """
        speedups = self._call(
            sweep_speedups(
                self.service, config, benchmarks, scale,
                seed=seed, baseline_config=baseline_config,
                failures=self._failed,
            )
        )
        self.left_out += len(set(benchmarks) - set(speedups))
        return speedups

    def status(self):
        async def snap():
            return self.service.status()

        return self._call(snap())

    def scrub(self, repair: bool = False):
        """Run a store scrub through this session's service.

        With ``repair=True``, every quarantined-but-fingerprinted entry
        is recomputed through the service (cache misses by construction
        — the damaged entry was just moved aside — so the worker tier
        does real work) and verified back into the store.  Returns the
        :class:`~repro.service.store.ScrubReport`.
        """
        store = self.service.store
        if store is None:
            raise RuntimeError("this session's service has no store")
        repair_cb = None
        if repair:
            from repro.service.request import (
                request_digest,
                request_from_fingerprint,
            )

            def repair_cb(digest: str, fingerprint: dict) -> bool:
                request = request_from_fingerprint(fingerprint)
                if request_digest(request) != digest:
                    return False  # fingerprint itself is damaged
                self.run(request)
                return True

        return store.scrub(repair=repair_cb)

    # -- experiments integration ----------------------------------------------

    def install(self) -> "ServiceSession":
        """Route :func:`repro.experiments.common.timing_speedups` through
        this session until :meth:`uninstall` (or :meth:`close`)."""
        self._installed_previous = _common.set_speedup_provider(
            self.speedups
        )
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            _common.set_speedup_provider(self._installed_previous)
            self._installed = False
            self._installed_previous = None


# ---------------------------------------------------------------------------
# HTTP clients (server side: repro.service.http)
# ---------------------------------------------------------------------------

class ServiceHTTPError(Exception):
    """A non-2xx response from the serving front end.

    ``code`` is the failure-taxonomy / rejection code from the response
    body (``queue_full``, ``quarantined``, ``unauthorized``, ...);
    ``retry_after`` is the server's backoff hint in seconds when one was
    sent (429/503), else ``None``; ``attempts`` is how many attempts the
    raising client spent before giving up (1 without a retry policy) —
    uniform across both clients, so callers can tell a hard failure
    from an exhausted retry budget.
    """

    def __init__(self, status: int, body: dict,
                 retry_after: float | None = None,
                 attempts: int = 1) -> None:
        self.status = status
        self.body = body if isinstance(body, dict) else {"error": str(body)}
        self.code = self.body.get("code", "error")
        if retry_after is None:
            retry_after = self.body.get("retry_after")
        self.retry_after = retry_after
        self.attempts = attempts
        super().__init__(
            "HTTP %d [%s]: %s"
            % (status, self.code, self.body.get("error", "request failed"))
        )


@dataclass(frozen=True)
class RetryPolicy:
    """How an HTTP client survives a hostile network.

    ``attempts`` caps total tries per logical request.  Between tries the
    client sleeps a jittered exponential backoff —
    ``backoff * 2^(attempt-1)``, capped at ``max_backoff``, stretched by
    up to ``jitter`` — except when the server sent ``Retry-After``,
    which is honoured verbatim (capped at ``max_backoff``).  Statuses in
    ``statuses`` are retried; every transport failure (reset, truncation,
    corruption caught by parse or digest verification, a stalled attempt
    past ``request_timeout``) is always retried.  ``seed`` makes the
    jitter deterministic for replayable tests.

    Retrying a *submit* is idempotent by construction: requests are
    content-addressed, so a duplicate submit joins the in-flight job or
    hits the cache — it can never run the same work twice concurrently
    or return a different answer.
    """

    attempts: int = 4
    backoff: float = 0.1
    max_backoff: float = 5.0
    jitter: float = 0.5
    statuses: tuple = (429, 503)
    #: Per-attempt wall-clock cap (seconds); ``None`` trusts the socket.
    request_timeout: float | None = None
    seed: int | None = None

    def rng(self) -> random.Random:
        return random.Random(
            "retry|%s" % self.seed if self.seed is not None else None
        )

    def delay(self, attempt: int, rng, retry_after=None) -> float:
        """Sleep before attempt ``attempt + 1`` (1-based attempts)."""
        if retry_after is not None:
            return min(float(retry_after), self.max_backoff)
        base = min(self.backoff * (2 ** (attempt - 1)), self.max_backoff)
        return base * (1.0 + self.jitter * rng.random())


#: What a retrying client treats as "the attempt died in transit":
#: resets, short reads, OS errors, and any parse-level ValueError — a
#: corrupted status line, header, or JSON body all land here.
_TRANSPORT_ERRORS = (
    ConnectionError, asyncio.IncompleteReadError, OSError,
    ValueError, IndexError,
)


def _expired(attempts: int) -> ServiceHTTPError:
    return ServiceHTTPError(
        504,
        {"error": "deadline budget exhausted client-side",
         "code": "deadline_expired"},
        attempts=attempts,
    )


def _request_body(request: SimRequest, priority) -> bytes:
    """The encoded ``POST /v1/jobs`` body, built once per request and class.

    Memoized on the request, so a client re-sending one request (a sweep
    re-reading a cell) reuses the bytes it sent before.
    """
    from repro.service.http import request_to_wire

    key = "wire:%s" % (
        None if priority is None else parse_priority(priority).name
    )
    return memoized(
        request, key,
        lambda r: json.dumps(request_to_wire(r, priority)).encode(),
    )


def _encode_body(tree) -> bytes:
    """Request body bytes: *tree* JSON-encoded, or passed through as is."""
    if tree is None:
        return b""
    if isinstance(tree, bytes):
        return tree
    return json.dumps(tree).encode()


def _decode_payload(payload: dict):
    from repro.service.http import decode_result

    return decode_result(payload)


def _jobs_query(state, code, limit) -> str:
    from urllib.parse import urlencode

    params = [
        (name, value)
        for name, value in (("state", state), ("code", code), ("limit", limit))
        if value is not None
    ]
    return "/v1/jobs" + ("?" + urlencode(params) if params else "")


class AsyncServiceClient:
    """Asyncio client for the HTTP front end, one keep-alive connection.

    Not task-safe by design: one client == one connection == one
    outstanding request (HTTP/1.1 without pipelining).  Concurrency is
    expressed as N clients — exactly how the load generator models N
    simultaneous callers.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8140,
                 token: str | None = None,
                 retry: RetryPolicy | None = None,
                 deadline: float | None = None) -> None:
        self.host = host
        self.port = port
        self.token = token
        #: ``None`` keeps the legacy behavior: reconnect once on a dead
        #: keep-alive connection, no status retries.
        self.retry = retry
        #: Default per-request wall-clock budget in seconds (propagated
        #: as ``X-Deadline-Ms``); ``None`` means no deadline.
        self.deadline = deadline
        self._rng = retry.rng() if retry is not None else random.Random()
        self._reader = None
        self._writer = None

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def _roundtrip(self, method: str, path: str, body: bytes,
                         extra_headers: dict | None = None):
        headers = [
            "%s %s HTTP/1.1" % (method, path),
            "Host: %s:%d" % (self.host, self.port),
            "Content-Length: %d" % len(body),
        ]
        if self.token:
            headers.append("Authorization: Bearer %s" % self.token)
        if body:
            headers.append("Content-Type: application/json")
        for name, value in (extra_headers or {}).items():
            headers.append("%s: %s" % (name, value))
        raw = ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body
        self._writer.write(raw)
        await self._writer.drain()

        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        parts = line.decode("latin-1").split(None, 2)
        status = int(parts[1])
        response_headers = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0"))
        payload = await self._reader.readexactly(length) if length else b""
        return status, response_headers, payload

    async def request(self, method: str, path: str, tree=None,
                      deadline: float | None = None):
        """One JSON round trip; returns ``(status, headers, parsed_body)``.

        Without a :class:`RetryPolicy`, reconnects once on a dead
        keep-alive connection (legacy behavior).  With one, survives
        resets, corruption, stalls, and retryable statuses per the
        policy.  Raises :class:`ServiceHTTPError` for status >= 400.
        *tree* is the JSON body, or its already-encoded bytes.
        """
        body = _encode_body(tree)
        loop = asyncio.get_running_loop()
        budget = deadline if deadline is not None else self.deadline
        deadline_at = None if budget is None else loop.time() + budget

        def deadline_headers():
            if deadline_at is None:
                return {}
            remaining = deadline_at - loop.time()
            return {"X-Deadline-Ms": "%d" % max(1, int(remaining * 1000))}

        if self.retry is None:
            if deadline_at is not None and loop.time() >= deadline_at:
                raise _expired(attempts=0)
            if self._writer is None:
                await self._connect()
            try:
                status, headers, payload = await self._roundtrip(
                    method, path, body, deadline_headers()
                )
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                await self.close()
                await self._connect()
                status, headers, payload = await self._roundtrip(
                    method, path, body, deadline_headers()
                )
            return self._finish(status, headers, payload, attempts=1,
                                close_cb=self._drop_connection)

        attempt = 0
        while True:
            attempt += 1
            if deadline_at is not None and loop.time() >= deadline_at:
                raise _expired(attempts=attempt - 1)
            try:
                if self._writer is None:
                    await self._connect()
                coroutine = self._roundtrip(
                    method, path, body, deadline_headers()
                )
                if self.retry.request_timeout is not None:
                    status, headers, payload = await asyncio.wait_for(
                        coroutine, self.retry.request_timeout
                    )
                else:
                    status, headers, payload = await coroutine
            except (asyncio.TimeoutError, *_TRANSPORT_ERRORS):
                self._drop_connection()
                if attempt >= self.retry.attempts:
                    raise
                pause = self._pause(attempt, None, deadline_at, loop.time())
                if pause is None:
                    raise  # the backoff itself would blow the deadline
                await asyncio.sleep(pause)
                continue
            try:
                return self._finish(status, headers, payload,
                                    attempts=attempt,
                                    close_cb=self._drop_connection)
            except ServiceHTTPError as exc:
                if exc.status not in self.retry.statuses \
                        or attempt >= self.retry.attempts:
                    raise
                pause = self._pause(
                    attempt, exc.retry_after, deadline_at, loop.time()
                )
                if pause is None:
                    raise  # the backoff itself would blow the deadline
                await asyncio.sleep(pause)
            except ValueError:
                # A complete-but-corrupted payload (body bytes flipped in
                # flight) is a transport failure wearing a 200.
                self._drop_connection()
                if attempt >= self.retry.attempts:
                    raise
                pause = self._pause(attempt, None, deadline_at, loop.time())
                if pause is None:
                    raise
                await asyncio.sleep(pause)

    def _drop_connection(self) -> None:
        """Synchronously abandon the connection (transport closes async)."""
        if self._writer is not None:
            try:
                self._writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass
            self._reader = self._writer = None

    def _pause(self, attempt, retry_after, deadline_at, now):
        """Backoff before the next attempt; ``None`` = budget exhausted."""
        pause = self.retry.delay(attempt, self._rng, retry_after=retry_after)
        if deadline_at is not None and now + pause >= deadline_at:
            return None
        return pause

    def _finish(self, status, headers, payload, attempts, close_cb=None):
        """Parse one response; raise typed errors, honour close headers."""
        must_close = headers.get("connection", "").lower() == "close"
        content_type = headers.get("content-type", "")
        if content_type.startswith("application/json"):
            parsed = json.loads(payload.decode() or "null")
        else:
            parsed = payload.decode()
        if must_close and close_cb is not None:
            close_cb()
        if status >= 400:
            retry_after = headers.get("retry-after")
            raise ServiceHTTPError(
                status, parsed,
                retry_after=float(retry_after) if retry_after else None,
                attempts=attempts,
            )
        return status, headers, parsed

    # -- endpoint wrappers --------------------------------------------------

    async def submit(self, request: SimRequest, priority=None) -> dict:
        """``POST /v1/jobs``; returns the acceptance body (with digest)."""
        _status, _headers, body = await self.request(
            "POST", "/v1/jobs", _request_body(request, priority)
        )
        return body

    async def hedged_submit(self, request: SimRequest, priority=None,
                            hedge_after: float = 0.05) -> dict:
        """:meth:`submit`, hedged: race a second connection after a wait.

        The write-side twin of :meth:`hedged_result`.  If the primary
        connection hasn't carried the acceptance within ``hedge_after``
        seconds, a fresh connection POSTs the same request and the
        first answer wins.  Content addressing makes the duplicate POST
        idempotent: the slower submit joins the faster one's in-flight
        job (or hits the cache), so both acceptance bodies name the
        same digest and the job runs once.  The loser is cancelled and
        its connection dropped.
        """
        primary = asyncio.ensure_future(self.submit(request, priority))

        async def hedge():
            await asyncio.sleep(hedge_after)
            spare = AsyncServiceClient(
                self.host, self.port, token=self.token, retry=self.retry
            )
            try:
                return await spare.submit(request, priority)
            finally:
                await spare.close()

        backup = asyncio.ensure_future(hedge())
        pending = {primary, backup}
        last_exc = None
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    if task.cancelled():
                        continue
                    if task.exception() is None:
                        return task.result()
                    last_exc = task.exception()
            raise last_exc
        finally:
            for task in (primary, backup):
                if not task.done():
                    task.cancel()
            await asyncio.gather(primary, backup, return_exceptions=True)
            if primary.cancelled():
                # Torn down mid-write/read: the keep-alive stream may
                # hold a half response — never reuse it.
                self._drop_connection()

    async def job_status(self, digest: str) -> dict:
        _status, _headers, body = await self.request(
            "GET", "/v1/jobs/%s" % digest
        )
        return body

    async def result(self, digest: str):
        """The decoded (digest-verified) result; ``None`` while pending.

        With a retry policy, a payload that fails digest verification
        (in-flight corruption the transport didn't catch) is treated
        like any other transport failure: drop the connection, back
        off, fetch again.
        """
        attempts = self.retry.attempts if self.retry is not None else 1
        for attempt in range(1, attempts + 1):
            status, _headers, body = await self.request(
                "GET", "/v1/jobs/%s/result" % digest
            )
            if status == 202:
                return None
            try:
                return _decode_payload(body)
            except ValueError:
                self._drop_connection()
                if attempt >= attempts:
                    raise
                await asyncio.sleep(
                    self.retry.delay(attempt, self._rng)
                )

    async def hedged_result(self, digest: str, hedge_after: float = 0.05):
        """:meth:`result`, hedged: race a second connection after a wait.

        For cached results behind a flaky network: if the primary
        connection hasn't answered within ``hedge_after`` seconds, a
        fresh connection issues the same GET and the first intact
        answer wins.  Content addressing makes the race benign — both
        connections can only return the byte-identical digest-verified
        result.  The loser is cancelled and its connection dropped.
        """
        primary = asyncio.ensure_future(self.result(digest))

        async def hedge():
            await asyncio.sleep(hedge_after)
            spare = AsyncServiceClient(
                self.host, self.port, token=self.token, retry=self.retry
            )
            try:
                return await spare.result(digest)
            finally:
                await spare.close()

        backup = asyncio.ensure_future(hedge())
        pending = {primary, backup}
        last_exc = None
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    if task.cancelled():
                        continue
                    if task.exception() is None:
                        return task.result()
                    last_exc = task.exception()
            raise last_exc
        finally:
            for task in (primary, backup):
                if not task.done():
                    task.cancel()
            await asyncio.gather(primary, backup, return_exceptions=True)
            if primary.cancelled():
                # The primary was torn down mid-read; its keep-alive
                # stream may hold a half response — never reuse it.
                self._drop_connection()

    async def list_jobs(self, state: str | None = None,
                        code: str | None = None,
                        limit: int | None = None) -> dict:
        """``GET /v1/jobs`` operator listing (filtered, newest first)."""
        _status, _headers, body = await self.request(
            "GET", _jobs_query(state, code, limit)
        )
        return body

    async def run(self, request: SimRequest, priority=None,
                  poll_interval: float = 0.05, timeout: float = 300.0):
        """Submit and block (polling) until the result is available."""
        accepted = await self.submit(request, priority)
        digest = accepted["digest"]
        deadline = asyncio.get_running_loop().time() + timeout
        while True:
            result = await self.result(digest)
            if result is not None:
                return result
            if asyncio.get_running_loop().time() >= deadline:
                raise TimeoutError(
                    "job %s not done within %.1fs" % (digest[:12], timeout)
                )
            await asyncio.sleep(poll_interval)

    async def health(self) -> dict:
        _status, _headers, body = await self.request("GET", "/health")
        return body

    async def metrics(self) -> str:
        _status, _headers, body = await self.request("GET", "/metrics")
        return body


class ServiceClient:
    """Blocking HTTP client (stdlib ``http.client``), same surface.

    For scripts, tests, and notebooks that are not async — the CI smoke
    job drives the server through this class.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8140,
                 token: str | None = None, timeout: float = 60.0,
                 retry: RetryPolicy | None = None,
                 deadline: float | None = None) -> None:
        self.host = host
        self.port = port
        self.token = token
        self.timeout = timeout
        #: Same semantics as :class:`AsyncServiceClient` — ``None`` keeps
        #: the legacy reconnect-once behavior.
        self.retry = retry
        self.deadline = deadline
        self._rng = retry.rng() if retry is not None else random.Random()
        self._conn: http.client.HTTPConnection | None = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _roundtrip(self, method: str, path: str, body: bytes,
                   extra_headers: dict | None = None):
        if self._conn is None:
            timeout = self.timeout
            if self.retry is not None \
                    and self.retry.request_timeout is not None:
                timeout = min(timeout, self.retry.request_timeout)
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=timeout
            )
        headers = {"Content-Type": "application/json"} if body else {}
        if self.token:
            headers["Authorization"] = "Bearer %s" % self.token
        headers.update(extra_headers or {})
        self._conn.request(method, path, body=body or None, headers=headers)
        response = self._conn.getresponse()
        payload = response.read()
        response_headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        return response.status, response_headers, payload

    def request(self, method: str, path: str, tree=None,
                deadline: float | None = None):
        body = _encode_body(tree)
        budget = deadline if deadline is not None else self.deadline
        deadline_at = None if budget is None else time.monotonic() + budget

        def deadline_headers():
            if deadline_at is None:
                return {}
            remaining = deadline_at - time.monotonic()
            return {"X-Deadline-Ms": "%d" % max(1, int(remaining * 1000))}

        # A stalled socket is a transport failure too: http.client raises
        # socket.timeout (an OSError) once the connection timeout fires.
        transport_errors = (
            ConnectionError, http.client.HTTPException, OSError, ValueError,
        )

        if self.retry is None:
            if deadline_at is not None and time.monotonic() >= deadline_at:
                raise _expired(attempts=0)
            try:
                status, headers, payload = self._roundtrip(
                    method, path, body, deadline_headers()
                )
            except transport_errors:
                self.close()
                status, headers, payload = self._roundtrip(
                    method, path, body, deadline_headers()
                )
            return self._finish(status, headers, payload, attempts=1)

        attempt = 0
        while True:
            attempt += 1
            if deadline_at is not None and time.monotonic() >= deadline_at:
                raise _expired(attempts=attempt - 1)
            try:
                status, headers, payload = self._roundtrip(
                    method, path, body, deadline_headers()
                )
            except transport_errors:
                self.close()
                if attempt >= self.retry.attempts:
                    raise
                pause = self._pause(attempt, None, deadline_at)
                if pause is None:
                    raise
                time.sleep(pause)
                continue
            try:
                return self._finish(status, headers, payload,
                                    attempts=attempt)
            except ServiceHTTPError as exc:
                if exc.status not in self.retry.statuses \
                        or attempt >= self.retry.attempts:
                    raise
                pause = self._pause(attempt, exc.retry_after, deadline_at)
                if pause is None:
                    raise
                time.sleep(pause)
            except ValueError:
                # Complete-but-corrupted payload: retry like a torn wire.
                self.close()
                if attempt >= self.retry.attempts:
                    raise
                pause = self._pause(attempt, None, deadline_at)
                if pause is None:
                    raise
                time.sleep(pause)

    def _pause(self, attempt, retry_after, deadline_at):
        pause = self.retry.delay(attempt, self._rng, retry_after=retry_after)
        if deadline_at is not None \
                and time.monotonic() + pause >= deadline_at:
            return None
        return pause

    def _finish(self, status, headers, payload, attempts):
        if headers.get("connection", "").lower() == "close":
            self.close()
        content_type = headers.get("content-type", "")
        if content_type.startswith("application/json"):
            parsed = json.loads(payload.decode() or "null")
        else:
            parsed = payload.decode()
        if status >= 400:
            retry_after = headers.get("retry-after")
            raise ServiceHTTPError(
                status, parsed,
                retry_after=float(retry_after) if retry_after else None,
                attempts=attempts,
            )
        return status, headers, parsed

    def submit(self, request: SimRequest, priority=None) -> dict:
        _status, _headers, body = self.request(
            "POST", "/v1/jobs", _request_body(request, priority)
        )
        return body

    def hedged_submit(self, request: SimRequest, priority=None,
                      hedge_after: float = 0.05) -> dict:
        """:meth:`submit`, hedged: race a spare connection after a wait.

        Thread-based twin of :meth:`AsyncServiceClient.hedged_submit`,
        safe for the same reason: a submit is idempotent by content
        address, so the slower POST joins the faster one's job (or
        hits the cache) and both acceptance bodies name the same
        digest.  If the primary hasn't answered within ``hedge_after``
        seconds a fresh connection issues the same POST; the first
        answer wins and the loser's connection is closed (aborting its
        blocked I/O) rather than waited for.
        """
        import concurrent.futures as cf

        spare = ServiceClient(self.host, self.port, token=self.token,
                              timeout=self.timeout, retry=self.retry)
        skip_hedge = threading.Event()

        def hedge():
            if skip_hedge.wait(hedge_after):
                return None  # primary answered first; never fired
            return spare.submit(request, priority)

        pool = cf.ThreadPoolExecutor(max_workers=2)
        primary = pool.submit(self.submit, request, priority)
        backup = pool.submit(hedge)
        pending = {primary, backup}
        winner = None
        last_exc = None
        try:
            while pending and winner is None:
                done, pending = cf.wait(
                    pending, return_when=cf.FIRST_COMPLETED
                )
                for task in done:
                    if task.exception() is None:
                        body = task.result()
                        if body is not None:
                            winner = (task, body)
                            break
                    else:
                        last_exc = task.exception()
            if winner is None:
                raise last_exc
            return winner[1]
        finally:
            skip_hedge.set()
            if winner is None or winner[0] is not primary:
                # The primary lost (or everything failed) — its
                # keep-alive stream may hold a half response; closing
                # it also unblocks the straggler thread's read.
                self.close()
            spare.close()
            pool.shutdown(wait=False)

    def job_status(self, digest: str) -> dict:
        _status, _headers, body = self.request("GET", "/v1/jobs/%s" % digest)
        return body

    def result(self, digest: str):
        attempts = self.retry.attempts if self.retry is not None else 1
        for attempt in range(1, attempts + 1):
            status, _headers, body = self.request(
                "GET", "/v1/jobs/%s/result" % digest
            )
            if status == 202:
                return None
            try:
                return _decode_payload(body)
            except ValueError:
                self.close()
                if attempt >= attempts:
                    raise
                time.sleep(self.retry.delay(attempt, self._rng))

    def list_jobs(self, state: str | None = None, code: str | None = None,
                  limit: int | None = None) -> dict:
        """``GET /v1/jobs`` operator listing (filtered, newest first)."""
        _status, _headers, body = self.request(
            "GET", _jobs_query(state, code, limit)
        )
        return body

    def run(self, request: SimRequest, priority=None,
            poll_interval: float = 0.05, timeout: float = 300.0):
        accepted = self.submit(request, priority)
        digest = accepted["digest"]
        deadline = time.monotonic() + timeout
        while True:
            result = self.result(digest)
            if result is not None:
                return result
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    "job %s not done within %.1fs" % (digest[:12], timeout)
                )
            time.sleep(poll_interval)

    def health(self) -> dict:
        _status, _headers, body = self.request("GET", "/health")
        return body

    def metrics(self) -> str:
        _status, _headers, body = self.request("GET", "/metrics")
        return body
