"""Seeded fault injection for the *infrastructure* that runs simulations.

:mod:`repro.faults.injector` perturbs the simulated hardware; this
module perturbs the machinery around it — the worker processes, the
heartbeat channel, and the result store — so the serving tier's
crash-only claims can be *proved* instead of assumed.  The paper's
stateless-prefetcher argument transfers directly: every service result
is content-addressed by its request digest, so any worker, process, or
store entry may die at any moment and the system must recompute and
converge to digest-identical results.

Three fault families, all driven by seeded, replayable decisions:

* **Worker kills** — a supervised fabric worker SIGKILLs *itself*
  mid-job (an uncatchable, genuine death; the scheduler sees a worker
  crash, not a cooperative exception).  Decisions are keyed by
  ``(chaos seed, digest, attempt)``, so a killed job's retry rolls a
  fresh decision and eventually survives — except jobs whose request
  seed is listed in ``kill_seeds``, which die on *every* attempt: those
  are the poison jobs the quarantine must catch.
* **Heartbeat stalls** — the worker writes one heartbeat then wedges in
  a sleep loop with the heartbeat silenced.  Only the scheduler's
  reaper can recover it (the wall-clock timeout may be far longer);
  this is the fault the stall window exists for.
* **Store corruption** — :class:`ChaosStore` damages entries *after* a
  successful put, the way real corruption arrives (torn writes, bit
  rot), in two flavours: a bit flip inside the result body (checksum
  mismatch on read; the envelope — and its repair fingerprint — stays
  readable) and file truncation (the whole envelope is unreadable;
  unrepairable from the entry alone, so it must degrade to a cache
  miss).  Every injected corruption is recorded in
  :attr:`ChaosStore.corrupted` so tests can assert the scrubber found
  100% of them.

The worker-side hooks travel inside the job spec (``spec["chaos"]``), so
they work identically however the worker was spawned; nothing here is
imported by production paths unless a chaos profile is configured.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import threading
import time
from dataclasses import dataclass, field

from repro.service.store import ResultStore

__all__ = [
    "ChaosStore",
    "InfraChaosConfig",
    "arm_worker_chaos",
    "chaos_action",
    "corrupt_entry",
    "fabric_action",
    "infra_storm",
]


@dataclass(frozen=True)
class InfraChaosConfig:
    """One seeded infrastructure-fault profile.

    Rates are per *execution attempt* (worker faults) or per *put*
    (store faults).  ``kill_seeds`` lists request seeds whose jobs are
    killed on every attempt — deterministic poison for quarantine tests.
    """

    seed: int = 0
    worker_kill_rate: float = 0.0
    #: Self-SIGKILL fires after a uniform delay in this window, so the
    #: death lands mid-job rather than before any work starts.
    kill_delay: tuple = (0.01, 0.08)
    heartbeat_stall_rate: float = 0.0
    kill_seeds: tuple = ()
    #: Per-job death rate keyed by the executing fabric *cell* (the
    #: coordinator stamps ``worker``/``worker_jobs`` into the chaos
    #: payload), not by the job: the same digest survives on the
    #: respawned worker, modelling a flaky host rather than a poison
    #: request.  Zero outside fabric mode.
    fabric_kill_rate: float = 0.0
    store_corrupt_rate: float = 0.0
    #: Fraction of injected store corruptions that truncate the file
    #: (unreadable, unrepairable) instead of bit-flipping the body
    #: (checksum mismatch, repairable from the intact fingerprint).
    store_truncate_fraction: float = 0.0

    def worker_spec(self) -> dict | None:
        """The picklable ``spec["chaos"]`` payload, or ``None`` if this
        profile injects no worker faults."""
        if (self.worker_kill_rate <= 0 and self.heartbeat_stall_rate <= 0
                and self.fabric_kill_rate <= 0 and not self.kill_seeds):
            return None
        return {
            "seed": int(self.seed),
            "kill_rate": float(self.worker_kill_rate),
            "kill_delay": tuple(self.kill_delay),
            "stall_rate": float(self.heartbeat_stall_rate),
            "fabric_kill_rate": float(self.fabric_kill_rate),
            "kill_seeds": tuple(int(s) for s in self.kill_seeds),
        }


def infra_storm(seed: int = 0) -> InfraChaosConfig:
    """A moderate every-fault-family profile for chaos suites."""
    return InfraChaosConfig(
        seed=seed,
        worker_kill_rate=0.25,
        heartbeat_stall_rate=0.15,
        store_corrupt_rate=0.4,
        store_truncate_fraction=0.35,
    )


def _rng(chaos_seed, *key) -> random.Random:
    """A PRNG keyed by the chaos seed plus a stable decision key.

    String seeding keeps decisions replayable across processes and runs
    (no dependence on ``PYTHONHASHSEED``).
    """
    return random.Random("%s|%s" % (chaos_seed, "|".join(map(str, key))))


def chaos_action(chaos: dict, digest: str, attempt: int,
                 request_seed: int) -> tuple:
    """The fault (if any) for one execution attempt.

    Returns ``("kill", delay)``, ``("stall", 0.0)``, or ``(None, 0.0)``.
    Pure function of its arguments — the scheduler, the worker, and the
    test can all replay the same decision.
    """
    if request_seed in chaos.get("kill_seeds", ()):
        return ("kill", 0.0)
    rng = _rng(chaos["seed"], digest, attempt)
    roll = rng.random()
    if roll < chaos.get("stall_rate", 0.0):
        return ("stall", 0.0)
    if roll < chaos.get("stall_rate", 0.0) + chaos.get("kill_rate", 0.0):
        low, high = chaos.get("kill_delay", (0.01, 0.08))
        return ("kill", rng.uniform(low, high))
    return (None, 0.0)


def fabric_action(chaos: dict, attempt: int = 1) -> tuple:
    """The per-*cell* fault (if any) for one fabric job hand-out.

    Keyed by ``(chaos seed, worker name, jobs completed on that worker,
    attempt)`` — the cell identity the coordinator stamps into the
    payload plus the scheduler's retry counter.  The worker/jobs pair
    makes the fault a property of the flaky host; the attempt makes
    every retry a fresh roll even when it lands back on the same cell
    at the same position (a respawned cell keeps its name and count),
    so storms converge instead of re-killing one job forever.  Pure and
    replayable like :func:`chaos_action`.
    """
    rate = chaos.get("fabric_kill_rate", 0.0)
    worker = chaos.get("worker")
    if rate <= 0 or worker is None:
        return (None, 0.0)
    rng = _rng(chaos["seed"], "fabric", worker,
               chaos.get("worker_jobs", 0), attempt)
    if rng.random() < rate:
        low, high = chaos.get("kill_delay", (0.01, 0.08))
        return ("kill", rng.uniform(low, high))
    return (None, 0.0)


def arm_worker_chaos(spec: dict):
    """Apply this attempt's fault decision inside a worker process.

    Returns a disarm callable for the end of the job.  ``kill`` starts a
    daemon timer that SIGKILLs the process after the decided delay — if
    the job finishes first, the caller disarms the timer and the
    decision was a near-miss, exactly like real transient failures.  (A
    fabric worker outlives its job, so an undisarmed timer would kill
    whatever job the worker runs next.)  ``stall`` wedges the worker
    forever with its heartbeat already silenced (the heartbeat thread is
    never started for a stalled worker: :func:`execute_job` arms chaos
    *after* writing the initial beat, so the reaper sees one beat and
    then silence).
    Fabric cells additionally roll :func:`fabric_action` against their
    own identity; either decision alone is enough to arm the kill.
    """
    chaos = spec["chaos"]
    action, delay = chaos_action(
        chaos, spec["digest"], int(spec.get("attempt", 1)), spec["seed"]
    )
    if action is None:
        action, delay = fabric_action(chaos, int(spec.get("attempt", 1)))
    if action == "kill":
        def die() -> None:
            os.kill(os.getpid(), signal.SIGKILL)

        timer = threading.Timer(delay, die)
        timer.daemon = True
        timer.start()
        return timer.cancel
    if action == "stall":
        while True:  # wedged: only the reaper's SIGKILL ends this worker
            time.sleep(0.05)
    return lambda: None


# -- store corruption ---------------------------------------------------------

def corrupt_entry(path: str, mode: str) -> None:
    """Damage one stored entry in place.

    ``"flip"`` inverts a byte inside the pickled envelope's result body
    (the entry still loads; its checksum no longer matches; the repair
    fingerprint survives).  ``"truncate"`` cuts the file in half (the
    envelope is unreadable; nothing is recoverable from it).
    """
    if mode == "truncate":
        size = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(max(1, size // 2))
        return
    if mode != "flip":
        raise ValueError("unknown corruption mode %r" % mode)
    with open(path, "rb") as handle:
        envelope = pickle.load(handle)
    body = bytearray(envelope["result"])
    body[len(body) // 2] ^= 0xFF
    envelope["result"] = bytes(body)
    # Deliberately NOT the atomic-put path: corruption does not fsync.
    with open(path, "wb") as handle:
        pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)


class ChaosStore(ResultStore):
    """A :class:`ResultStore` that corrupts entries just after ``put``.

    Corruption decisions are seeded per digest; every injected fault is
    recorded in :attr:`corrupted` (digest → mode) so a chaos suite can
    assert the scrubber finds and handles the complete set.  Setting
    :attr:`armed` to ``False`` stops injection — the "faulty disk
    replaced" moment that must precede a scrub-with-repair (with the
    per-digest decisions still armed, a repair's own put would be
    re-corrupted identically, forever).
    """

    def __init__(self, directory: str, chaos: InfraChaosConfig) -> None:
        super().__init__(directory)
        self.chaos = chaos
        self.corrupted: dict = {}
        self.armed = True

    def put(self, digest, result, fingerprint=None, meta=None) -> str:
        path = super().put(
            digest, result, fingerprint=fingerprint, meta=meta
        )
        if not self.armed:
            return path
        rng = _rng(self.chaos.seed, "store", digest)
        if rng.random() < self.chaos.store_corrupt_rate:
            mode = ("truncate"
                    if rng.random() < self.chaos.store_truncate_fraction
                    else "flip")
            corrupt_entry(path, mode)
            self.corrupted[digest] = mode
        return path
