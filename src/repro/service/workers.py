"""Worker tier: executes one service job in a thread or a fabric worker.

The scheduler never touches a simulator directly; it serializes each
:class:`~repro.service.request.SimRequest` into a plain job *spec* dict
(picklable, so the same spec runs in a thread or in a fabric worker
process) and hands it to :func:`execute_job`.  A job returns either

* ``("done", result, meta)`` — the completed
  :class:`~repro.core.results.TimingResult` /
  :class:`~repro.core.results.FunctionalResult` plus execution metadata,
  or
* ``("preempted", info)`` — the run saved a full snapshot at a boundary
  and stopped because its preempt flag was raised
  (:class:`repro.snapshot.SnapshotPolicy`'s ``interrupt`` hook).  The
  scheduler re-queues the job with ``resume`` set; the next execution
  continues from the snapshot bit-identically.

Preemption is signalled through the filesystem (a flag file named after
the job digest) so it works identically for thread and fabric workers:
the scheduler touches the flag, the running job observes it at its next
snapshot boundary.

Two pools drive :func:`execute_job`.  :class:`WorkerPool` runs it on
threads in this process — the library's, the tests' and the default
server's tier.  :class:`~repro.service.fabric.FabricCoordinator` runs it
in persistent worker processes and is the one *supervised* tier: when
the spec carries ``supervise``, :func:`execute_job` touches a per-digest
heartbeat file every ``interval`` seconds from a daemon thread, so the
scheduler's reaper can tell a worker that is *computing* from one that
is *wedged* (no heartbeat within the stall window) and kill + requeue
it — a liveness check orthogonal to the wall-clock ``job_timeout``.

A fabric worker that dies without an outcome resolves its future with
:class:`WorkerCrashed` carrying a failure-taxonomy code
(:data:`~repro.failures.CODE_WORKER_CRASHED`, or the code the reaper
recorded when it did the killing).  A clean simulation exception
crosses the process boundary as :class:`JobExecutionError` with the
original ``TypeName: message`` text, so the scheduler can keep telling
"the job is wrong" apart from "the machinery died".
"""

from __future__ import annotations

import concurrent.futures
import os
import threading

from repro.configio import machine_config_from_dict
from repro.failures import CODE_WORKER_CRASHED
from repro.snapshot.policy import SnapshotPolicy, WatchdogExpired

__all__ = [
    "JobExecutionError",
    "WorkerCrashed",
    "WorkerPool",
    "execute_job",
    "heartbeat_path",
    "make_job_spec",
    "preempt_flag_path",
]


class WorkerCrashed(Exception):
    """A worker process died without reporting an outcome.

    ``code`` is the failure-taxonomy code: ``worker_crashed`` for a
    spontaneous death, ``worker_stalled`` / ``timeout`` when the
    scheduler killed it on purpose (recorded via
    ``FabricCoordinator.kill``).
    """

    def __init__(self, message: str, code: str = CODE_WORKER_CRASHED,
                 exitcode: int | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.exitcode = exitcode


class JobExecutionError(Exception):
    """A clean simulation exception relayed from a fabric worker.

    ``str(exc)`` is the original ``TypeName: message`` text — the same
    shape thread-mode failures format to — so failure records look
    identical across worker modes.
    """


def make_job_spec(request, digest: str, snapshot: dict | None) -> dict:
    """Plain picklable job description for :func:`execute_job`.

    *snapshot*, when given, is ``{"every": N, "dir": path}`` and makes a
    timing job preemptible and resumable; functional jobs ignore it
    (they are short by construction — scans, no cycle accounting).

    The scheduler may later attach:

    * ``supervise`` — ``{"dir": path, "interval": seconds}``; the worker
      heartbeats into *dir* so the reaper can spot stalls;
    * ``chaos`` — a :mod:`repro.faults.infra` worker profile (test
      harness only: seeded self-SIGKILLs and heartbeat stalls);
    * ``attempt`` — the 1-based execution attempt, so seeded chaos
      decisions differ between retries of one digest.
    """
    from repro.configio import machine_config_to_dict

    spec = {
        "digest": digest,
        "machine": machine_config_to_dict(request.machine),
        "benchmark": request.benchmark,
        "scale": float(request.scale),
        "seed": int(request.seed),
        "warmup_fraction": float(request.warmup_fraction),
        "mode": request.mode,
        "snapshot": None,
        "resume": False,
        "supervise": None,
        "chaos": None,
        "attempt": 1,
    }
    if snapshot is not None and request.mode == "timing":
        spec["snapshot"] = {
            "every": int(snapshot["every"]),
            "dir": str(snapshot["dir"]),
        }
    return spec


def preempt_flag_path(snapshot_dir: str, digest: str) -> str:
    return os.path.join(snapshot_dir, digest + ".preempt")


def raise_preempt_flag(snapshot_dir: str, digest: str) -> str:
    """Ask the running job for *digest* to stop at its next boundary."""
    path = preempt_flag_path(snapshot_dir, digest)
    os.makedirs(snapshot_dir, exist_ok=True)
    with open(path, "w"):
        pass
    return path


def clear_preempt_flag(snapshot_dir: str, digest: str) -> None:
    try:
        os.unlink(preempt_flag_path(snapshot_dir, digest))
    except OSError:
        pass


# -- heartbeats ---------------------------------------------------------------

def heartbeat_path(directory: str, digest: str) -> str:
    return os.path.join(directory, digest + ".hb")


def _write_heartbeat(spec: dict) -> str | None:
    """Write the initial beat file (with the worker pid, for forensics).

    Split from :func:`_start_beat_thread` so chaos can be armed *between*
    the first beat and the beat thread: a chaos-stalled worker then
    wedges with exactly one beat on record and true silence after — the
    fault the reaper exists to catch.  A beat thread started first would
    keep touching the file from under the wedged main thread and hide
    the stall forever.
    """
    supervise = spec.get("supervise")
    if not supervise:
        return None
    os.makedirs(supervise["dir"], exist_ok=True)
    path = heartbeat_path(supervise["dir"], spec["digest"])
    with open(path, "w") as handle:
        handle.write("%d\n" % os.getpid())
    return path


def _start_beat_thread(spec: dict, path: str | None):
    """Touch *path* every supervise interval from a daemon thread.

    The beat is an ``os.utime`` touch — the reaper only reads mtimes.
    Returns a stopper callable (a no-op when unsupervised).
    """
    if path is None:
        return lambda: None
    interval = float(spec["supervise"]["interval"])
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(interval):
            try:
                os.utime(path)
            except OSError:
                return  # heartbeat dir torn down: the run is over

    thread = threading.Thread(
        target=beat, name="repro-heartbeat", daemon=True
    )
    thread.start()
    return stop.set


def execute_job(spec: dict):
    """Run one job spec to completion (or preemption).  See module docs.

    Module-level and argument-picklable on purpose: fabric workers must
    be able to import and call it.
    """
    import time

    from repro.workloads.suite import build_benchmark

    beat_file = _write_heartbeat(spec)
    disarm_chaos = None
    if spec.get("chaos"):
        from repro.faults.infra import arm_worker_chaos

        # Test harness only: may SIGKILL this process mid-job or wedge
        # it right here with its heartbeat silenced (never returns).
        # A kill that has not fired by the end of the job is disarmed:
        # the fabric worker lives on to run other jobs.
        disarm_chaos = arm_worker_chaos(spec)
    stop_heartbeat = _start_beat_thread(spec, beat_file)
    try:
        config = machine_config_from_dict(spec["machine"])
        workload = build_benchmark(
            spec["benchmark"], scale=spec["scale"], seed=spec["seed"]
        )
        warmup = int(workload.trace.uop_count * spec["warmup_fraction"])
        started = time.perf_counter()

        if spec["mode"] == "functional":
            from repro.core.functional import FunctionalSimulator

            result = FunctionalSimulator(config, workload.memory).run(
                workload.trace, warmup
            )
            return ("done", result, _meta(spec, workload, started))

        from repro.core.simulator import TimingSimulator

        simulator = TimingSimulator(config, workload.memory)
        snapshot = spec.get("snapshot")
        if snapshot is None:
            result = simulator.run(workload.trace, warmup)
            return ("done", result, _meta(spec, workload, started))

        flag = preempt_flag_path(snapshot["dir"], spec["digest"])
        policy = SnapshotPolicy(
            every=snapshot["every"],
            directory=snapshot["dir"],
            resume=bool(spec.get("resume")),
            interrupt=lambda: os.path.exists(flag),
        )
        try:
            result = simulator.run(workload.trace, warmup, policy=policy)
        except WatchdogExpired as exc:
            return ("preempted", {"path": exc.path, "uop": exc.uop})
        return ("done", result, _meta(spec, workload, started))
    finally:
        if disarm_chaos is not None:
            disarm_chaos()
        stop_heartbeat()


def _meta(spec: dict, workload, started) -> dict:
    import time

    return {
        "benchmark": spec["benchmark"],
        "mode": spec["mode"],
        "uops": workload.trace.uop_count,
        "elapsed": time.perf_counter() - started,
        "resumed": bool(spec.get("resume")),
    }


class WorkerPool:
    """Thread workers sharing the in-process workload image cache.

    Cheap and GIL-bound — right for cache-heavy serving, the library and
    the tests.  Threads cannot be killed: :meth:`kill` finds nothing, and
    the scheduler discards a timed-out thread's tardy result.  Killable,
    heartbeat-supervised workers are the fabric's
    (:class:`~repro.service.fabric.FabricCoordinator`), which speaks the
    same ``submit`` / ``kill`` / ``shutdown`` protocol.
    """

    def __init__(self, max_workers: int = 1) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_workers,
            thread_name_prefix="repro-service-worker",
        )

    def submit(self, spec: dict) -> concurrent.futures.Future:
        return self._executor.submit(execute_job, spec)

    def kill(self, digest: str, code: str) -> bool:
        """Threads cannot be killed: always ``False``."""
        return False

    def shutdown(self, wait: bool = True) -> None:
        # cancel_futures guards against jobs sneaking in post-drain.
        self._executor.shutdown(wait=wait, cancel_futures=True)
