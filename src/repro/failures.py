"""Failure taxonomy and retry backoff shared by every execution tier.

Every failed execution attempt carries one of these stable code strings.
The split that matters operationally is *simulation* failures (the job
itself is wrong — retrying cannot help beyond transient flakiness) vs
*infrastructure* failures (the machinery running the job died — the job
may be fine, or it may be poison that kills every worker it touches).
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass

__all__ = [
    "CODE_SIM_ERROR",
    "CODE_TIMEOUT",
    "CODE_WORKER_CRASHED",
    "CODE_WORKER_STALLED",
    "DEFAULT_BACKOFF",
    "INFRASTRUCTURE_CODES",
    "JobFailure",
    "backoff_delay",
    "is_infrastructure_code",
]

#: The job raised a clean Python exception (bad benchmark name, a bug in
#: the simulator, an assertion): the worker survived to report it.
CODE_SIM_ERROR = "sim_error"
#: The job exceeded its wall-clock budget and was abandoned (and, under
#: supervised fabric workers, killed).
CODE_TIMEOUT = "timeout"
#: The worker process died without reporting a result (signal, OOM kill,
#: interpreter abort).
CODE_WORKER_CRASHED = "worker_crashed"
#: The worker's heartbeat went silent past the stall window and the
#: scheduler's reaper killed it.
CODE_WORKER_STALLED = "worker_stalled"

#: Codes that indicate the *infrastructure* failed, not the simulation.
#: These feed the service's circuit breaker and poison-job quarantine.
INFRASTRUCTURE_CODES = frozenset(
    {CODE_TIMEOUT, CODE_WORKER_CRASHED, CODE_WORKER_STALLED}
)


def is_infrastructure_code(code: str) -> bool:
    """Whether *code* names an infrastructure (not simulation) failure."""
    return code in INFRASTRUCTURE_CODES


#: Per-attempt backoff base (seconds); attempt *n* waits ``backoff * n``
#: on average, jittered ±50% (see :func:`backoff_delay`).
DEFAULT_BACKOFF = 0.25

_JITTER = _random.Random()


def backoff_delay(backoff: float, attempt: int) -> float:
    """Jittered linear backoff for retry attempt *attempt*.

    Uniform over ``[0.5, 1.5] * backoff * attempt``: when several jobs
    fail together (a machine-wide stall, an OOM killer pass), unjittered
    retries re-land simultaneously and recreate the contention that
    killed them; the spread decorrelates them.
    """
    if backoff <= 0:
        return 0.0
    return backoff * attempt * (0.5 + _JITTER.random())


@dataclass
class JobFailure:
    """One job (named by its benchmark) that exhausted its retries."""

    benchmark: str
    error: str
    attempts: int
    timed_out: bool = False
    #: Failure-taxonomy code of the *final* attempt (see module constants).
    code: str = CODE_SIM_ERROR

    @property
    def infrastructure(self) -> bool:
        """Whether the infrastructure, not the simulation, failed."""
        return is_infrastructure_code(self.code)
