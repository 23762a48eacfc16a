"""Supervision policy for batch execution: deadlines, liveness, retry, demotion.

Before this module the executor's only failure story was "raise
``RuntimeError`` and discard the pool", and a hung worker blocked the
campaign until ``close()`` escalated.  Supervision turns worker failure
into an expected, *classified* event:

* :class:`SupervisorConfig` -- the env-resolved policy knobs: per-batch
  wall-clock deadlines derived from batch size, the heartbeat grace
  window, bounded retries with exponential backoff, and the
  consecutive-failure threshold that triggers a backend demotion.
* :class:`FailureDetail` / :class:`WorkerFailure` -- one classified
  failure record per worker (index, journal cursor, kind, message) and
  the aggregate exception carrying **all** of them (the first failure
  must not silently eat the rest).
* :func:`await_worker_reply` -- the supervised receive loop: polls the
  worker pipe, consumes heartbeat messages as liveness evidence, detects
  dead processes immediately, and classifies deadline/grace expiries as
  timeouts.
* :func:`degradation_ladder` -- the graceful-degradation order ``pool ->
  serial``; serial is the always-correct floor (bit-identical to the
  sequential loop by construction), so a campaign that demotes still
  terminates with the exact fault-free solution.

Every recovery path re-routes through the executor's existing
validation/fallback machinery, which is what keeps recovery bit-identical
to the fault-free serial run -- supervision only decides *when* to retry,
replace or demote, never *what* a route looks like.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.utils.env import env_float, env_int

#: Per-batch deadline knobs: total override, and the batch-size-derived
#: budget ``base + per_net * len(batch)`` used when no override is set.
#: ``REPRO_BATCH_DEADLINE=0`` disables deadlines outright.
BATCH_DEADLINE_ENV = "REPRO_BATCH_DEADLINE"
BATCH_DEADLINE_BASE_ENV = "REPRO_BATCH_DEADLINE_BASE"
BATCH_DEADLINE_PER_NET_ENV = "REPRO_BATCH_DEADLINE_PER_NET"
#: Longest silence (seconds) tolerated from an *alive* worker before it is
#: declared hung; heartbeats refresh the window.  ``0`` (default) disables
#: the grace check and leaves only the total batch deadline.
HEARTBEAT_GRACE_ENV = "REPRO_HEARTBEAT_GRACE"
#: Bounded retry: how many times a failed parallel batch is retried on the
#: same backend tier, and the exponential-backoff base delay in seconds
#: (attempt ``k`` sleeps ``backoff * 2**(k-1)``).
BATCH_RETRIES_ENV = "REPRO_BATCH_RETRIES"
RETRY_BACKOFF_ENV = "REPRO_RETRY_BACKOFF"
#: Consecutive retry-exhausted batch failures at one backend tier before
#: the executor demotes to the next tier of the degradation ladder.
DEMOTE_AFTER_ENV = "REPRO_DEMOTE_AFTER"

DEFAULT_DEADLINE_BASE = 60.0
DEFAULT_DEADLINE_PER_NET = 15.0
DEFAULT_HEARTBEAT_GRACE = 0.0
DEFAULT_BATCH_RETRIES = 2
DEFAULT_RETRY_BACKOFF = 0.05
DEFAULT_DEMOTE_AFTER = 2

#: Failure kinds, in the order used to pick an aggregate's headline kind.
FAILURE_KINDS = ("timeout", "crash", "replay", "compute", "fatal")

#: The graceful-degradation order.  Serial is the floor: always available,
#: bit-identical to the sequential loop by construction.
LADDER = ("pool", "serial")


def degradation_ladder(backend: str) -> Tuple[str, ...]:
    """Return the demotion sequence starting at *backend* (ending at serial)."""
    if backend not in LADDER:
        raise ValueError(f"unknown backend {backend!r}; expected one of {LADDER}")
    return LADDER[LADDER.index(backend):]


@dataclass(frozen=True)
class SupervisorConfig:
    """Resolved supervision policy (env knobs with programmatic overrides)."""

    deadline_override: Optional[float] = None
    deadline_base: float = DEFAULT_DEADLINE_BASE
    deadline_per_net: float = DEFAULT_DEADLINE_PER_NET
    heartbeat_grace: float = DEFAULT_HEARTBEAT_GRACE
    max_retries: int = DEFAULT_BATCH_RETRIES
    backoff_base: float = DEFAULT_RETRY_BACKOFF
    demote_after: int = DEFAULT_DEMOTE_AFTER

    @classmethod
    def from_env(cls, **overrides: object) -> "SupervisorConfig":
        """Build the config from the environment, then apply *overrides*."""
        override = env_float(BATCH_DEADLINE_ENV, -1.0)
        config = cls(
            deadline_override=override if override >= 0.0 else None,
            deadline_base=env_float(BATCH_DEADLINE_BASE_ENV, DEFAULT_DEADLINE_BASE),
            deadline_per_net=env_float(
                BATCH_DEADLINE_PER_NET_ENV, DEFAULT_DEADLINE_PER_NET
            ),
            heartbeat_grace=env_float(HEARTBEAT_GRACE_ENV, DEFAULT_HEARTBEAT_GRACE),
            max_retries=env_int(BATCH_RETRIES_ENV, DEFAULT_BATCH_RETRIES),
            backoff_base=env_float(RETRY_BACKOFF_ENV, DEFAULT_RETRY_BACKOFF),
            demote_after=max(1, env_int(DEMOTE_AFTER_ENV, DEFAULT_DEMOTE_AFTER)),
        )
        return replace(config, **overrides) if overrides else config

    def deadline_seconds(self, batch_size: int) -> Optional[float]:
        """Return the wall-clock budget for a *batch_size*-net batch.

        The explicit ``REPRO_BATCH_DEADLINE`` override wins; ``0`` means
        "no deadline" (returns ``None``).  Otherwise the budget scales
        with the batch: ``base + per_net * batch_size``.
        """
        if self.deadline_override is not None:
            return self.deadline_override or None
        return self.deadline_base + self.deadline_per_net * max(1, batch_size)

    def backoff_seconds(self, attempt: int) -> float:
        """Return the sleep before retry *attempt* (1-based), exponentially grown."""
        return self.backoff_base * (2.0 ** max(0, attempt - 1))


@dataclass
class FailureDetail:
    """One classified per-worker failure record."""

    worker: Optional[int]
    kind: str
    message: str
    cursor: Optional[int] = None
    net: Optional[str] = None

    def __str__(self) -> str:
        where = "parent" if self.worker is None else f"worker {self.worker}"
        cursor = "" if self.cursor is None else f" @cursor {self.cursor}"
        net = "" if self.net is None else f" (net {self.net!r})"
        return f"{where}{cursor} [{self.kind}]{net}: {self.message}"


class WorkerFailure(RuntimeError):
    """A classified batch-execution failure aggregating every worker's detail.

    ``kind`` is the most severe detail kind (:data:`FAILURE_KINDS` order);
    ``retryable`` says whether a bounded retry (after worker replacement)
    can plausibly succeed -- replay/compute/crash/timeout failures are
    retryable because a replaced worker starts from clean, authoritative
    parent state, while ``fatal`` marks design errors (misconfiguration,
    unpicklable payloads, bugs) that retrying cannot fix.  The message enumerates **all** failed workers with their index
    and journal cursor -- the first failure never hides the rest.
    """

    def __init__(self, details: Sequence[FailureDetail], context: str = "batch"):
        self.details: List[FailureDetail] = list(details)
        kinds = {detail.kind for detail in self.details}
        self.kind = next(
            (kind for kind in FAILURE_KINDS if kind in kinds), "fatal"
        )
        self.retryable = "fatal" not in kinds
        super().__init__(
            f"{context} failed ({len(self.details)} worker failure"
            f"{'s' if len(self.details) != 1 else ''}): "
            + "; ".join(str(detail) for detail in self.details)
        )


def classify_worker_payload(
    payload: object, worker: Optional[int], cursor: Optional[int]
) -> FailureDetail:
    """Classify an ``("error", payload)`` reply a worker sent up the pipe."""
    if isinstance(payload, dict):
        return FailureDetail(
            worker=worker,
            kind=str(payload.get("kind", "compute")),
            message=str(payload.get("error", payload)),
            cursor=payload.get("ops_seen", cursor),
            net=payload.get("net"),
        )
    # Legacy / free-form error strings: assume a compute-stage failure.
    return FailureDetail(worker=worker, kind="compute", message=str(payload), cursor=cursor)


def classify_exception(exc: BaseException) -> str:
    """Classify a parent-side exception from a pool-tier batch.

    Pipe breakage is a crash (retryable -- the next attempt starts fresh
    workers); anything else raised by the backend machinery itself is
    treated as retryable compute noise only when it came from fault
    injection, and as a fatal design error otherwise (a deterministic bug
    re-raises identically on every retry, and the serial floor will
    surface it to the caller with a clean traceback).
    """
    from repro.faults import FaultError

    if isinstance(exc, (BrokenPipeError, EOFError, ConnectionError, OSError)):
        return "crash"
    if isinstance(exc, FaultError):
        return "compute"
    return "fatal"


@dataclass
class ReplyOutcome:
    """What :func:`await_worker_reply` observed from one worker."""

    payload: Optional[object] = None
    failure: Optional[FailureDetail] = None
    heartbeats: int = 0


def await_worker_reply(
    conn,
    process,
    worker: int,
    cursor: int,
    deadline_at: Optional[float],
    heartbeat_grace: float,
    poll_interval: float = 0.05,
) -> ReplyOutcome:
    """Supervised receive of one worker's batch reply.

    Consumes interleaved ``("hb", progress)`` heartbeat messages (sent
    after catch-up replay and between nets) as liveness evidence, returns
    the terminal ``("ok", payload)`` payload, and classifies everything
    else: a worker-sent ``("error", detail)`` by its own classification,
    a dead process / EOF as a ``crash``, and an expired batch deadline or
    heartbeat-grace window as a ``timeout``.  Never raises -- the caller
    aggregates outcomes across workers into one :class:`WorkerFailure`.
    """
    outcome = ReplyOutcome()
    last_beat = time.monotonic()
    while True:
        # Drain before judging: a reply already sitting in the pipe is
        # accepted even past the deadline, so one hung batch-mate never
        # condemns workers that finished in time.
        try:
            ready = conn.poll(0)
        except (OSError, ValueError):
            outcome.failure = FailureDetail(
                worker=worker, kind="crash", cursor=cursor,
                message="worker pipe broke while awaiting reply",
            )
            return outcome
        if ready:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                outcome.failure = FailureDetail(
                    worker=worker, kind="crash", cursor=cursor,
                    message="worker pipe closed mid-batch (EOF)",
                )
                return outcome
            status = message[0]
            if status == "hb":
                outcome.heartbeats += 1
                last_beat = time.monotonic()
                continue
            if status == "ok":
                outcome.payload = message[1]
                return outcome
            outcome.failure = classify_worker_payload(message[1], worker, cursor)
            return outcome
        now = time.monotonic()
        if deadline_at is not None and now >= deadline_at:
            outcome.failure = FailureDetail(
                worker=worker, kind="timeout", cursor=cursor,
                message="batch deadline exceeded (worker hung or too slow)",
            )
            return outcome
        if heartbeat_grace > 0 and now - last_beat >= heartbeat_grace:
            outcome.failure = FailureDetail(
                worker=worker, kind="timeout", cursor=cursor,
                message=f"no heartbeat for {heartbeat_grace:.3g}s (worker hung)",
            )
            return outcome
        wait = poll_interval
        if deadline_at is not None:
            wait = min(wait, max(0.0, deadline_at - now))
        if heartbeat_grace > 0:
            wait = min(wait, max(0.0, last_beat + heartbeat_grace - now))
        try:
            ready = conn.poll(wait)
        except (OSError, ValueError):
            outcome.failure = FailureDetail(
                worker=worker, kind="crash", cursor=cursor,
                message="worker pipe broke while awaiting reply",
            )
            return outcome
        if ready:
            continue  # the top-of-loop drain consumes it
        if process is not None and not process.is_alive():
            # One last drain: the worker may have replied and exited
            # between our poll and the liveness check.
            if not conn.poll(0):
                outcome.failure = FailureDetail(
                    worker=worker, kind="crash", cursor=cursor,
                    message=(
                        "worker process died mid-batch "
                        f"(exitcode {process.exitcode})"
                    ),
                )
                return outcome
