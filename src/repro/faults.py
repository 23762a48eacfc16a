"""Deterministic, seeded fault injection for the supervision stack.

Worker crashes, compute hangs, slow replays, dropped pipes and torn
checkpoint writes must be *expected* events the executor absorbs -- and
proving that requires injecting them reproducibly, not ad-hoc SIGKILLs.
This module is the single switchboard: production code calls
:func:`fire` at a handful of **injection sites**, and an armed
:class:`FaultPlan` decides -- deterministically, from the plan text and
seed alone -- whether the site misbehaves on this particular hit.

Arming
------

A plan arms either programmatically (:func:`set_plan`, or the
:func:`injected` context manager tests use) or through the environment::

    REPRO_FAULT_PLAN="worker.crash:op=40;reply.delay:seconds=0.01,times=*"
    REPRO_FAULT_SEED=7

The environment is read once at import (so forked pool workers inherit
the armed plan through either the module state or the env); call
:func:`reload_from_env` after mutating ``os.environ`` in-process.

**Zero overhead when disarmed** is a hard requirement: every call site
guards with ``if faults.ARMED:`` -- a single module-attribute truth test
-- so a production campaign with no plan never pays for the hooks.

Plan grammar
------------

::

    plan    := clause (';' clause)*
    clause  := site ['@' nth] [':' params]
    params  := key '=' value (',' key '=' value)*

* ``site`` names one injection site (see :data:`SITES`); unknown sites
  are rejected at parse time.
* ``@nth`` skips the first ``nth - 1`` eligible hits of the clause (fire
  on the Nth eligible hit, 1-based).  Default: the first.
* ``times=N`` caps how often the clause fires in one process (default
  ``1``; ``times=*`` means every eligible hit).  Counters are
  per-process: a forked worker inherits the parent's counts at fork time
  and advances its own copies.
* ``p=0.5`` makes an eligible hit fire with probability 0.5 drawn from a
  per-clause :class:`random.Random` seeded by ``(seed, site, clause
  index)`` -- the chaos-sweep knob; fully deterministic for a given plan
  text and seed.
* Remaining params are site-specific triggers and tunables:
  ``worker=K`` restricts a clause to pool worker *K*; ``op=N`` makes
  ``worker.crash`` eligible only once the worker's replayed-op count has
  reached *N*; ``seconds=S`` sizes hangs and delays.

Injection sites
---------------

``worker.crash``
    Pool worker hard-exits (``os._exit``), as if SIGKILLed -- the parent
    sees a dead process / EOF mid-batch.  Checked after catch-up replay
    and between nets; ``op=N`` triggers at the first check where the
    worker's cumulative replayed-op count has reached *N*.
``worker.hang``
    Pool worker sleeps ``seconds`` (default 3600 -- effectively forever;
    the supervisor's deadline kills it) inside compute.
``reply.delay``
    Pool worker sleeps ``seconds`` (default 0.05) before replying: a
    slow replay / slow compute that must complete within the deadline.
``pipe.drop``
    Pool worker closes its pipe and exits cleanly without replying --
    the parent sees a bare EOF.
``compute.error``
    Speculative compute in a pool worker raises :class:`FaultError`.
``checkpoint.tear``
    ``checkpoint_io._write_atomic`` writes a torn (truncated, non-atomic)
    document to the *final* path, simulating the power-loss window a
    non-atomic filesystem would expose.  The integrity checksum plus the
    retained-checkpoint fallback must absorb it.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.utils.env import env_int, env_str

#: Environment knobs: the plan text and the seed of probabilistic clauses.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"
FAULT_SEED_ENV = "REPRO_FAULT_SEED"

#: Every legal injection site (typos in a plan must fail loudly, not
#: silently never fire).
SITES = (
    "worker.crash",
    "worker.hang",
    "reply.delay",
    "pipe.drop",
    "compute.error",
    "checkpoint.tear",
)

#: Module-level arming flag.  Call sites guard with ``if faults.ARMED:``
#: so a disarmed process pays exactly one attribute read per site hit.
ARMED: bool = False

_PLAN: Optional["FaultPlan"] = None

#: Process-scoped default fire context.  Worker entry points register
#: their identity once (``set_context(worker=index)``) so clauses with a
#: ``worker=K`` trigger can target sites -- like the compute hang inside
#: ``_compute_speculative`` -- that do not know the worker index at the
#: call site.  Explicit ``fire(**ctx)`` keys win over the defaults.
_CONTEXT: Dict[str, object] = {}


class FaultError(RuntimeError):
    """An injected failure (the payload of ``compute.error``)."""


class PipeDropFault(Exception):
    """Raised inside a pool worker to make it drop its pipe without replying."""


@dataclass
class FaultClause:
    """One parsed clause of a fault plan."""

    site: str
    nth: int = 1
    times: Optional[int] = 1  # ``None`` = unlimited (``times=*``)
    params: Dict[str, float] = field(default_factory=dict)
    target_worker: Optional[int] = None
    probability: Optional[float] = None
    # Per-process counters (forked workers inherit a copy and advance it).
    eligible_hits: int = 0
    fired: int = 0
    _rng: Optional[random.Random] = None

    def seconds(self, default: float) -> float:
        """Return the clause's ``seconds`` tunable, or *default*."""
        return float(self.params.get("seconds", default))

    def matches(self, ctx: Dict[str, object]) -> bool:
        """Return whether this hit is *eligible* (triggers satisfied)."""
        if self.target_worker is not None and ctx.get("worker") != self.target_worker:
            return False
        op_threshold = self.params.get("op")
        if op_threshold is not None:
            ops_seen = ctx.get("ops_seen")
            if ops_seen is None or ops_seen < op_threshold:
                return False
        return True

    def should_fire(self, ctx: Dict[str, object]) -> bool:
        """Count an eligibility check; return whether the clause fires now."""
        if self.times is not None and self.fired >= self.times:
            return False
        if not self.matches(ctx):
            return False
        self.eligible_hits += 1
        if self.eligible_hits < self.nth:
            return False
        if self.probability is not None and self._rng.random() >= self.probability:
            return False
        self.fired += 1
        return True


def parse_plan(text: str, seed: int = 0) -> "FaultPlan":
    """Parse the ``REPRO_FAULT_PLAN`` grammar into a :class:`FaultPlan`."""
    clauses: List[FaultClause] = []
    for index, raw_clause in enumerate(text.split(";")):
        raw_clause = raw_clause.strip()
        if not raw_clause:
            continue
        head, _, raw_params = raw_clause.partition(":")
        site, _, raw_nth = head.strip().partition("@")
        site = site.strip()
        if site not in SITES:
            raise ValueError(
                f"unknown fault site {site!r} in plan clause {raw_clause!r}; "
                f"expected one of {SITES}"
            )
        nth = 1
        if raw_nth.strip():
            nth = int(raw_nth)
            if nth < 1:
                raise ValueError(f"@nth must be >= 1 in plan clause {raw_clause!r}")
        clause = FaultClause(site=site, nth=nth)
        for pair in raw_params.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, sep, value = pair.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key or not value:
                raise ValueError(
                    f"malformed param {pair!r} in plan clause {raw_clause!r}; "
                    "expected key=value"
                )
            if key == "times":
                clause.times = None if value == "*" else int(value)
                if clause.times is not None and clause.times < 1:
                    raise ValueError(f"times must be >= 1 or '*' in {raw_clause!r}")
            elif key == "worker":
                clause.target_worker = int(value)
            elif key == "p":
                clause.probability = float(value)
                if not 0.0 <= clause.probability <= 1.0:
                    raise ValueError(f"p must lie in [0, 1] in {raw_clause!r}")
            else:
                clause.params[key] = float(value)
        # String seeds hash stably (sha512) -- unlike tuple hashing, which
        # PYTHONHASHSEED would randomise across the campaign's processes.
        clause._rng = random.Random(f"{seed}:{site}:{index}")
        clauses.append(clause)
    return FaultPlan(clauses=clauses, seed=seed)


@dataclass
class FaultPlan:
    """A parsed, armed set of fault clauses (see module docstring grammar)."""

    clauses: List[FaultClause] = field(default_factory=list)
    seed: int = 0

    def match(self, site: str, ctx: Dict[str, object]) -> Optional[FaultClause]:
        """Return the first clause of *site* that fires on this hit."""
        for clause in self.clauses:
            if clause.site == site and clause.should_fire(ctx):
                return clause
        return None


def set_plan(plan: object, seed: int = 0) -> FaultPlan:
    """Arm *plan* (a :class:`FaultPlan` or plan text) for this process."""
    global _PLAN, ARMED
    if isinstance(plan, str):
        plan = parse_plan(plan, seed)
    _PLAN = plan
    ARMED = plan is not None and bool(plan.clauses)
    return plan


def clear_plan() -> None:
    """Disarm fault injection for this process."""
    global _PLAN, ARMED
    _PLAN = None
    ARMED = False


def active_plan() -> Optional[FaultPlan]:
    """Return the armed plan, or ``None`` when disarmed."""
    return _PLAN


def set_context(**ctx: object) -> None:
    """Register process-scoped default :func:`fire` context (worker identity)."""
    _CONTEXT.update(ctx)


def clear_context() -> None:
    """Drop the process-scoped default fire context."""
    _CONTEXT.clear()


def reload_from_env() -> Optional[FaultPlan]:
    """(Re-)arm from ``REPRO_FAULT_PLAN`` / ``REPRO_FAULT_SEED``; return the plan."""
    text = env_str(FAULT_PLAN_ENV)
    if text is None:
        clear_plan()
        return None
    return set_plan(text, seed=env_int(FAULT_SEED_ENV, 0))


@contextmanager
def injected(plan_text: str, seed: int = 0) -> Iterator[FaultPlan]:
    """Arm *plan_text* for the duration of the block (test helper)."""
    previous = _PLAN
    plan = set_plan(plan_text, seed=seed)
    try:
        yield plan
    finally:
        set_plan(previous) if previous is not None else clear_plan()


def fire(site: str, **ctx: object) -> Optional[FaultClause]:
    """Run injection site *site*; return the fired clause (or ``None``).

    For behavioural sites the action happens right here (crash the
    process, sleep, raise); ``checkpoint.tear`` only *reports* the fired
    clause and lets the call site do the tearing, because only it holds
    the document text.  Call sites must guard with ``if faults.ARMED:``
    so the disarmed path costs one attribute read.
    """
    plan = _PLAN
    if plan is None:
        return None
    if _CONTEXT:
        ctx = {**_CONTEXT, **ctx}
    clause = plan.match(site, ctx)
    if clause is None:
        return None
    if site == "worker.crash":
        # A hard exit, as close to SIGKILL as we can self-inflict: no
        # atexit handlers, no flushing, the pipe simply goes dead.
        os._exit(13)
    elif site == "worker.hang":
        time.sleep(clause.seconds(3600.0))
    elif site == "reply.delay":
        time.sleep(clause.seconds(0.05))
    elif site == "pipe.drop":
        raise PipeDropFault(f"injected pipe drop at worker {ctx.get('worker')}")
    elif site == "compute.error":
        raise FaultError(f"injected compute error (net {ctx.get('net')!r})")
    return clause


# Arm from the environment at import: forked pool workers inherit either
# this module state or the env itself, so env-driven plans reach every
# process of a campaign without plumbing.
reload_from_env()
