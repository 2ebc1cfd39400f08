"""Deterministic fault injection for the fleet engine.

The supervisor's recovery paths — retry, timeout kill, pool rebuild —
only count as *working* if tests can trigger the failures they recover
from.  This module injects three worker-side fault kinds on demand:

``error``
    raise :class:`FaultInjected` inside :func:`~repro.fleet.engine.run_home_job`
    (an ordinary job exception: exercised by retry/backoff);
``crash``
    hard-kill the worker process with ``os._exit`` (no exception, no
    cleanup: exercises ``BrokenProcessPool`` recovery and pool rebuild);
``hang``
    sleep far past any sane deadline (exercises the per-job wall-clock
    timeout and hung-pool teardown).

Injection is **deterministic and seed-driven**: a :class:`FaultPlan`
targets explicit home indices and/or a probabilistic ``rate`` drawn from
``sha256(seed, index, attempt)``, so the same plan fires at the same
(home, attempt) cells on every run, in any worker, under any chunking.
``max_attempt`` bounds how many attempts are sabotaged, which is how a
"flaky" job that fails first-try and succeeds on retry is modelled.

Activation crosses the process boundary through the ``REPRO_FLEET_FAULTS``
environment variable (a JSON-encoded plan), which worker processes
inherit under both fork and spawn.  :class:`~repro.fleet.engine.FleetRunner`
exports it for the duration of a run when given a ``faults=`` plan; it can
also be set by hand around any ``repro fleet`` invocation.

Faults fire *before* the home is simulated, so a job that survives
injection (or is retried past it) produces a byte-identical result to an
uninjected run — the determinism contract the engine tests pin.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from ..obs import SeededPlan

#: Environment hook read inside workers; JSON of :meth:`FaultPlan.to_json`.
FAULTS_ENV = "REPRO_FLEET_FAULTS"

#: Exit status used by injected worker crashes (visible in pool stderr).
CRASH_EXIT_CODE = 13

FAULT_KINDS = ("error", "crash", "hang")


class FaultInjected(RuntimeError):
    """The exception raised by an injected ``error`` fault."""


@dataclass(frozen=True)
class FaultPlan(SeededPlan):
    """Which (home index, attempt) cells to sabotage, and how.

    Parameters
    ----------
    kind:
        One of ``error`` / ``crash`` / ``hang``.
    indices:
        Explicit home indices to target.
    rate:
        Probability in ``[0, 1]`` of targeting any *other* cell; the draw
        is a pure function of ``(seed, index, attempt)``, so it is stable
        across processes and runs.
    seed:
        Entropy for the probabilistic draw.
    max_attempt:
        Inject only while ``attempt <= max_attempt``; ``None`` means every
        attempt (a poison pill).  ``max_attempt=0`` makes a flaky job that
        fails first-try and succeeds on retry.
    hang_s:
        Sleep duration for ``hang`` faults.
    """

    ENV = FAULTS_ENV

    kind: str
    indices: tuple[int, ...] = ()
    rate: float = 0.0
    seed: int = 0
    max_attempt: int | None = None
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        if self.hang_s <= 0:
            raise ValueError("hang_s must be positive")

    def targets(self, index: int, attempt: int) -> bool:
        """True when the plan fires at this (home, attempt) cell."""
        if self.max_attempt is not None and attempt > self.max_attempt:
            return False
        if index in self.indices:
            return True
        return self.rate > 0.0 and self.draw(index, attempt) < self.rate


def maybe_inject(index: int, attempt: int) -> None:
    """Fire the active plan's fault for this cell, if it targets it.

    Called at the top of the worker job, before any simulation work, so a
    retried-past fault leaves the home's result byte-identical to an
    uninjected run.
    """
    plan = FaultPlan.active()
    if plan is None or not plan.targets(index, attempt):
        return
    if plan.kind == "error":
        raise FaultInjected(
            f"injected error at home {index}, attempt {attempt}"
        )
    if plan.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    time.sleep(plan.hang_s)
