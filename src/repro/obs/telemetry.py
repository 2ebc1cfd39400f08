"""Structured telemetry: named counters and monotonic stage timers.

The fleet engine (and every future perf PR) needs to know where time
goes — simulate vs. defend vs. attack vs. cache traffic — without
changing any result.  This module provides that substrate:

* a :class:`Telemetry` registry of float counters and
  ``(count, total seconds)`` timers, guarded by a lock so instrumented
  code may be called from any thread;
* **picklable, mergeable snapshots** (:class:`TelemetrySnapshot`): each
  worker process owns its own registry, captures a per-job delta, and
  ships it back piggybacked on the job result; the supervisor merges the
  deltas into fleet-level totals.  Merging is commutative and
  associative, so the aggregate is independent of completion order;
* a **zero-overhead disabled mode**: the module-level :data:`TELEMETRY`
  registry starts disabled, every ``count`` call is a single attribute
  check, and ``timer`` never reads the clock.  Telemetry can never
  perturb results either way — it only ever observes wall-clock and
  event counts, never randomness.

Process boundary: enablement crosses into workers through the
:data:`TELEMETRY_ENV` environment variable (inherited under both fork
and spawn), exactly like the fault-injection layer's plan.

Names are free-form, but the established vocabulary is (the full
reference, checked against the code by ``tools/lint_docstrings.py``, is
section 2 of ``docs/PERFORMANCE.md``):

* ``stage.*`` timers — ``stage.spec`` (job construction),
  ``stage.job`` / ``stage.simulate`` (per home), ``stage.defend`` /
  ``stage.attack`` (per defense and detector), ``stage.stream.job`` /
  ``stage.stream.push`` / ``stage.stream.<attack>`` (streamed
  sessions), ``stage.netpriv_job`` (one netpriv job: a (seed, LAN)
  and the dials it owes) / ``stage.shape`` / ``stage.fingerprint``;
* ``cache.*`` — ``cache.read`` / ``cache.write`` timers plus
  hit/miss/store/corrupt/stale counters;
* ``fleet.*`` — supervisor counters (``fleet.retry``,
  ``fleet.pool_rebuild``, ``fleet.attempt_failed.<kind>``,
  ``fleet.permanent_failure``, ``fleet.backoff_wait_s``,
  ``fleet.jobs_built``) and ``fleet.backend.<name>`` marking which
  executor backend ran each supervised call;
* ``hmm.*`` / ``fhmm.*`` — model fits, EM iterations, E-step kernel
  dispatch and joint-space sizes;
* ``stream.*`` — samples pushed, guard scrubs and rejections,
  quarantined attacks, and the ``stream.checkpoint_write`` timer;
* ``netpriv.flows`` — flows per simulated LAN pair (one per netpriv job).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Set to a non-empty value (other than "0") to enable the module-level
#: registry at import time — how the fleet engine arms worker processes.
TELEMETRY_ENV = "REPRO_TELEMETRY"


@dataclass(frozen=True)
class TimerStat:
    """One named timer's aggregate: invocation count and total seconds.

    Deliberately *not* carrying min/max: a ``(count, total)`` pair is the
    largest timer state that stays exact under both merging (addition)
    and delta-taking (subtraction); per-home spread comes from comparing
    whole snapshots across homes instead.
    """

    count: int = 0
    total_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def merged(self, other: "TimerStat") -> "TimerStat":
        return TimerStat(self.count + other.count, self.total_s + other.total_s)

    def minus(self, earlier: "TimerStat") -> "TimerStat":
        return TimerStat(
            self.count - earlier.count, max(0.0, self.total_s - earlier.total_s)
        )

    def as_dict(self) -> dict:
        return {"count": self.count, "total_s": self.total_s, "mean_s": self.mean_s}


_EMPTY_TIMER = TimerStat()


@dataclass(frozen=True)
class TelemetrySnapshot:
    """A picklable point-in-time copy of a registry's state.

    Snapshots form a commutative monoid under :meth:`merged` with the
    empty snapshot as identity, and support :meth:`minus` for windowed
    deltas (state at job end minus state at job start).
    """

    counters: dict[str, float] = field(default_factory=dict)
    timers: dict[str, TimerStat] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not self.counters and not self.timers

    def merged(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        timers = dict(self.timers)
        for name, stat in other.timers.items():
            timers[name] = timers.get(name, _EMPTY_TIMER).merged(stat)
        return TelemetrySnapshot(counters, timers)

    def minus(self, earlier: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """The activity that happened after ``earlier`` was taken."""
        counters = {}
        for name, value in self.counters.items():
            delta = value - earlier.counters.get(name, 0.0)
            if delta:
                counters[name] = delta
        timers = {}
        for name, stat in self.timers.items():
            delta = stat.minus(earlier.timers.get(name, _EMPTY_TIMER))
            if delta.count or delta.total_s:
                timers[name] = delta
        return TelemetrySnapshot(counters, timers)

    def as_dict(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "timers": {
                name: stat.as_dict() for name, stat in sorted(self.timers.items())
            },
        }


def merge_snapshots(snapshots) -> TelemetrySnapshot:
    """Fold any iterable of snapshots into one (order-independent)."""
    merged = TelemetrySnapshot()
    for snap in snapshots:
        merged = merged.merged(snap)
    return merged


class Telemetry:
    """A process-local registry of named counters and timers.

    Instrumented library code calls :meth:`count` and :meth:`timer`
    unconditionally; both are near-free while ``enabled`` is False.  The
    supervisor/worker protocol is snapshot-based: take a snapshot before
    a unit of work, another after, and ship ``after.minus(before)``.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._timer_counts: dict[str, int] = {}
        self._timer_totals: dict[str, float] = {}

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at zero)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    @contextmanager
    def timer(self, name: str):
        """Time the enclosed block under ``name`` (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self._timer_counts[name] = self._timer_counts.get(name, 0) + 1
                self._timer_totals[name] = (
                    self._timer_totals.get(name, 0.0) + elapsed
                )

    def snapshot(self) -> TelemetrySnapshot:
        with self._lock:
            return TelemetrySnapshot(
                counters=dict(self._counters),
                timers={
                    name: TimerStat(count, self._timer_totals.get(name, 0.0))
                    for name, count in self._timer_counts.items()
                },
            )

    def restore(self, snapshot: TelemetrySnapshot) -> None:
        """Reset the registry's state to exactly ``snapshot``."""
        with self._lock:
            self._counters = dict(snapshot.counters)
            self._timer_counts = {
                name: stat.count for name, stat in snapshot.timers.items()
            }
            self._timer_totals = {
                name: stat.total_s for name, stat in snapshot.timers.items()
            }


def _enabled_from_env() -> bool:
    return os.environ.get(TELEMETRY_ENV, "") not in ("", "0")


#: The registry instrumented library code records into.  One per process;
#: worker processes inherit enablement through :data:`TELEMETRY_ENV`.
TELEMETRY = Telemetry(enabled=_enabled_from_env())


class _Captured:
    """Holder for a block's telemetry delta, filled in as the block exits."""

    snapshot: TelemetrySnapshot | None = None


@contextmanager
def captured(enable: bool = False):
    """Take the enclosed block's counters and timers out of :data:`TELEMETRY`.

    On exit the yielded holder's ``snapshot`` is the block's delta
    (``None`` while telemetry is off) and the registry is back where it
    was.  ``enable`` switches telemetry on for the block alone.  This is
    how a job ships its own telemetry while the supervisor's counters
    stay job-free even when the job runs in the supervisor's process:
    the supervisor, itself inside a ``captured`` block, adds the shipped
    deltas back when it merges totals.
    """
    holder = _Captured()
    previous = TELEMETRY.enabled
    TELEMETRY.enabled = previous or enable
    try:
        if not TELEMETRY.enabled:
            yield holder
            return
        before = TELEMETRY.snapshot()
        yield holder
        holder.snapshot = TELEMETRY.snapshot().minus(before)
        TELEMETRY.restore(before)
    finally:
        TELEMETRY.enabled = previous
