"""Observability substrate: structured telemetry and worker profiling.

``repro.obs`` is the layer every perf and scaling claim cites numbers
from.  It has two deliberately small parts:

* :mod:`repro.obs.telemetry` — a process-local registry of named
  counters and stage timers with picklable, mergeable snapshots (workers
  capture per-job deltas with :func:`captured`; the supervisor merges
  them into fleet totals);
* :mod:`repro.obs.profiling` — opt-in cProfile capture dumping per-job
  ``.pstats`` files.

Both are off by default and arm across process boundaries via
environment variables, so instrumented library code never needs to know
whether it is running in a worker, the supervisor, or a plain script.
:mod:`repro.obs.plan` holds :class:`SeededPlan`, the base of the two
fault-injection plans that arm the same way (the fleet's and the
stream's), with their one seeded draw and one strict JSON codec.
"""

from .plan import FaultPlanError, SeededPlan
from .profiling import PROFILE_DIR_ENV, active_profile_dir, maybe_profile
from .telemetry import (
    TELEMETRY,
    TELEMETRY_ENV,
    Telemetry,
    TelemetrySnapshot,
    TimerStat,
    captured,
    merge_snapshots,
)

__all__ = [
    "FaultPlanError",
    "PROFILE_DIR_ENV",
    "SeededPlan",
    "TELEMETRY",
    "TELEMETRY_ENV",
    "Telemetry",
    "TelemetrySnapshot",
    "TimerStat",
    "active_profile_dir",
    "captured",
    "maybe_profile",
    "merge_snapshots",
]
