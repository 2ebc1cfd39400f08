"""Fleet-scale evaluation: many homes, worker processes, cached cells.

The paper's threat model is utility-scale — an adversary (or an auditing
utility) observes *populations* of homes, not one household.  This package
turns the single-home pipeline into a population instrument:

- :class:`FleetSpec` — declare N homes from the preset registry with
  deterministic per-home ``SeedSequence.spawn`` seeding;
- :class:`FleetRunner` / :func:`run_fleet` — *supervised* fan-out over a
  process pool: per-home failure isolation, bounded retries with
  backoff, per-job wall-clock timeouts, pool rebuild after worker
  crashes and streaming writes to an on-disk result cache, all in one
  supervisor loop, which drives an in-process executor for serial runs
  and pool-less platforms; two executor backends
  (``--backend serial|process``, :data:`BACKENDS`), pinned
  bit-identical to each other by the golden tests;
  :meth:`FleetRunner.run_jobs` (a :class:`JobsResult`) is the one
  supervised call, and batch, sweep, stream and netpriv runs are job
  factories over it (a fleet's :class:`FleetResult` is a
  :class:`JobsResult` of its homes);
- :class:`FleetReport` — per-defense population distributions
  (mean/median/p10/p90 of worst-case MCC, utility, energy cost) plus
  the sweep's :class:`HomeFailure` records;
- :mod:`repro.fleet.faults` — deterministic fault injection (worker
  errors, crashes, hangs) so the recovery paths above are *tested*, not
  trusted (:class:`FaultPlan` shares its base with the stream's plan);
- :class:`SweepGrid` / :class:`SweepRunner` / :func:`run_sweep` — the
  Sec. III-E knob grid: (defense × knob setting × seed) cells, each one
  fleet spec of a single ``name@setting`` parametrized defense, sharded
  with ``--shard i/n``, run as one home job per home the shard's cells
  owe (simulated once, scored per cell) and resumable through the same
  cache; reduced by :class:`FrontierReport` into privacy-utility
  frontier points;
- :class:`NetprivGrid` — the Sec. IV arms race over the same dial axes
  (:class:`KnobGrid`) and cells (:class:`SweepCell`), one supervised
  job per LAN, run by the same grid runner (:class:`SweepRunner`, also
  named ``NetprivSweepRunner``) and reduced by
  :class:`NetprivFrontierReport`; both reports are one
  :class:`Frontier` shell (reduction, running-min monotone gate, JSON
  and CSV exports);
- :func:`load_artifact` / :func:`artifact_from_report` — the claim-facing
  view of a frontier or stream report (see :mod:`repro.claims`);
- telemetry (``telemetry=True`` / ``repro fleet --telemetry``) — per-stage
  counter/timer snapshots from :mod:`repro.obs`, captured inside each
  worker, merged into fleet totals on :class:`FleetResult` and surfaced in
  :class:`FleetReport`; ``profile_dir=`` dumps per-job cProfile stats.

Quickstart::

    from repro.fleet import FleetSpec, run_fleet, FleetReport
    result = run_fleet(FleetSpec(n_homes=50, days=3, seed=0), workers=4)
    print(FleetReport.from_result(result).format_table())
"""

from .artifacts import (
    Artifact,
    ArtifactError,
    ArtifactRow,
    artifact_from_report,
    load_artifact,
)
from .cache import CACHE_FORMAT_VERSION, CacheStats, ResultCache, job_cache_key
from .engine import (
    BACKENDS,
    DEFAULT_BACKEND,
    FLEET_DETECTORS,
    FleetResult,
    FleetRunner,
    HomeFailure,
    HomeJobResult,
    HomeResult,
    JobsResult,
    result_digest,
    run_fleet,
    run_home_job,
    resolve_backend,
    run_stream_job,
    trace_digest,
)
from .faults import FAULTS_ENV, FaultInjected, FaultPlan
from .frontier import Frontier, FrontierPoint, FrontierReport
from .netpriv import (
    NETPRIV_LAN_CONFIGS,
    NetprivFrontierPoint,
    NetprivFrontierReport,
    NetprivGrid,
    NetprivJob,
    NetprivJobResult,
    NetprivLanResult,
    NetprivSweepResult,
    NetprivSweepRunner,
    netpriv_lan_config,
    run_netpriv_job,
)
from .report import (
    BASELINE,
    DefenseDistribution,
    FleetReport,
    PopulationStats,
)
from .spec import DEFAULT_FLEET_DETECTORS, FleetSpec, HomeJob
from .sweep import (
    CellResult,
    KnobGrid,
    SweepCell,
    SweepError,
    SweepGrid,
    SweepResult,
    SweepRunner,
    load_grid,
    parse_shard,
    run_sweep,
    shard_cells,
)

__all__ = [
    "Artifact",
    "ArtifactError",
    "ArtifactRow",
    "artifact_from_report",
    "load_artifact",
    "BACKENDS",
    "BASELINE",
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "CellResult",
    "DEFAULT_BACKEND",
    "DEFAULT_FLEET_DETECTORS",
    "DefenseDistribution",
    "FAULTS_ENV",
    "FLEET_DETECTORS",
    "FaultInjected",
    "FaultPlan",
    "FleetReport",
    "FleetResult",
    "FleetRunner",
    "FleetSpec",
    "Frontier",
    "FrontierPoint",
    "FrontierReport",
    "HomeFailure",
    "HomeJob",
    "HomeJobResult",
    "HomeResult",
    "JobsResult",
    "KnobGrid",
    "NETPRIV_LAN_CONFIGS",
    "NetprivFrontierPoint",
    "NetprivFrontierReport",
    "NetprivGrid",
    "NetprivJob",
    "NetprivJobResult",
    "NetprivLanResult",
    "NetprivSweepResult",
    "NetprivSweepRunner",
    "netpriv_lan_config",
    "run_netpriv_job",
    "PopulationStats",
    "ResultCache",
    "SweepCell",
    "SweepError",
    "SweepGrid",
    "SweepResult",
    "SweepRunner",
    "job_cache_key",
    "load_grid",
    "parse_shard",
    "resolve_backend",
    "result_digest",
    "run_fleet",
    "run_home_job",
    "run_stream_job",
    "run_sweep",
    "shard_cells",
    "trace_digest",
]
