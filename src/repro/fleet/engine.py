"""Supervised fleet execution: fan home jobs out over worker processes.

:func:`run_home_job` is the unit of work — a module-level function of one
picklable :class:`HomeJob`, so ``ProcessPoolExecutor`` can ship it to
workers under either fork or spawn start methods.  A job simulates one
home once and scores every fleet cell that owes it (a sweep's cells
share their homes).  :class:`FleetRunner` drives it with a *supervisor
loop* rather than ``pool.map``: every job is submitted individually and
each home succeeds or fails on its own.  :meth:`FleetRunner.run_jobs` is
the one supervised call; batch fleets and sweeps
(:meth:`~FleetRunner.run_specs`), streamed fleets
(:meth:`~FleetRunner.run_streaming`) and netpriv grids are job factories
plus work functions over it.

Failure isolation semantics (see DESIGN.md "Failure semantics"):

* a job that raises is retried up to ``max_retries`` times with
  exponential backoff, then recorded as a :class:`HomeFailure` — the
  sweep keeps going and returns partial results plus the failure report
  (this holds in-process too: the one-slot :class:`_InlineExecutor`
  that serves serial runs is driven by the same loop);
* a worker process that dies (segfault, OOM kill, ``os._exit``) breaks
  the pool; the supervisor rebuilds the pool and requeues only the jobs
  that were in flight, running them one-at-a-time until the culprit is
  identified (innocent bystanders complete, the poison pill exhausts its
  attempts alone);
* a job that exceeds ``job_timeout`` wall-clock seconds has its pool torn
  down (hung workers cannot be cancelled), is charged an attempt, and the
  other in-flight jobs are requeued uncharged;
* results stream into the cache the moment each home completes, so a
  killed sweep resumes from whatever finished.

Determinism: each job carries its own spawned seed streams, so the result
for home *i* is bit-identical whether it ran serially, in any worker,
first-try, after a retry, or came from the cache.  The per-home
``trace_digest`` (SHA-256 of the metered samples) is what the determinism
tests compare.  Fault injection (:mod:`repro.fleet.faults`) fires before
any simulation work, preserving that contract.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..core.evaluation import DEFAULT_DETECTORS, TradeoffPoint
from ..core.pipeline import evaluate_baseline, evaluate_simulation
from ..home.household import simulate_home
from ..obs import (
    PROFILE_DIR_ENV,
    TELEMETRY,
    TELEMETRY_ENV,
    TelemetrySnapshot,
    captured,
    maybe_profile,
    merge_snapshots,
)
from ..timeseries import PowerTrace
from .cache import CacheStats, ResultCache, job_cache_key
from .faults import FaultPlan, maybe_inject
from .spec import FleetSpec, HomeJob

#: Name -> detector factory, resolved inside the worker so only names
#: (not closures) ever cross the process boundary:
#: ``core.evaluation.DEFAULT_DETECTORS`` keyed by name.
FLEET_DETECTORS = dict(DEFAULT_DETECTORS)

#: the executor-backend axis, in CLI order: ``serial`` runs every job in
#: this process; ``process`` submits one job per home to a
#: ``ProcessPoolExecutor`` (when ``workers > 1``)
BACKENDS = ("serial", "process")
DEFAULT_BACKEND = "process"


def resolve_backend(name: str) -> str:
    """Validate and normalize a backend name."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; available: {list(BACKENDS)}"
        )
    return name


def trace_digest(trace: PowerTrace) -> str:
    """SHA-256 of a trace's samples and clock — the byte-identity check."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(trace.values).tobytes())
    h.update(repr((trace.period_s, trace.start_s, len(trace))).encode())
    return h.hexdigest()


def result_digest(result: "FleetResult") -> str:
    """SHA-256 over everything numeric a fleet run produced.

    Where :func:`trace_digest` pins one home's *metered samples*, this
    pins the whole run's *scored output*: per-home trace digests plus
    every tradeoff point's full float repr, in home order.  Runtime facts
    (wall-clock, worker count, cache hits, telemetry) are excluded, so
    serial, parallel, and cache-replayed runs of one spec share a digest.
    The golden-regression tests pin these values so kernel and refactor
    PRs can prove bitwise stability at fleet scope, the way
    ``test_kernel_equivalence.py`` does per kernel.
    """
    h = hashlib.sha256()
    for home in result.homes:
        points = [("baseline", home.baseline)] + sorted(home.defenses.items())
        h.update(
            repr(
                (
                    home.index,
                    home.preset,
                    home.fingerprint,
                    home.days,
                    home.trace_digest,
                    home.energy_kwh,
                    [
                        (
                            name,
                            sorted(p.privacy.per_detector_mcc.items()),
                            sorted(p.privacy.per_detector_accuracy.items()),
                            p.utility.energy_error_fraction,
                            p.utility.peak_error_fraction,
                            p.utility.profile_rmse_w,
                            p.extra_energy_kwh,
                            p.comfort_violation_fraction,
                        )
                        for name, p in points
                    ],
                )
            ).encode()
        )
    return h.hexdigest()


@dataclass(frozen=True)
class HomeResult:
    """One home's scored outcome (what the cache stores).

    ``telemetry`` is the job's per-stage counter/timer delta, captured in
    whatever process ran it and shipped back piggybacked on the result.
    It is ``None`` when telemetry is disabled, and always stripped before
    the result enters the cache (a cache entry's bytes must not depend on
    whether the run that produced it was being observed).
    """

    index: int
    preset: str
    home_name: str
    fingerprint: str
    days: int
    trace_digest: str
    energy_kwh: float
    baseline: TradeoffPoint
    defenses: dict[str, TradeoffPoint]
    from_cache: bool = False
    telemetry: TelemetrySnapshot | None = None


@dataclass(frozen=True)
class HomeFailure:
    """One home's permanent failure record (the sweep's post-mortem row).

    ``kind`` is what gave up: ``error`` (the job raised on every
    attempt), ``crash`` (its worker process died), ``timeout`` (it
    exceeded the per-job wall clock), or ``aborted`` (fail-fast cancelled
    it before a verdict).
    """

    index: int
    preset: str
    kind: str
    error: str
    attempts: int
    elapsed_s: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class HomeJobResult:
    """What one :class:`~repro.fleet.spec.HomeJob` returns: a result per cell.

    ``cells`` follows ``job.defense_sets``.  ``telemetry`` is the whole
    job's cost: the part the cells share — the ``stage.job`` span, the
    simulation and the baseline — plus every cell's own part.  Each
    cell's ``telemetry`` is the cost of scoring its own defenses; a
    one-cell job's cell carries the whole job, so a plain fleet's
    per-home snapshots cover every job.
    """

    cells: tuple[HomeResult, ...]
    telemetry: TelemetrySnapshot | None = None


def profile_name(job: HomeJob) -> str:
    """The cProfile dump name of one attempt of ``job``.

    The home index alone repeats across a sweep's seeds, and a preset's
    fingerprint is the same under every seed, so the name carries the
    first 8 hex digits of the job's cache key, which covers the config,
    the seed streams, ``days`` and the detectors.  Two jobs of one run
    share a name only if they would repeat the same work.
    """
    return f"home-{job.index:04d}-{job_cache_key(job)[:8]}-a{job.attempt}"


def run_home_job(job: HomeJob) -> HomeJobResult:
    """Simulate one home once and score every cell it owes.  Runs in workers.

    The baseline is scored once; each of ``job.defense_sets`` is then
    scored with a fresh ``np.random.default_rng(job.defense_seed)``, so
    every cell's result is bit-identical to that of a job owing that cell
    alone.  Detector names are validated by
    :class:`~repro.fleet.spec.FleetSpec` and :meth:`FleetRunner.run_specs`
    *before* dispatch, so workers never pay for (or crash on) a
    misspelled ensemble.  Fault injection, when armed via
    :data:`~repro.fleet.faults.FAULTS_ENV`, fires before any simulation
    work so a retried job reproduces its result exactly.
    """
    maybe_inject(job.index, job.attempt)
    detectors = tuple((name, FLEET_DETECTORS[name]) for name in job.detectors)
    scored = []
    with captured() as shared, maybe_profile(profile_name(job)):
        with TELEMETRY.timer("stage.job"):
            with TELEMETRY.timer("stage.simulate"):
                sim = simulate_home(
                    job.config, job.days, np.random.default_rng(job.sim_seed)
                )
            baseline = evaluate_baseline(sim, detectors)
            for names in job.defense_sets:
                with captured() as own:
                    pipeline = evaluate_simulation(
                        sim,
                        list(names),
                        np.random.default_rng(job.defense_seed),
                        detectors,
                        baseline=baseline,
                    )
                scored.append((pipeline.defenses, own.snapshot))
    digest = trace_digest(sim.metered)
    energy_kwh = sim.metered.energy_kwh()
    cells = [
        HomeResult(
            index=job.index,
            preset=job.preset,
            home_name=job.config.name,
            fingerprint=job.fingerprint,
            days=job.days,
            trace_digest=digest,
            energy_kwh=energy_kwh,
            baseline=baseline,
            defenses=defenses,
            telemetry=telemetry,
        )
        for defenses, telemetry in scored
    ]
    telemetry = shared.snapshot
    if telemetry is not None:
        telemetry = merge_snapshots([telemetry] + [own for _, own in scored])
        if len(cells) == 1:
            # a one-cell job is its cell's whole cost
            cells[0] = replace(cells[0], telemetry=telemetry)
    return HomeJobResult(cells=tuple(cells), telemetry=telemetry)


def run_stream_job(
    job: HomeJob,
    chunk_samples: int = 60,
    attacks: tuple[str, ...] = ("edges", "niom"),
    attack_kwargs: dict | None = None,
    guard_policy=None,
):
    """Simulate one home and score it with :func:`repro.stream.run_stream`.

    Uses the *same* ``sim_seed`` stream as :func:`run_home_job`, so a
    streamed fleet sees byte-identical metered traces to a batch fleet of
    the same spec — the determinism tests compare ``trace_digest`` values
    across the two paths.  The feed carries the home's occupancy, so the
    report scores NIOM, and any plan in ``REPRO_STREAM_FAULTS`` degrades
    it exactly as it would a single-home CLI run.  Returns a
    :class:`~repro.stream.HomeStreamResult`.  The imports are local to
    keep ``repro.fleet`` importable without the streaming subsystem
    loaded.
    """
    from ..stream import (
        HomeStreamResult,
        StreamFaultPlan,
        TraceReplaySource,
        run_stream,
    )

    maybe_inject(job.index, job.attempt)
    with captured() as delta, TELEMETRY.timer("stage.stream.job"):
        with TELEMETRY.timer("stage.simulate"):
            sim = simulate_home(
                job.config, job.days, np.random.default_rng(job.sim_seed)
            )
        report = run_stream(
            TraceReplaySource(sim.metered, sim.occupancy),
            attacks,
            chunk_samples,
            attack_kwargs,
            guard_policy,
            fault_plan=StreamFaultPlan.active(),
        )
    return HomeStreamResult(
        **vars(report),
        index=job.index,
        preset=job.preset,
        home_name=job.config.name,
        days=job.days,
        trace_digest=trace_digest(sim.metered),
        telemetry=delta.snapshot,
    )


@dataclass(frozen=True)
class JobsResult:
    """What one :meth:`FleetRunner.run_jobs` call produced.

    ``results`` holds whatever the work function returned, in submission
    order (permanently failed jobs are absent — they appear in
    ``failures`` instead, sorted by index).  ``failed_jobs`` holds the
    job of each failure, position for position, so a caller can route
    it: an ``index`` need not be unique (a sweep's seeds repeat them).
    """

    results: list
    elapsed_s: float
    workers_used: int
    failures: tuple[HomeFailure, ...] = ()
    failed_jobs: tuple = ()
    pool_rebuilds: int = 0
    telemetry: TelemetrySnapshot | None = None

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        """No permanent failures, and every result that has an ``ok`` is ok."""
        return not self.failures and all(
            getattr(result, "ok", True) for result in self.results
        )


@dataclass(frozen=True, kw_only=True)
class FleetResult(JobsResult):
    """One fleet spec's share of a run — including its casualties.

    ``results`` (also named ``homes``) holds the spec's
    :class:`HomeResult` objects in home order, cache hits included;
    ``executed`` counts the homes this run scored.  ``elapsed_s``,
    ``workers_used`` and ``pool_rebuilds`` are the whole run's.
    """

    spec: FleetSpec
    executed: int
    cache_stats: CacheStats | None = None

    @property
    def homes(self) -> list[HomeResult]:
        return self.results

    @property
    def n_homes(self) -> int:
        return len(self.results)


class _InlineExecutor:
    """The in-process executor: one slot, and ``submit`` runs the job.

    Its futures are finished before the supervisor sees them, so the
    supervisor loop drives it exactly as it drives a pool: a job that
    raises is retried after its backoff while later jobs run, and
    fail-fast reports in submission order.  A job sharing this process
    cannot be interrupted, so a crash or hang takes the run with it.
    """

    def submit(self, fn: Callable, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 — isolate per home
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False) -> None:
        """Nothing to release: every job finished inside :meth:`submit`."""


@dataclass
class _JobState:
    """Supervisor-side bookkeeping for one job's attempts."""

    job: HomeJob
    position: int  # submission order within the run_jobs call
    attempts: int = 0  # failed attempts so far; next try runs as this number
    not_before: float = 0.0  # monotonic backoff gate for the next submit
    started: float = 0.0  # monotonic start of the current attempt
    first_start: float | None = None

    def elapsed(self, now: float) -> float:
        return now - (self.first_start if self.first_start is not None else now)


class FleetRunner:
    """Execute jobs under supervision: :meth:`run_jobs` and its factories.

    Every run goes through one supervisor loop (:meth:`_run_supervised`),
    over a worker pool or over the one-slot in-process executor.

    Parameters
    ----------
    workers:
        Process count; ``<= 1`` runs every job in this process (no pool,
        no pickling, and — since the job shares our process — no crash or
        hang protection, only retries).
    cache_dir:
        Directory for the content-addressed result cache; ``None``
        disables caching.  Results stream into the cache as they
        complete, so a killed run resumes from what finished.
    max_retries:
        Retries after the first failed attempt (total tries =
        ``max_retries + 1``).
    job_timeout:
        Per-job wall-clock seconds before a running job is declared hung
        and its pool torn down; ``None`` disables.  Only enforced on a
        pool (a hung in-process job cannot be interrupted).
    fail_fast:
        Abort the run — a fleet, or every cell of a sweep shard — at the
        first permanent failure; jobs not yet reported or given up on are
        recorded as ``aborted`` failures.  Results are reported in
        submission order, so every job behind the failed one is aborted
        even if it had already finished.
    retry_backoff_s:
        Base of the exponential backoff (delay before retry *n* is
        ``retry_backoff_s * 2**(n-1)``).  Deterministic — no jitter — so
        runs are reproducible.
    faults:
        Optional :class:`~repro.fleet.faults.FaultPlan` exported through
        the environment for the duration of the run (the test harness's
        hook; production sweeps leave it ``None``).
    stream_faults:
        Optional :class:`~repro.stream.faults.StreamFaultPlan` exported
        through ``REPRO_STREAM_FAULTS`` the same way, degrading every
        streamed job's chunk feed (:meth:`run_streaming` only).
    telemetry:
        Collect per-stage counters and timers (:mod:`repro.obs`): each
        job ships a snapshot back on its result, the supervisor adds its
        own scheduling/cache counters, and the merged totals land on
        ``FleetResult.telemetry``.  Never changes any result — the
        determinism tests pin telemetry-on and -off sweeps to identical
        ``trace_digest``s.
    profile_dir:
        Directory for per-job cProfile dumps (one
        ``home-<index>-<key>-a<attempt>.pstats`` per executed job attempt,
        named by :func:`profile_name` and written by whichever process
        ran it); ``None`` disables profiling.
    backend:
        Executor backend (:data:`BACKENDS`): ``serial`` runs every job
        in this process regardless of ``workers``; ``process`` submits
        one pickled job per home to a worker pool.  Both produce
        bit-identical results and cache entries — the golden tests pin
        that claim.
    """

    #: supervisor wake-up period: bounds timeout/backoff enforcement lag
    POLL_S = 0.05
    #: cap on any single backoff sleep
    MAX_BACKOFF_S = 30.0

    def __init__(
        self,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        *,
        max_retries: int = 2,
        job_timeout: float | None = None,
        fail_fast: bool = False,
        retry_backoff_s: float = 0.05,
        faults: FaultPlan | None = None,
        stream_faults=None,
        telemetry: bool = False,
        profile_dir: str | Path | None = None,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        # written so that NaN fails too
        if job_timeout is not None and not job_timeout > 0:
            raise ValueError("job_timeout must be positive (or None)")
        if not retry_backoff_s >= 0:
            raise ValueError("retry_backoff_s must be >= 0")
        self.backend = resolve_backend(backend)
        self.workers = max(1, int(workers))
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.max_retries = int(max_retries)
        self.job_timeout = job_timeout
        self.fail_fast = bool(fail_fast)
        self.retry_backoff_s = float(retry_backoff_s)
        self.faults = faults
        self.stream_faults = stream_faults
        self.telemetry = bool(telemetry)
        self.profile_dir = Path(profile_dir) if profile_dir is not None else None

    def run(self, spec: FleetSpec) -> FleetResult:
        """Evaluate the whole fleet; per-home results plus failure report."""
        [fleet], telemetry = self.run_specs([spec])
        return replace(fleet, telemetry=telemetry)

    def run_specs(
        self, specs: Sequence[FleetSpec]
    ) -> tuple[list[FleetResult], TelemetrySnapshot | None]:
        """Evaluate several fleets at once: one :class:`FleetResult` per spec.

        Specs that differ only in ``defenses`` share one population,
        built once.  Every (spec, home) pair is looked up in the cache
        under its own :func:`~repro.fleet.cache.job_cache_key`; each home
        with at least one miss becomes one :class:`HomeJob` owing those
        specs' defense tuples, so it is simulated and baseline-scored
        once (:func:`run_home_job`).  All jobs go to :meth:`run_owed` in
        one call — one pool — and each (spec, home) result is cached the
        moment its home job is reported.  A home job that fails
        permanently appears as the same :class:`HomeFailure` in every
        spec it owed.

        Returns the fleets and the run's telemetry (``None`` unless the
        runner collects it): the cache look-ups plus :meth:`run_jobs`'
        totals.  Each fleet's ``telemetry`` holds only what its executed
        homes carry; its ``elapsed_s``, ``workers_used`` and
        ``pool_rebuilds`` are the whole run's.
        """
        start = time.perf_counter()
        defense_sets = [spec.resolved_defenses() for spec in specs]
        homes: list[dict[int, HomeResult]] = [{} for _ in specs]
        executed = [0] * len(specs)
        populations: dict[FleetSpec, list[int]] = {}
        for position, spec in enumerate(specs):
            populations.setdefault(
                replace(spec, defenses=None), []
            ).append(position)
        with captured(self.telemetry) as lookups:
            # each home job with the (spec position, cache key) of every
            # cell it owes
            pending: list[tuple[HomeJob, list[tuple[int, str | None]]]] = []
            for positions in populations.values():
                for home in specs[positions[0]].jobs():
                    slots = []
                    for position in positions:
                        key = None
                        if self.cache is not None:
                            key = job_cache_key(
                                replace(home, defenses=defense_sets[position])
                            )
                            hit = self.cache.get(key)
                            if hit is not None:
                                homes[position][home.index] = replace(
                                    hit, from_cache=True
                                )
                                continue
                        executed[position] += 1
                        slots.append((position, key))
                    if slots:
                        cells = tuple(defense_sets[p] for p, _ in slots)
                        job = replace(home, defenses=cells[0], cells=cells)
                        pending.append((job, slots))

            def store(slot: tuple[int, str | None], home: HomeResult) -> None:
                # streaming sink: cache at once so a killed run resumes
                position, key = slot
                homes[position][home.index] = home
                if key is not None:
                    # strip telemetry so entry bytes never depend on
                    # whether the run was being observed
                    self.cache.put(key, replace(home, telemetry=None))

            batch, failed_cells = self.run_owed(pending, run_home_job, store)
        telemetry = self._telemetry_totals(lookups, [batch])
        failed: list[list[tuple[HomeJob, HomeFailure]]] = [[] for _ in specs]
        for (position, _), job, failure in failed_cells:
            failed[position].append((job, failure))
        elapsed = time.perf_counter() - start
        fleets = []
        for position, spec in enumerate(specs):
            ordered = [homes[position][i] for i in sorted(homes[position])]
            own = None
            if telemetry is not None:
                own = merge_snapshots(
                    h.telemetry for h in ordered if h.telemetry is not None
                )
            fleets.append(
                FleetResult(
                    results=ordered,
                    elapsed_s=elapsed,
                    workers_used=batch.workers_used,
                    failures=tuple(f for _, f in failed[position]),
                    failed_jobs=tuple(job for job, _ in failed[position]),
                    pool_rebuilds=batch.pool_rebuilds,
                    telemetry=own,
                    spec=spec,
                    executed=executed[position],
                    cache_stats=(
                        self.cache.stats if self.cache is not None else None
                    ),
                )
            )
        return fleets, telemetry

    def run_owed(
        self,
        jobs: Sequence[tuple[object, Sequence]],
        work: Callable,
        on_cell: Callable[[object, object], None],
    ) -> tuple[JobsResult, list[tuple[object, object, HomeFailure]]]:
        """Run jobs that each owe several cells; fan outcomes out per cell.

        ``jobs`` pairs each job with the slots it owes, in the order of
        the ``cells`` its ``work`` result lists.  ``on_cell(slot, cell)``
        fires for every owed slot as its job is reported, so a caller can
        stream cells out (a sweep caches them at once).  A job fails as a
        whole: the list returned beside the batch holds ``(slot, job,
        failure)`` for each slot of each permanently failed job, in the
        batch's failure order.  Sweeps (:meth:`run_specs`) and netpriv
        grids both dispatch through here.
        """
        owed = {id(job): slots for job, slots in jobs}

        def report(job, result) -> None:
            # the supervisor hands back the very job objects it was given
            for slot, cell in zip(owed[id(job)], result.cells, strict=True):
                on_cell(slot, cell)

        batch = self.run_jobs([job for job, _ in jobs], work, on_result=report)
        failed = [
            (slot, job, failure)
            for job, failure in zip(batch.failed_jobs, batch.failures)
            for slot in owed[id(job)]
        ]
        return batch, failed

    def run_streaming(
        self,
        spec: FleetSpec,
        attacks: tuple[str, ...] = ("edges", "niom"),
        chunk_samples: int = 60,
        attack_kwargs: dict | None = None,
        guard_policy=None,
    ) -> JobsResult:
        """Score the fleet through guarded streamed sessions.

        A job factory over :meth:`run_jobs`: one :func:`run_stream_job`
        per home, so streamed jobs get the batch path's retries,
        timeouts and crash recovery — a replayed evaluation feed (unlike
        a live one) can be re-run.  There is no result cache: streamed
        reports carry throughput numbers that are not
        content-addressable.  Seeds come from the same spawned streams
        as the batch path, so ``trace_digest`` values match :meth:`run`
        home-for-home; ``guard_policy`` rides to every job's
        :class:`~repro.stream.guard.FeedGuard`.  ``results`` holds one
        :class:`~repro.stream.HomeStreamResult` per completed home, and
        each home's ``stream.*`` telemetry (gap samples, quarantined
        values, attack failures, checkpoint writes) merges into the
        totals.  Each attack is built once from its name and
        ``attack_kwargs`` before any job is dispatched, so an unknown
        name, a bad kwarg or a ``chunk_samples`` below 1 raises here
        instead of failing every home.
        """
        from ..stream import make_stream_attack, stream_attack_names

        if chunk_samples < 1:
            raise ValueError("chunk_samples must be >= 1")
        unknown = set(attacks) - set(stream_attack_names())
        if unknown:
            raise ValueError(
                f"unknown stream attacks: {sorted(unknown)}; "
                f"available: {stream_attack_names()}"
            )
        for name in attacks:
            make_stream_attack(name, **(attack_kwargs or {}).get(name, {}))
        work = functools.partial(
            run_stream_job,
            chunk_samples=chunk_samples,
            attacks=tuple(attacks),
            attack_kwargs=attack_kwargs,
            guard_policy=guard_policy,
        )
        return self.run_jobs(spec.jobs(), work)

    def run_jobs(
        self,
        jobs: Sequence,
        work: Callable,
        on_result: Callable[[object, object], None] | None = None,
    ) -> JobsResult:
        """Run picklable jobs under supervision: the engine's one entry point.

        A job must look enough like :class:`~repro.fleet.spec.HomeJob`:
        an ``index`` (which need not be unique), a ``preset``-ish label
        for failure reports, and ``attempt`` as a
        ``dataclasses.replace``-able field.  ``work(job)`` must be
        picklable; with telemetry on, its result carries a ``telemetry``
        snapshot.  Results come back in submission order, and
        ``on_result(job, result)`` fires as each job is reported (under
        ``fail_fast``, in submission order).  Every call goes through
        :meth:`_run_supervised`: over a pool of ``workers`` processes,
        or — with the ``serial`` backend, ``workers <= 1``, a one-job
        batch, or a pool that cannot be *started* (restricted sandboxes,
        missing semaphores) — over the in-process executor.
        """
        start = time.perf_counter()
        results: dict[int, object] = {}

        def report(state: _JobState, result: object) -> None:
            results[state.position] = result
            if on_result is not None:
                on_result(state.job, result)

        with captured(self.telemetry) as supervisor:
            TELEMETRY.count(f"fleet.backend.{self.backend}")
            states = [_JobState(job, i) for i, job in enumerate(jobs)]
            with self._env_exported():
                pool = None
                if (
                    self.backend != "serial"
                    and self.workers > 1
                    and len(jobs) > 1
                ):
                    pool = self._new_pool()
                failed, rebuilds = self._run_supervised(
                    pool, states, report, work
                )
        ordered = [results[position] for position in sorted(results)]
        failed.sort(key=lambda pair: pair[1].index)
        return JobsResult(
            results=ordered,
            elapsed_s=time.perf_counter() - start,
            workers_used=self.workers if pool is not None else 1,
            failures=tuple(failure for _, failure in failed),
            failed_jobs=tuple(job for job, _ in failed),
            pool_rebuilds=rebuilds,
            telemetry=self._telemetry_totals(supervisor, ordered),
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    @contextmanager
    def _env_exported(self):
        """Arm faults/telemetry/profiling through the env for workers.

        Everything a worker process must know beyond its picklable job
        crosses the boundary here, before the pool is built, so it is
        inherited identically under fork and spawn.  In-process jobs run
        under the same exports, keeping both executors observably
        identical.
        """
        wanted = {
            plan.ENV: plan.to_json()
            for plan in (self.faults, self.stream_faults)
            if plan is not None
        }
        if self.telemetry:
            wanted[TELEMETRY_ENV] = "1"
        if self.profile_dir is not None:
            wanted[PROFILE_DIR_ENV] = str(self.profile_dir)
        if not wanted:
            yield
            return
        previous = {name: os.environ.get(name) for name in wanted}
        os.environ.update(wanted)
        try:
            yield
        finally:
            for name, value in previous.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value

    def _telemetry_totals(self, block, parts) -> TelemetrySnapshot | None:
        """A :func:`~repro.obs.captured` block's delta plus each part's.

        ``None`` unless the runner collects telemetry.  A job captures
        its own delta and restores the registry, so the merge never
        double-counts, whichever executor ran the jobs.
        """
        if not self.telemetry:
            return None
        return merge_snapshots(
            [block.snapshot]
            + [part.telemetry for part in parts if part.telemetry is not None]
        )

    def _new_pool(self) -> ProcessPoolExecutor | None:
        try:
            return ProcessPoolExecutor(max_workers=self.workers)
        except (OSError, PermissionError, ImportError):
            return None

    def _backoff(self, attempts: int) -> float:
        return min(
            self.retry_backoff_s * (2 ** max(0, attempts - 1)),
            self.MAX_BACKOFF_S,
        )

    @staticmethod
    def _failure(
        state: _JobState, kind: str, error: str, now: float
    ) -> tuple[HomeJob, HomeFailure]:
        return state.job, HomeFailure(
            index=state.job.index,
            preset=state.job.preset,
            kind=kind,
            error=error,
            attempts=state.attempts,
            elapsed_s=state.elapsed(now),
        )

    def _charge(
        self,
        state: _JobState,
        kind: str,
        error: str,
        failures: list[tuple[HomeJob, HomeFailure]],
        now: float,
    ) -> bool:
        """Record a failed attempt; True when the job is out of retries."""
        state.attempts += 1
        TELEMETRY.count(f"fleet.attempt_failed.{kind}")
        if state.attempts > self.max_retries:
            TELEMETRY.count("fleet.permanent_failure")
            failures.append(self._failure(state, kind, error, now))
            return True
        backoff = self._backoff(state.attempts)
        TELEMETRY.count("fleet.retry")
        TELEMETRY.count("fleet.backoff_wait_s", backoff)
        state.not_before = now + backoff
        return False

    def _run_supervised(
        self,
        pool: ProcessPoolExecutor | None,
        states: list[_JobState],
        on_result: Callable[[_JobState, object], None],
        work: Callable[[HomeJob], object],
    ) -> tuple[list[tuple[HomeJob, HomeFailure]], int]:
        """The supervisor loop: per-job submit, isolation, rebuild, retry.

        It runs ``states`` on ``pool``, ``workers`` jobs at a time, or on
        the one-slot :class:`_InlineExecutor` when ``pool`` is ``None``.
        A pool that cannot be rebuilt hands the jobs still owed to the
        in-process executor, and this same loop carries on with them.

        ``queue`` holds runnable jobs; ``isolation`` holds crash suspects.
        A pool crash with several jobs in flight cannot be attributed to
        one of them, so all of them are quarantined *uncharged* and re-run
        one-at-a-time; a crash with a single job in flight is attributable
        and charges that job alone.  Innocent bystanders therefore always
        complete, and a poison pill exhausts its attempts by itself.

        Under fail-fast, results are reported in submission order: a
        finished job waits in ``held`` until every job before it has been
        reported.  The first permanent failure ends the run, and every
        job not yet reported or given up on is recorded as ``aborted``,
        whichever order the jobs happened to finish in.
        """
        failures: list[tuple[HomeJob, HomeFailure]] = []
        queue: list[_JobState] = list(states)
        isolation: list[_JobState] = []
        inflight: dict = {}
        rebuilds = 0
        held: dict[int, tuple[_JobState, object]] = {}
        next_report = 0  # under fail-fast, every earlier job is reported
        culprit = None  # under fail-fast, the index that ends the run
        if pool is None:
            pool = _InlineExecutor()

        def report(state: _JobState, result: object) -> None:
            nonlocal next_report
            if not self.fail_fast:
                on_result(state, result)
                return
            held[state.position] = (state, result)
            while next_report in held:
                ready, ready_result = held.pop(next_report)
                on_result(ready, ready_result)
                next_report += 1

        def submit(state: _JobState) -> None:
            # the clock starts first: the in-process submit runs the job
            state.started = time.monotonic()
            if state.first_start is None:
                state.first_start = state.started
            job = replace(state.job, attempt=state.attempts)
            inflight[pool.submit(work, job)] = state

        def teardown(kill: bool) -> None:
            # a broken pool's processes are already gone; a hung pool's
            # must be terminated or shutdown would never return
            if kill:
                processes = getattr(pool, "_processes", None) or {}
                for proc in list(processes.values()):
                    proc.terminate()
            pool.shutdown(wait=True, cancel_futures=True)

        def rebuild() -> None:
            nonlocal pool, rebuilds
            rebuilds += 1
            TELEMETRY.count("fleet.pool_rebuild")
            # a pool that cannot be rebuilt leaves the rest to this process
            pool = self._new_pool() or _InlineExecutor()

        try:
            while queue or isolation or inflight:
                now = time.monotonic()
                slots = 1 if isinstance(pool, _InlineExecutor) else self.workers

                # fill worker slots; suspects run strictly one-at-a-time.
                # A submit-time BrokenProcessPool puts the state back and
                # lets the in-flight futures (which all carry the broken
                # marker by now) drive the crash handling below.
                pool_broke_on_submit = False
                if isolation:
                    if not inflight and isolation[0].not_before <= now:
                        state = isolation.pop(0)
                        try:
                            submit(state)
                        except BrokenProcessPool:
                            isolation.insert(0, state)
                            pool_broke_on_submit = True
                else:
                    while len(inflight) < slots:
                        ready = next(
                            (
                                i
                                for i, s in enumerate(queue)
                                if s.not_before <= now
                            ),
                            None,
                        )
                        if ready is None:
                            break
                        state = queue.pop(ready)
                        try:
                            submit(state)
                        except BrokenProcessPool:
                            queue.insert(0, state)
                            pool_broke_on_submit = True
                            break

                if pool_broke_on_submit and not inflight:
                    # broken pool with nothing running: nobody to blame
                    teardown(kill=False)
                    rebuild()
                    continue

                if inflight:
                    done, _ = wait(
                        list(inflight),
                        timeout=self.POLL_S,
                        return_when=FIRST_COMPLETED,
                    )
                else:
                    if not queue and not isolation:
                        break
                    time.sleep(self.POLL_S)
                    done = ()

                crash_victims: list[_JobState] = []
                for fut in done:
                    state = inflight.pop(fut)
                    now = time.monotonic()
                    try:
                        result = fut.result()
                    except BrokenProcessPool:
                        crash_victims.append(state)
                    except Exception as exc:  # noqa: BLE001 — isolate per home
                        if not self._charge(
                            state, "error", repr(exc), failures, now
                        ):
                            queue.append(state)
                        elif self.fail_fast:
                            culprit = state.job.index
                            break
                    else:
                        report(state, result)
                if culprit is not None:
                    break

                now = time.monotonic()
                if crash_victims:
                    # whatever else was in flight died with the pool too
                    victims = crash_victims + list(inflight.values())
                    inflight.clear()
                    if len(victims) == 1:
                        # attributable: exactly one job was running
                        state = victims[0]
                        if not self._charge(
                            state,
                            "crash",
                            "worker process died (BrokenProcessPool)",
                            failures,
                            now,
                        ):
                            isolation.insert(0, state)
                        elif self.fail_fast:
                            culprit = state.job.index
                            break
                    else:
                        isolation.extend(victims)
                    teardown(kill=False)
                    rebuild()
                    continue

                if self.job_timeout is not None and inflight:
                    hung = {
                        fut: state
                        for fut, state in inflight.items()
                        if now - state.started > self.job_timeout
                    }
                    if hung:
                        # hung workers cannot be cancelled: kill the pool,
                        # charge the hung jobs, requeue innocents uncharged
                        innocents = [
                            state
                            for fut, state in inflight.items()
                            if fut not in hung
                        ]
                        inflight.clear()
                        teardown(kill=True)
                        for state in hung.values():
                            if not self._charge(
                                state,
                                "timeout",
                                f"job exceeded {self.job_timeout:.1f}s "
                                "wall-clock timeout",
                                failures,
                                now,
                            ):
                                queue.append(state)
                            elif self.fail_fast:
                                culprit = state.job.index
                        if culprit is not None:
                            break
                        queue[:0] = innocents
                        rebuild()
            if culprit is not None:
                # fail-fast: every job not yet reported or given up on
                teardown(kill=True)
                error = f"aborted by fail-fast after home {culprit} failed"
                failures.extend(
                    self._failure(state, "aborted", error, now)
                    for state in states[next_report:]
                    if state.attempts <= self.max_retries
                )
            return failures, rebuilds
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def run_fleet(
    spec: FleetSpec,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    **supervisor: object,
) -> FleetResult:
    """One-call convenience: ``FleetRunner(...).run(spec)``.

    Keyword arguments beyond the first two (``max_retries``,
    ``job_timeout``, ``fail_fast``, ``retry_backoff_s``, ``faults``,
    ``telemetry``, ``profile_dir``, ``backend``) are forwarded to
    :class:`FleetRunner`.
    """
    return FleetRunner(workers, cache_dir, **supervisor).run(spec)
