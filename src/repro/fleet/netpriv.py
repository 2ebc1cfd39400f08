"""Netpriv arms-race sweeps: defense × dial × seed grids of LAN battles.

The energy-side sweep (:mod:`repro.fleet.sweep`) fans privacy-knob dials
over simulated *meters*; this module fans the Sec. IV traffic defenses
over simulated *LANs*, pitting naive and adaptive attackers
(:func:`repro.netpriv.adaptive.evaluate_arms_race`) against every
``defense@setting`` dial.  The grid rides the same supervised execution
substrate — the one grid runner (:class:`~repro.fleet.sweep.SweepRunner`,
also named :data:`NetprivSweepRunner`) hands a shard's jobs to
:meth:`repro.fleet.engine.FleetRunner.run_owed`, which adds the
retries, timeouts, crash recovery and telemetry merging of ``run_jobs``
— and the deliverable is a :class:`~repro.fleet.frontier.Frontier` like
the energy sweep's: a :class:`NetprivFrontierReport` of population
statistics per cell, with the same running-min monotone-shape gate
(:func:`~repro.core.knob.dial_violations`) watching the *adaptive*
attacker (turning a defense dial up must not make it better).  Only the
shaping depends on the dial, so a job owns one (seed, LAN) and scores
every dial it owes on one pair of simulated LANs, the way a sweep's
home job scores every cell of its home.

The grid axes, cells, sharding and ``name@setting`` labels are the sweep
module's (:class:`~repro.fleet.sweep.KnobGrid`,
:class:`~repro.fleet.sweep.SweepCell`), so ``repro netpriv`` and
``repro sweep`` are the same tool pointed at different threat surfaces.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from ..netpriv.adaptive import ArmsRaceOutcome, evaluate_arms_race
from ..netpriv.devices import DeviceType
from ..netpriv.lan import LanConfig
from ..netpriv.shaping import NETPRIV_KNOB_DOMAIN
from ..obs import TELEMETRY, TelemetrySnapshot, captured, merge_snapshots
from .engine import FleetRunner, JobsResult
from .faults import maybe_inject
from .frontier import Frontier
from .report import PopulationStats
from .sweep import KnobGrid, SweepCell, SweepError, SweepRunner


def _small_lan() -> LanConfig:
    return LanConfig(
        device_counts={
            DeviceType.CAMERA: 1,
            DeviceType.THERMOSTAT: 1,
            DeviceType.SMART_PLUG: 2,
            DeviceType.HUB: 1,
            DeviceType.LIGHT_BULB: 3,
            DeviceType.VOICE_ASSISTANT: 1,
        }
    )


#: Named LAN compositions a grid can reference (factories, never shared
#: instances).  ``small`` (9 devices) is the CI-smoke composition;
#: ``default`` is the 24-device home of :class:`repro.netpriv.lan.LanConfig`.
NETPRIV_LAN_CONFIGS: dict[str, Callable[[], LanConfig]] = {
    "default": LanConfig,
    "small": _small_lan,
}


def netpriv_lan_config(name: str) -> LanConfig:
    """Instantiate a named LAN composition."""
    if name not in NETPRIV_LAN_CONFIGS:
        raise SweepError(
            f"unknown LAN config {name!r}; "
            f"available: {sorted(NETPRIV_LAN_CONFIGS)}"
        )
    return NETPRIV_LAN_CONFIGS[name]()


@dataclass(frozen=True)
class NetprivJob:
    """One picklable arms-race job: a grid seed's ``lan_index``-th LAN.

    Carries only primitives; the worker derives its seed stream as
    ``SeedSequence(seed, spawn_key=(lan_index,))``, so within one grid
    ``seed`` the simulated LAN populations are *identical across cells* —
    cells differ only by the dialed defense, exactly what a frontier
    comparison needs (the same property the energy sweep gets from fleet
    seeding).

    :meth:`NetprivGrid.jobs_for` makes one job per (cell, LAN).  ``cells``
    lists the (cell, LAN) jobs this job owes when several cells share its
    (seed, LAN): the LANs are simulated, the raw lab log featurized and
    the naive fingerprinter fitted once, and each owed dial is then
    scored exactly as a job owing it alone would score it.  Empty means
    the job owes itself alone.
    """

    index: int
    preset: str  # failure-report label, e.g. "cover@0.5 seed=0 lan=1"
    defense: str
    setting: float
    seed: int
    lan_index: int
    days: int
    lan: str  # NETPRIV_LAN_CONFIGS name
    attempt: int = 0
    cells: tuple["NetprivJob", ...] = ()

    @property
    def owed(self) -> tuple["NetprivJob", ...]:
        """The (cell, LAN) jobs this job scores, one per dial."""
        return self.cells or (self,)


def run_netpriv_job(job: NetprivJob) -> "NetprivLanResult":
    """Run the arms race for every dial ``job`` owes.  Runs in workers.

    Fault injection, when armed via :data:`~repro.fleet.faults.FAULTS_ENV`,
    fires for every owed (cell, LAN) index before any work, as it does
    for every other fleet job, so a plan's index names a (cell, LAN)
    however the cells were dealt into jobs.
    """
    owed = job.owed
    for cell in owed:
        maybe_inject(cell.index, job.attempt)
    with captured() as delta, TELEMETRY.timer("stage.netpriv_job"):
        outcomes = evaluate_arms_race(
            [(cell.defense, cell.setting) for cell in owed],
            days=job.days,
            seed=np.random.SeedSequence(job.seed, spawn_key=(job.lan_index,)),
            lan_config=netpriv_lan_config(job.lan),
        )
    telemetry = delta.snapshot
    if telemetry is not None:
        telemetry = merge_snapshots([telemetry] + [o.telemetry for o in outcomes])
    cells = tuple(
        NetprivJobResult(
            index=cell.index,
            preset=cell.preset,
            defense=cell.defense,
            setting=cell.setting,
            seed=cell.seed,
            lan_index=cell.lan_index,
            outcome=replace(outcome, telemetry=None),
            # a one-cell job is its cell's whole cost
            telemetry=telemetry if len(owed) == 1 else outcome.telemetry,
        )
        for cell, outcome in zip(owed, outcomes, strict=True)
    )
    return NetprivLanResult(cells=cells, telemetry=telemetry)


@dataclass(frozen=True)
class NetprivJobResult:
    """One (cell, LAN) arms-race result, addressable back to its grid cell.

    ``telemetry`` is the cost of scoring this cell's dial; the part its
    job shares with the other cells it owes (the LAN simulations and the
    naive fingerprinter) is on the job's :class:`NetprivLanResult`.
    """

    index: int
    preset: str
    defense: str
    setting: float
    seed: int
    lan_index: int
    outcome: ArmsRaceOutcome
    telemetry: TelemetrySnapshot | None = None


@dataclass(frozen=True)
class NetprivLanResult:
    """What one :class:`NetprivJob` returns: a result per owed (cell, LAN).

    ``cells`` follows ``job.owed``; ``telemetry`` is the whole job's cost,
    the shared part plus every cell's own.
    """

    cells: tuple[NetprivJobResult, ...]
    telemetry: TelemetrySnapshot | None = None


@dataclass(frozen=True)
class NetprivGrid(KnobGrid):
    """Declarative netpriv sweep: defenses × settings × seeds × LANs.

    The dial axes are :class:`~repro.fleet.sweep.KnobGrid`'s, in the
    netpriv knob domain.  ``n_lans`` is the per-cell population size
    (independent LAN simulations sharing the cell's seed stream); ``lan``
    names the composition in :data:`NETPRIV_LAN_CONFIGS`.  Results and
    ``n_jobs`` count (cell, LAN) pairs, but the LAN jobs that run them
    each own one (seed, LAN) and the dials of it they owe
    (:meth:`run_cells`).
    """

    DOMAIN = NETPRIV_KNOB_DOMAIN

    n_lans: int = 1
    days: int = 2
    lan: str = "small"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_lans < 1:
            raise SweepError("n_lans must be >= 1")
        if self.days < 1:
            raise SweepError("days must be >= 1")
        netpriv_lan_config(self.lan)  # raises on unknown name

    @property
    def n_jobs(self) -> int:
        return self.n_cells * self.n_lans

    def jobs_for(self, cells: Sequence[SweepCell]) -> list[NetprivJob]:
        """Flat supervised-job list for a cell subset (e.g. one shard)."""
        jobs = []
        for i, cell in enumerate(cells):
            for lan_index in range(self.n_lans):
                jobs.append(
                    NetprivJob(
                        index=i * self.n_lans + lan_index,
                        preset=f"{cell.label()} lan={lan_index}",
                        defense=cell.defense,
                        setting=cell.setting,
                        seed=cell.seed,
                        lan_index=lan_index,
                        days=self.days,
                        lan=self.lan,
                    )
                )
        return jobs

    def run_cells(
        self, runner: FleetRunner, cells: Sequence[SweepCell]
    ) -> "NetprivSweepResult":
        """Run ``cells``' LAN jobs in one ``runner.run_owed`` call.

        The (cell, LAN) jobs of :meth:`jobs_for` are grouped by (seed,
        LAN).  With ``w`` workers (1 on the ``serial`` backend) and ``G``
        groups, each group is dealt round-robin into ``min(cells,
        ceil(w / G))`` jobs: every worker gets a job, and a defense's
        dials, adjacent in cell order, spread over the jobs.  Each job's
        outcomes are fanned back out to its (cell, LAN) results, in
        :meth:`jobs_for` order, and a failed job fails every (cell, LAN)
        it owed, each under its own index and preset.
        """
        owed = self.jobs_for(cells)
        groups: dict[tuple[int, int], list[int]] = {}
        for position, job in enumerate(owed):
            groups.setdefault((job.seed, job.lan_index), []).append(position)
        workers = 1 if runner.backend == "serial" else runner.workers
        share = math.ceil(workers / max(len(groups), 1))
        pending = []
        for positions in groups.values():
            k = min(len(positions), share)
            for dealt in (positions[j::k] for j in range(k)):
                cells_owed = tuple(owed[p] for p in dealt)
                pending.append((replace(cells_owed[0], cells=cells_owed), dealt))
        results: dict[int, NetprivJobResult] = {}
        batch, failed = runner.run_owed(pending, run_netpriv_job, results.__setitem__)
        failures = sorted(
            (
                (replace(failure, index=owed[p].index, preset=owed[p].preset), owed[p])
                for p, _, failure in failed
            ),
            key=lambda pair: pair[0].index,
        )
        return NetprivSweepResult(
            results=[results[p] for p in sorted(results)],
            elapsed_s=batch.elapsed_s,
            workers_used=batch.workers_used,
            failures=tuple(failure for failure, _ in failures),
            failed_jobs=tuple(job for _, job in failures),
            pool_rebuilds=batch.pool_rebuilds,
            telemetry=batch.telemetry,
            grid=self,
            lan_jobs=len(pending),
        )


@dataclass(frozen=True)
class NetprivFrontierPoint:
    """One cell reduced to the arms-race frontier axes.

    Privacy axes come in naive/adaptive pairs — the gap between them *is*
    the arms race; cost axes are the defense's bandwidth and latency
    price.  Population statistics are over the cell's ``n_lans``
    independent LANs.
    """

    defense: str
    setting: float
    seed: int
    n_lans: int
    n_failed: int
    naive_mcc: PopulationStats
    adaptive_mcc: PopulationStats
    naive_fingerprint_acc: PopulationStats
    adaptive_fingerprint_acc: PopulationStats
    cover_mb_per_day: PopulationStats
    mean_added_delay_s: PopulationStats

    @property
    def adaptive_advantage(self) -> float:
        """Mean occupancy-MCC the retrained attacker claws back."""
        return self.adaptive_mcc.mean - self.naive_mcc.mean


class NetprivFrontierReport(Frontier):
    """The netpriv sweep's deliverable, shaped like ``FrontierReport``.

    The monotone gate runs on the **adaptive** attacker's occupancy MCC:
    a defense whose dial only defeats the naive attacker has not bought
    privacy, merely obscurity, and the frontier should say so.
    """

    POINT = NetprivFrontierPoint
    #: each axis as measured on one LAN's arms-race outcome
    AXES = {
        "naive_mcc": attrgetter("naive.occupancy_mcc"),
        "adaptive_mcc": attrgetter("adaptive.occupancy_mcc"),
        "naive_fingerprint_acc": attrgetter("naive.fingerprint_accuracy"),
        "adaptive_fingerprint_acc": attrgetter("adaptive.fingerprint_accuracy"),
        "cover_mb_per_day": attrgetter("cover_mb_per_day"),
        "mean_added_delay_s": attrgetter("mean_added_delay_s"),
    }
    MONOTONE_AXIS = "adaptive_mcc"

    @classmethod
    def from_results(
        cls,
        results: Iterable[NetprivJobResult],
        failed_jobs: Iterable[NetprivJob] = (),
    ) -> "NetprivFrontierReport":
        """Group LAN results by cell; count each cell's failed jobs."""
        grouped: dict[SweepCell, list[ArmsRaceOutcome]] = {}
        for r in results:
            cell = SweepCell(r.defense, r.setting, r.seed)
            grouped.setdefault(cell, []).append(r.outcome)
        failed = Counter(
            SweepCell(job.defense, job.setting, job.seed) for job in failed_jobs
        )
        return cls._reduce(
            (cell, outcomes, failed[cell]) for cell, outcomes in grouped.items()
        )

    CSV_HEADER = (
        "defense", "setting", "seed", "n_lans", "n_failed",
        "naive_mcc_mean", "naive_mcc_median",
        "adaptive_mcc_mean", "adaptive_mcc_median", "adaptive_mcc_p90",
        "adaptive_advantage",
        "naive_fp_acc_mean", "adaptive_fp_acc_mean",
        "cover_mb_per_day_mean", "mean_added_delay_s_mean",
    )

    def csv_rows(self) -> list[list]:
        return [
            [
                p.defense, p.setting, p.seed, p.n_lans, p.n_failed,
                p.naive_mcc.mean, p.naive_mcc.median,
                p.adaptive_mcc.mean, p.adaptive_mcc.median, p.adaptive_mcc.p90,
                p.adaptive_advantage,
                p.naive_fingerprint_acc.mean, p.adaptive_fingerprint_acc.mean,
                p.cover_mb_per_day.mean, p.mean_added_delay_s.mean,
            ]
            for p in self.points
        ]

    def format_table(self) -> str:
        """Aligned text view: one line per frontier point."""
        header = (
            f"{'defense':<14s} {'setting':>7s} {'seed':>4s} "
            f"{'naive':>6s} {'adapt':>6s} {'gap':>6s} "
            f"{'fp_n':>5s} {'fp_a':>5s} {'MB/day':>8s} {'delay':>7s}"
        )
        lines = [header, "-" * len(header)]
        for p in self.points:
            lines.append(
                f"{p.defense:<14s} {p.setting:>7.3f} {p.seed:>4d} "
                f"{p.naive_mcc.mean:>6.3f} {p.adaptive_mcc.mean:>6.3f} "
                f"{p.adaptive_advantage:>+6.3f} "
                f"{p.naive_fingerprint_acc.mean:>5.3f} "
                f"{p.adaptive_fingerprint_acc.mean:>5.3f} "
                f"{p.cover_mb_per_day.mean:>8.1f} "
                f"{p.mean_added_delay_s.mean:>7.1f}"
            )
        return "\n".join(lines)


@dataclass(frozen=True, kw_only=True)
class NetprivSweepResult(JobsResult):
    """One netpriv shard: its (cell, LAN) results, and its grid.

    ``results`` holds a :class:`NetprivJobResult` per (cell, LAN) in
    :meth:`NetprivGrid.jobs_for` order, and ``failures`` /
    ``failed_jobs`` a record and a (cell, LAN) job per failed one;
    ``lan_jobs`` counts the jobs that ran them.
    """

    grid: NetprivGrid
    shard: tuple[int, int] = (1, 1)
    lan_jobs: int = 0

    def frontier(self) -> NetprivFrontierReport:
        return NetprivFrontierReport.from_results(self.results, self.failed_jobs)


#: the one grid runner under the name the netpriv tooling knows it by
NetprivSweepRunner = SweepRunner


__all__ = [
    "NETPRIV_LAN_CONFIGS",
    "netpriv_lan_config",
    "NetprivJob",
    "NetprivJobResult",
    "NetprivLanResult",
    "run_netpriv_job",
    "NetprivGrid",
    "NetprivFrontierPoint",
    "NetprivFrontierReport",
    "NetprivSweepResult",
    "NetprivSweepRunner",
]
