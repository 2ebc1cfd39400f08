"""Netpriv arms-race sweeps: defense × dial × seed grids of LAN battles.

The energy-side sweep (:mod:`repro.fleet.sweep`) fans privacy-knob dials
over simulated *meters*; this module fans the Sec. IV traffic defenses
over simulated *LANs*, pitting naive and adaptive attackers
(:func:`repro.netpriv.adaptive.evaluate_arms_race`) against every
``defense@setting`` dial.  The grid rides the same supervised execution
substrate — :meth:`repro.fleet.engine.FleetRunner.run_jobs` provides the
retries, timeouts, crash recovery and telemetry merging — and the
deliverable mirrors :class:`~repro.fleet.frontier.FrontierReport`: a
:class:`NetprivFrontierReport` of population statistics per cell, with
the same running-min monotone-shape gate (turning a defense dial up must
not make the *adaptive* attack better).

Sharding, cell ordering, and ``name@setting`` labels reuse the sweep
module's conventions so ``repro netpriv`` and ``repro sweep`` feel like
the same tool pointed at different threat surfaces.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.knob import knob_defense_name, knob_mapping_names
from ..netpriv.adaptive import ArmsRaceOutcome, evaluate_arms_race
from ..netpriv.devices import DeviceType
from ..netpriv.lan import LanConfig
from ..netpriv.shaping import NETPRIV_KNOB_DOMAIN
from ..obs import TELEMETRY, TelemetrySnapshot
from .engine import DEFAULT_BACKEND, FleetRunner, HomeFailure
from .report import PopulationStats
from .sweep import SweepError


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
class NetprivCell:
    """One grid point: a dialed traffic defense over one seed's LANs."""

    defense: str
    setting: float
    seed: int

    @property
    def knob_name(self) -> str:
        return knob_defense_name(self.defense, self.setting)

    def label(self) -> str:
        return f"{self.knob_name} seed={self.seed}"


@dataclass(frozen=True)
class NetprivJob:
    """One picklable arms-race experiment: a cell's ``lan_index``-th LAN.

    Carries only primitives; the worker derives its seed stream as
    ``SeedSequence(seed, spawn_key=(lan_index,))``, so within one grid
    ``seed`` the simulated LAN populations are *identical across cells* —
    cells differ only by the dialed defense, exactly what a frontier
    comparison needs (the same property the energy sweep gets from fleet
    seeding).
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


def run_netpriv_job(job: NetprivJob) -> "NetprivJobResult":
    """Run one arms-race experiment.  Runs inside workers; picklable."""
    before = TELEMETRY.snapshot() if TELEMETRY.enabled else None
    with TELEMETRY.timer("stage.netpriv_job"):
        outcome = evaluate_arms_race(
            job.defense,
            job.setting,
            days=job.days,
            seed=np.random.SeedSequence(job.seed, spawn_key=(job.lan_index,)),
            lan_config=netpriv_lan_config(job.lan),
        )
    snapshot = None
    if before is not None:
        # ship the job's delta; restore the ambient registry (see
        # run_home_job for why the supervisor needs job-free counters)
        snapshot = TELEMETRY.snapshot().minus(before)
        TELEMETRY.restore(before)
    return NetprivJobResult(
        index=job.index,
        preset=job.preset,
        defense=job.defense,
        setting=job.setting,
        seed=job.seed,
        lan_index=job.lan_index,
        outcome=outcome,
        telemetry=snapshot,
    )


@dataclass(frozen=True)
class NetprivJobResult:
    """One executed arms-race job, addressable back to its grid cell."""

    index: int
    preset: str
    defense: str
    setting: float
    seed: int
    lan_index: int
    outcome: ArmsRaceOutcome
    telemetry: TelemetrySnapshot | None = None


@dataclass(frozen=True)
class NetprivGrid:
    """Declarative netpriv sweep: defenses × settings × seeds × LANs.

    ``n_lans`` is the per-cell population size (independent LAN
    simulations sharing the cell's seed stream); ``lan`` names the
    composition in :data:`NETPRIV_LAN_CONFIGS`.  Validation happens here,
    once, not per job deep inside a worker.
    """

    defenses: tuple[str, ...]
    settings: tuple[float, ...]
    seeds: tuple[int, ...] = (0,)
    n_lans: int = 1
    days: int = 2
    lan: str = "small"

    def __post_init__(self) -> None:
        if not self.defenses:
            raise SweepError("grid needs at least one defense")
        if not self.settings:
            raise SweepError("grid needs at least one knob setting")
        if not self.seeds:
            raise SweepError("grid needs at least one seed")
        available = knob_mapping_names(NETPRIV_KNOB_DOMAIN)
        unknown = set(self.defenses) - set(available)
        if unknown:
            raise SweepError(
                f"no netpriv knob mapping for: {sorted(unknown)}; "
                f"available: {available}"
            )
        for s in self.settings:
            if not 0.0 <= s <= 1.0:
                raise SweepError(f"knob setting {s!r} outside [0, 1]")
        if len(set(self.settings)) != len(self.settings):
            raise SweepError("duplicate knob settings in grid")
        if len(set(self.defenses)) != len(self.defenses):
            raise SweepError("duplicate defenses in grid")
        if len(set(self.seeds)) != len(self.seeds):
            raise SweepError("duplicate seeds in grid")
        if self.n_lans < 1:
            raise SweepError("n_lans must be >= 1")
        if self.days < 1:
            raise SweepError("days must be >= 1")
        netpriv_lan_config(self.lan)  # raises on unknown name

    @property
    def n_cells(self) -> int:
        return len(self.defenses) * len(self.settings) * len(self.seeds)

    @property
    def n_jobs(self) -> int:
        return self.n_cells * self.n_lans

    def cells(self) -> list[NetprivCell]:
        """Canonical (defense, sorted setting, seed) order — the shard
        contract, identical on every machine given the same grid."""
        return [
            NetprivCell(defense=d, setting=float(s), seed=int(seed))
            for d in self.defenses
            for s in sorted(self.settings)
            for seed in self.seeds
        ]

    def jobs_for(self, cells: Sequence[NetprivCell]) -> list[NetprivJob]:
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

    def as_dict(self) -> dict:
        return {
            "defenses": list(self.defenses),
            "settings": list(self.settings),
            "seeds": list(self.seeds),
            "n_lans": self.n_lans,
            "days": self.days,
            "lan": self.lan,
        }


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

    def as_dict(self) -> dict:
        return {
            "defense": self.defense,
            "setting": self.setting,
            "seed": self.seed,
            "n_lans": self.n_lans,
            "n_failed": self.n_failed,
            "naive_mcc": self.naive_mcc.as_dict(),
            "adaptive_mcc": self.adaptive_mcc.as_dict(),
            "naive_fingerprint_acc": self.naive_fingerprint_acc.as_dict(),
            "adaptive_fingerprint_acc": self.adaptive_fingerprint_acc.as_dict(),
            "cover_mb_per_day": self.cover_mb_per_day.as_dict(),
            "mean_added_delay_s": self.mean_added_delay_s.as_dict(),
        }

    @property
    def adaptive_advantage(self) -> float:
        """Mean occupancy-MCC the retrained attacker claws back."""
        return self.adaptive_mcc.mean - self.naive_mcc.mean


_POINT_STATS = (
    "naive_mcc",
    "adaptive_mcc",
    "naive_fingerprint_acc",
    "adaptive_fingerprint_acc",
    "cover_mb_per_day",
    "mean_added_delay_s",
)


@dataclass(frozen=True)
class NetprivFrontierReport:
    """The netpriv sweep's deliverable, shaped like ``FrontierReport``.

    The monotone gate runs on the **adaptive** attacker's occupancy MCC:
    a defense whose dial only defeats the naive attacker has not bought
    privacy, merely obscurity, and the frontier should say so.
    """

    points: tuple[NetprivFrontierPoint, ...]

    @classmethod
    def from_results(
        cls, results: Iterable[NetprivJobResult], failures: Iterable[HomeFailure] = ()
    ) -> "NetprivFrontierReport":
        grouped: dict[tuple[str, float, int], list[NetprivJobResult]] = {}
        for result in results:
            key = (result.defense, result.setting, result.seed)
            grouped.setdefault(key, []).append(result)
        failed = list(failures)
        points = []
        for (defense, setting, seed), cell_results in sorted(grouped.items()):
            outcomes = [r.outcome for r in cell_results]
            label = knob_defense_name(defense, setting)
            n_failed = sum(
                1 for f in failed if f.preset.startswith(f"{label} seed={seed} ")
            )
            points.append(
                NetprivFrontierPoint(
                    defense=defense,
                    setting=setting,
                    seed=seed,
                    n_lans=len(outcomes),
                    n_failed=n_failed,
                    naive_mcc=PopulationStats.of(
                        [o.naive.occupancy_mcc for o in outcomes]
                    ),
                    adaptive_mcc=PopulationStats.of(
                        [o.adaptive.occupancy_mcc for o in outcomes]
                    ),
                    naive_fingerprint_acc=PopulationStats.of(
                        [o.naive.fingerprint_accuracy for o in outcomes]
                    ),
                    adaptive_fingerprint_acc=PopulationStats.of(
                        [o.adaptive.fingerprint_accuracy for o in outcomes]
                    ),
                    cover_mb_per_day=PopulationStats.of(
                        [o.cover_mb_per_day for o in outcomes]
                    ),
                    mean_added_delay_s=PopulationStats.of(
                        [o.mean_added_delay_s for o in outcomes]
                    ),
                )
            )
        return cls(points=tuple(points))

    def monotone_violations(self, tolerance: float = 0.05) -> list[str]:
        """Dial-up must not raise the adaptive attacker's occupancy MCC.

        Same running-min-with-tolerance shape check as
        :meth:`repro.fleet.frontier.FrontierReport.monotone_violations`.
        """
        if tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        series: dict[tuple[str, int], list[NetprivFrontierPoint]] = {}
        for point in self.points:
            series.setdefault((point.defense, point.seed), []).append(point)
        violations = []
        for (defense, seed), pts in sorted(series.items()):
            running_min = float("inf")
            for point in sorted(pts, key=lambda p: p.setting):
                if point.adaptive_mcc.mean > running_min + tolerance:
                    violations.append(
                        f"{defense}@{point.setting:g} (seed {seed}): "
                        f"adaptive mcc {point.adaptive_mcc.mean:.3f} exceeds "
                        f"running min {running_min:.3f} + {tolerance:g}"
                    )
                running_min = min(running_min, point.adaptive_mcc.mean)
        return violations

    def as_dict(self) -> dict:
        return {"points": [p.as_dict() for p in self.points]}

    def to_json(self, path: str | Path | None = None) -> str:
        doc = json.dumps(self.as_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(doc + "\n")
        return doc

    @classmethod
    def from_json(cls, path: str | Path) -> "NetprivFrontierReport":
        """Round-trip a :meth:`to_json` export back into a report."""
        doc = json.loads(Path(path).read_text())
        points = []
        for row in doc["points"]:
            points.append(
                NetprivFrontierPoint(
                    defense=row["defense"],
                    setting=float(row["setting"]),
                    seed=int(row["seed"]),
                    n_lans=int(row["n_lans"]),
                    n_failed=int(row["n_failed"]),
                    **{
                        name: PopulationStats(**row[name])
                        for name in _POINT_STATS
                    },
                )
            )
        return cls(points=tuple(points))

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

    def to_csv(self, path: str | Path) -> Path:
        from ..datasets.io import save_rows_csv

        path = Path(path)
        save_rows_csv(path, self.CSV_HEADER, self.csv_rows())
        return path

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


@dataclass(frozen=True)
class NetprivSweepResult:
    """Everything one netpriv sweep pass (one shard) produced."""

    grid: NetprivGrid
    shard: tuple[int, int]
    results: tuple[NetprivJobResult, ...]
    failures: tuple[HomeFailure, ...]
    elapsed_s: float
    workers_used: int
    pool_rebuilds: int = 0
    telemetry: TelemetrySnapshot | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def frontier(self) -> NetprivFrontierReport:
        return NetprivFrontierReport.from_results(self.results, self.failures)


class NetprivSweepRunner:
    """Execute a :class:`NetprivGrid` (or one shard) under supervision.

    All of the shard's jobs go to :meth:`FleetRunner.run_jobs` as one
    batch, so worker parallelism spans cells (a cell is often a single
    LAN).  ``on_result`` fires per completed job in completion order —
    the CLI's progress line.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        max_retries: int = 2,
        job_timeout: float | None = None,
        fail_fast: bool = False,
        telemetry: bool = False,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        self.runner = FleetRunner(
            workers=workers,
            cache_dir=None,
            max_retries=max_retries,
            job_timeout=job_timeout,
            fail_fast=fail_fast,
            telemetry=telemetry,
            backend=backend,
        )

    def run(
        self,
        grid: NetprivGrid,
        shard: tuple[int, int] = (1, 1),
        on_result: Callable[[NetprivJobResult], None] | None = None,
    ) -> NetprivSweepResult:
        """Run the shard's cells; returns results plus the failure report."""
        from .sweep import shard_cells

        start = time.perf_counter()
        cells = shard_cells(grid.cells(), shard)
        jobs = grid.jobs_for(cells)
        batch = self.runner.run_jobs(jobs, run_netpriv_job, on_result=on_result)
        return NetprivSweepResult(
            grid=grid,
            shard=shard,
            results=tuple(batch.results),
            failures=batch.failures,
            elapsed_s=time.perf_counter() - start,
            workers_used=batch.workers_used,
            pool_rebuilds=batch.pool_rebuilds,
            telemetry=batch.telemetry,
        )


def run_netpriv_sweep(
    grid: NetprivGrid,
    workers: int = 1,
    shard: tuple[int, int] = (1, 1),
    **runner_kwargs,
) -> NetprivSweepResult:
    """One-call convenience mirroring :func:`repro.fleet.sweep.run_sweep`."""
    return NetprivSweepRunner(workers=workers, **runner_kwargs).run(grid, shard)


__all__ = [
    "NETPRIV_LAN_CONFIGS",
    "netpriv_lan_config",
    "NetprivCell",
    "NetprivJob",
    "NetprivJobResult",
    "run_netpriv_job",
    "NetprivGrid",
    "NetprivFrontierPoint",
    "NetprivFrontierReport",
    "NetprivSweepResult",
    "NetprivSweepRunner",
    "run_netpriv_sweep",
]
