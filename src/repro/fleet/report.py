"""Population-level reduction of per-home fleet results.

A single home's :class:`~repro.core.evaluation.TradeoffPoint` answers "how
exposed is *this* household"; a utility (or an adversary) cares about the
*distribution* over its service territory.  :class:`FleetReport` reduces a
:class:`~repro.fleet.engine.FleetResult` into per-defense population
statistics — mean / median / p10 / p90 / min / max of worst-case attack
MCC, analytics utility, and energy cost — and exports them as aligned
text, JSON, or CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..datasets.io import dump_json, save_rows_csv
from .engine import FleetResult, HomeFailure

BASELINE = "baseline"


@dataclass(frozen=True)
class PopulationStats:
    """Distribution summary of one scalar metric over the fleet."""

    mean: float
    median: float
    p10: float
    p90: float
    min: float
    max: float

    @classmethod
    def of(cls, values) -> "PopulationStats":
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise ValueError("no values to summarize")
        return cls(
            mean=float(arr.mean()),
            median=float(np.median(arr)),
            p10=float(np.percentile(arr, 10)),
            p90=float(np.percentile(arr, 90)),
            min=float(arr.min()),
            max=float(arr.max()),
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "mean": self.mean,
            "median": self.median,
            "p10": self.p10,
            "p90": self.p90,
            "min": self.min,
            "max": self.max,
        }


@dataclass(frozen=True)
class DefenseDistribution:
    """One defense's population-wide tradeoff distributions."""

    defense: str
    worst_case_mcc: PopulationStats
    utility: PopulationStats
    extra_energy_kwh: PopulationStats

    def as_dict(self) -> dict:
        return {
            "defense": self.defense,
            "worst_case_mcc": self.worst_case_mcc.as_dict(),
            "utility": self.utility.as_dict(),
            "extra_energy_kwh": self.extra_energy_kwh.as_dict(),
        }


@dataclass(frozen=True)
class FleetReport:
    """The population report: what ``repro fleet`` prints and exports.

    Distributions summarize the homes that *succeeded*; permanently
    failed homes ride along as ``failures`` (with ``n_failed`` and the
    per-failure rows surfaced in the JSON/CSV exports) so a degraded
    sweep is still a complete, honest artifact.
    """

    n_homes: int
    days: int
    seed: int
    mix: tuple[str, ...]
    distributions: dict[str, DefenseDistribution]  # baseline first
    energy_kwh: PopulationStats
    elapsed_s: float
    workers_used: int
    executed: int
    cache: dict | None = None
    failures: tuple[HomeFailure, ...] = ()
    pool_rebuilds: int = 0
    #: telemetry section (present when the run collected it): fleet-level
    #: counter/timer totals plus population stats of per-home stage
    #: durations — see :meth:`telemetry_section`.
    telemetry: dict | None = None

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    @classmethod
    def from_result(cls, result: FleetResult) -> "FleetReport":
        homes = result.homes
        if not homes:
            raise ValueError(
                "fleet result has no successful homes "
                f"({result.n_failed} failed); nothing to summarize"
            )

        def dist(name: str, points) -> DefenseDistribution:
            return DefenseDistribution(
                defense=name,
                worst_case_mcc=PopulationStats.of(
                    [p.privacy.worst_case_mcc for p in points]
                ),
                utility=PopulationStats.of([p.utility.composite() for p in points]),
                extra_energy_kwh=PopulationStats.of(
                    [p.extra_energy_kwh for p in points]
                ),
            )

        distributions = {BASELINE: dist(BASELINE, [h.baseline for h in homes])}
        for name in homes[0].defenses:
            distributions[name] = dist(name, [h.defenses[name] for h in homes])

        telemetry = None
        if result.telemetry is not None:
            telemetry = cls.telemetry_section(result)

        return cls(
            n_homes=len(homes),
            days=result.spec.days,
            seed=result.spec.seed,
            mix=result.spec.mix,
            distributions=distributions,
            energy_kwh=PopulationStats.of([h.energy_kwh for h in homes]),
            elapsed_s=result.elapsed_s,
            workers_used=result.workers_used,
            executed=result.executed,
            cache=(
                result.cache_stats.as_dict()
                if result.cache_stats is not None
                else None
            ),
            failures=result.failures,
            pool_rebuilds=result.pool_rebuilds,
            telemetry=telemetry,
        )

    @staticmethod
    def telemetry_section(result: FleetResult) -> dict:
        """Reduce a run's telemetry to a JSON-ready section.

        ``totals`` are the fleet-level merged counters/timers;
        ``per_home_stage_s`` summarizes the *distribution* of each stage
        timer's per-home seconds across executed homes (cache hits carry
        no snapshot — their compute happened in an earlier run).
        """
        per_home = [h.telemetry for h in result.homes if h.telemetry is not None]
        stage_names = sorted({name for snap in per_home for name in snap.timers})
        per_home_stage_s = {}
        for name in stage_names:
            values = [
                snap.timers[name].total_s
                for snap in per_home
                if name in snap.timers
            ]
            if values:
                per_home_stage_s[name] = PopulationStats.of(values).as_dict()
        return {
            "totals": result.telemetry.as_dict(),
            "per_home_stage_s": per_home_stage_s,
            "homes_with_telemetry": len(per_home),
            "elapsed_s": result.elapsed_s,
            "workers_used": result.workers_used,
        }

    # ------------------------------------------------------------------
    # Comparisons and exports
    # ------------------------------------------------------------------
    def comparable(self, other: "FleetReport") -> bool:
        """True when both reports describe identical population scores.

        Runtime facts (wall-clock, worker count, cache hits) are excluded:
        two runs of the same spec are "the same report" even if one was
        parallel and one was cached.
        """
        return (
            self.n_homes == other.n_homes
            and self.days == other.days
            and self.seed == other.seed
            and self.mix == other.mix
            and self.distributions == other.distributions
            and self.energy_kwh == other.energy_kwh
        )

    def as_dict(self) -> dict:
        return {
            "n_homes": self.n_homes,
            "days": self.days,
            "seed": self.seed,
            "mix": list(self.mix),
            "defenses": [d.as_dict() for d in self.distributions.values()],
            "energy_kwh": self.energy_kwh.as_dict(),
            "elapsed_s": self.elapsed_s,
            "workers_used": self.workers_used,
            "executed": self.executed,
            "cache": self.cache,
            "n_failed": self.n_failed,
            "failures": [f.as_dict() for f in self.failures],
            "pool_rebuilds": self.pool_rebuilds,
            "telemetry": self.telemetry,
        }

    def to_json(self, path: str | Path | None = None) -> str:
        return dump_json(self.as_dict(), path)

    CSV_HEADER = (
        "defense",
        "mcc_mean", "mcc_median", "mcc_p10", "mcc_p90",
        "utility_mean", "utility_median", "utility_p10", "utility_p90",
        "extra_kwh_mean", "extra_kwh_median",
    )

    def csv_rows(self) -> list[list]:
        rows: list[list] = []
        for dist in self.distributions.values():
            rows.append(
                [
                    dist.defense,
                    dist.worst_case_mcc.mean, dist.worst_case_mcc.median,
                    dist.worst_case_mcc.p10, dist.worst_case_mcc.p90,
                    dist.utility.mean, dist.utility.median,
                    dist.utility.p10, dist.utility.p90,
                    dist.extra_energy_kwh.mean, dist.extra_energy_kwh.median,
                ]
            )
        return rows

    FAILURE_CSV_HEADER = ("index", "preset", "kind", "attempts", "elapsed_s", "error")

    def failure_csv_rows(self) -> list[list]:
        return [
            [f.index, f.preset, f.kind, f.attempts, f.elapsed_s, f.error]
            for f in self.failures
        ]

    def to_csv(self, path: str | Path) -> list[Path]:
        """Write the defense table; with failures, also ``*.failures.csv``.

        The failure summary gets its own file (rather than ragged rows in
        the main table) so both stay machine-readable.  Returns the paths
        written.
        """
        path = Path(path)
        save_rows_csv(path, self.CSV_HEADER, self.csv_rows())
        written = [path]
        if self.failures:
            failures_path = path.with_suffix(".failures.csv")
            save_rows_csv(
                failures_path, self.FAILURE_CSV_HEADER, self.failure_csv_rows()
            )
            written.append(failures_path)
        return written

    def format_table(self) -> str:
        """Aligned text table of per-defense MCC/utility percentiles."""
        header = (
            f"{'defense':<12s} {'mcc mean':>9s} {'median':>7s} {'p10':>7s} "
            f"{'p90':>7s} {'utility':>8s} {'kwh':>7s}"
        )
        lines = [header, "-" * len(header)]
        for dist in self.distributions.values():
            lines.append(
                f"{dist.defense:<12s} {dist.worst_case_mcc.mean:>9.3f} "
                f"{dist.worst_case_mcc.median:>7.3f} "
                f"{dist.worst_case_mcc.p10:>7.3f} "
                f"{dist.worst_case_mcc.p90:>7.3f} "
                f"{dist.utility.mean:>8.3f} "
                f"{dist.extra_energy_kwh.mean:>7.1f}"
            )
        return "\n".join(lines)
