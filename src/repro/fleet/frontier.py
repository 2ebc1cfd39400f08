"""Privacy-utility frontier aggregation for knob sweeps (Sec. III-E).

A sweep cell answers "what happens at *this* dial position of *this*
defense, over *this* seeded population"; the paper's Fig. 6 story is the
resulting *curve* — attack success traded against what the dial costs.
:class:`Frontier` is the shell both knob experiments share: it reduces
each cell's members (homes or LANs) into one point of population
statistics per axis, gates the dial's shape, and exports JSON and CSV.
:class:`FrontierReport` is the energy sweep's frontier; it reduces each
cell's per-home :class:`~repro.core.evaluation.TradeoffPoint` list into
one :class:`FrontierPoint` carrying the four frontier axes:

* ``mcc`` — worst-case attack MCC (privacy lost to the best detector);
* ``distortion_w`` — load-profile RMSE (what grid analytics lose);
* ``bill_error`` — billing energy error fraction (what the bill drifts);
* ``extra_kwh`` — energy the defense itself burned.

The report also knows the *shape* the knob semantics promise: turning the
dial up must not make the attack better.  :meth:`Frontier.monotone_violations`
checks that per (defense, seed) series with
:func:`~repro.core.knob.dial_violations`, which is the acceptance gate
``tests/test_sweep.py`` runs against every built-in knob mapping.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, is_dataclass
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable, get_type_hints

from ..core.knob import dial_violations
from ..datasets.io import dump_json, save_rows_csv
from .report import PopulationStats

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (sweep imports us)
    from .sweep import CellResult, SweepCell


@dataclass(frozen=True)
class Frontier:
    """Frontier points plus the reduction, shape gate and exports they share.

    A report subclass names its point dataclass (``POINT``, whose first
    five fields are defense, setting, seed, population size and
    ``n_failed``), the axes it summarises (``AXES``: axis name -> what
    that axis measures on one home's or one LAN's outcome), the axis the
    monotone gate watches (``MONOTONE_AXIS``) and its CSV layout
    (``CSV_HEADER`` / ``csv_rows``).  Its constructor only groups its
    inputs into ``(cell, members, n_failed)`` triples for :meth:`_reduce`.
    """

    points: tuple

    POINT: ClassVar[type]
    AXES: ClassVar[dict[str, Callable[[object], float]]]
    MONOTONE_AXIS: ClassVar[str]
    CSV_HEADER: ClassVar[tuple[str, ...]]

    @classmethod
    def _reduce(
        cls, groups: Iterable[tuple["SweepCell", list, int]]
    ) -> "Frontier":
        """One point per cell, in (defense, setting, seed) order."""
        points = [
            cls.POINT(
                cell.defense,
                cell.setting,
                cell.seed,
                len(members),
                n_failed,
                **{
                    axis: PopulationStats.of([measure(m) for m in members])
                    for axis, measure in cls.AXES.items()
                },
            )
            for cell, members, n_failed in groups
            # a fully failed cell contributes no point; the sweep's
            # failure report carries the post-mortem
            if members
        ]
        points.sort(key=lambda p: (p.defense, p.setting, p.seed))
        return cls(points=tuple(points))

    # ------------------------------------------------------------------
    # Frontier-shape checks
    # ------------------------------------------------------------------
    def monotone_violations(self, tolerance: float = 0.05) -> list[str]:
        """Knob semantics check: higher setting must not raise the attack.

        Each (defense, seed) series of ``MONOTONE_AXIS`` means, sorted by
        setting, goes through :func:`~repro.core.knob.dial_violations`:
        MCC estimates are noisy (finite homes, stochastic defenses), so
        each point is compared against the *running minimum* of its
        series with a tolerance, not against the previous point exactly.
        Returns human-readable violation descriptions (empty = frontier
        is sane).
        """
        series: dict[tuple[str, int], list] = {}
        for point in self.points:
            series.setdefault((point.defense, point.seed), []).append(point)
        axis = self.MONOTONE_AXIS.replace("_", " ")
        violations = []
        for (defense, seed), pts in sorted(series.items()):
            pts.sort(key=lambda p: p.setting)
            means = [getattr(p, self.MONOTONE_AXIS).mean for p in pts]
            for i, running_min in dial_violations(means, tolerance):
                violations.append(
                    f"{defense}@{pts[i].setting:g} (seed {seed}): "
                    f"{axis} {means[i]:.3f} exceeds running min "
                    f"{running_min:.3f} + {tolerance:g}"
                )
        return violations

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {"points": [asdict(p) for p in self.points]}

    def to_json(self, path: str | Path | None = None) -> str:
        return dump_json(self.as_dict(), path)

    @classmethod
    def from_json(cls, path: str | Path) -> "Frontier":
        """Round-trip a :meth:`to_json` export back into a report.

        Each value is coerced to its point field's declared type.
        """

        def coerce(kind: type, value):
            return kind(**value) if is_dataclass(kind) else kind(value)

        hints = get_type_hints(cls.POINT)
        doc = json.loads(Path(path).read_text())
        return cls(
            points=tuple(
                cls.POINT(
                    **{
                        f.name: coerce(hints[f.name], row[f.name])
                        for f in fields(cls.POINT)
                    }
                )
                for row in doc["points"]
            )
        )

    def to_csv(self, path: str | Path) -> Path:
        path = Path(path)
        save_rows_csv(path, self.CSV_HEADER, self.csv_rows())
        return path


@dataclass(frozen=True)
class FrontierPoint:
    """One sweep cell reduced to the frontier's four axes."""

    defense: str
    setting: float
    seed: int
    n_homes: int
    n_failed: int
    mcc: PopulationStats
    distortion_w: PopulationStats
    bill_error: PopulationStats
    extra_kwh: PopulationStats


class FrontierReport(Frontier):
    """The sweep's deliverable: frontier points plus their sanity checks."""

    POINT = FrontierPoint
    #: each axis as measured on one home's tradeoff point for the cell
    AXES = {
        "mcc": attrgetter("privacy.worst_case_mcc"),
        "distortion_w": attrgetter("utility.profile_rmse_w"),
        "bill_error": attrgetter("utility.energy_error_fraction"),
        "extra_kwh": attrgetter("extra_energy_kwh"),
    }
    MONOTONE_AXIS = "mcc"

    @classmethod
    def from_cells(cls, cells: Iterable["CellResult"]) -> "FrontierReport":
        return cls._reduce(
            (
                c.cell,
                [home.defenses[c.cell.knob_name] for home in c.fleet.homes],
                c.fleet.n_failed,
            )
            for c in cells
        )

    CSV_HEADER = (
        "defense", "setting", "seed", "n_homes", "n_failed",
        "mcc_mean", "mcc_median", "mcc_p10", "mcc_p90",
        "distortion_w_mean", "distortion_w_median",
        "bill_error_mean", "bill_error_median",
        "extra_kwh_mean", "extra_kwh_median",
    )

    def csv_rows(self) -> list[list]:
        return [
            [
                p.defense, p.setting, p.seed, p.n_homes, p.n_failed,
                p.mcc.mean, p.mcc.median, p.mcc.p10, p.mcc.p90,
                p.distortion_w.mean, p.distortion_w.median,
                p.bill_error.mean, p.bill_error.median,
                p.extra_kwh.mean, p.extra_kwh.median,
            ]
            for p in self.points
        ]

    def format_table(self) -> str:
        """Aligned text view: one line per frontier point."""
        header = (
            f"{'defense':<12s} {'setting':>7s} {'seed':>4s} "
            f"{'mcc':>6s} {'p90':>6s} {'rmse W':>8s} "
            f"{'bill':>6s} {'kwh':>7s}"
        )
        lines = [header, "-" * len(header)]
        for p in self.points:
            lines.append(
                f"{p.defense:<12s} {p.setting:>7.3f} {p.seed:>4d} "
                f"{p.mcc.mean:>6.3f} {p.mcc.p90:>6.3f} "
                f"{p.distortion_w.mean:>8.1f} "
                f"{p.bill_error.mean:>6.3f} {p.extra_kwh.mean:>7.2f}"
            )
        return "\n".join(lines)
