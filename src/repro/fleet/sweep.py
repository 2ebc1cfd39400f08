"""Declarative privacy-knob sweeps over the fleet (the Sec. III-E grid).

:func:`~repro.core.knob.sweep_knob` dials one home along one axis; the
paper's knob story is population-scale — how does the frontier look over
a service territory, per mechanism, per dial position?  A
:class:`SweepGrid` declares that grid — the (defense × knob setting ×
seed) axes of :class:`KnobGrid`, which the netpriv arms race shares,
over a fixed home population — and :class:`SweepRunner`, the one grid
runner, executes a shard of it in one
:meth:`~repro.fleet.engine.FleetRunner.run_specs` call on the
fault-tolerant :class:`~repro.fleet.engine.FleetRunner` (a netpriv grid
shard goes through the same runner, as arms-race jobs).

Design choices that make the grid cheap and resumable:

* **One cell = one fleet spec with a single parametrized defense.**  The
  cell's defense travels as the string ``name@setting``
  (:func:`~repro.core.knob.knob_defense_name`), which flows into the
  content-addressed cache key untouched — so the sweep inherits the
  fleet cache at per-(cell, home) granularity with zero cache-format
  changes.  A killed sweep, rerun over the same ``cache_dir``, replays
  finished (cell, home) pairs from disk and executes only the remainder.
* **One job per home, not per (cell, home).**  A seed's cells share
  their homes, so the shard builds each seed's population once and
  dispatches one home job per home that any cell still owes: the home
  is simulated and its baseline attacked once, then each owed cell's
  defense is scored with that cell's own fresh generator, so every
  result and cache entry is bit-identical to a per-cell run.  The job
  is the unit of supervision: retries, the job timeout and crash
  isolation apply to it, a home that fails permanently fails in every
  cell it owed, and ``fail_fast`` aborts the whole shard.
* **Shards are a pure function of the cell list.**  ``--shard i/n``
  takes cells ``i-1::n`` of the deterministic cell ordering
  (:meth:`SweepGrid.cells`), so *n* machines sharing nothing but the
  grid file partition the work exactly, and any shard can be re-run
  alone.
* **Telemetry is attributed once.**  Each :class:`CellResult` keeps the
  cost of scoring its own defenses; the shared simulation, baseline,
  ``stage.job`` span and supervisor counters are counted once, in
  :attr:`SweepResult.telemetry`, which also merges every cell's part.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import ClassVar, Sequence

from ..core.claims import load_document
from ..core.knob import knob_defense_name, knob_mapping_names
from ..obs import TelemetrySnapshot
from .engine import FleetResult, FleetRunner
from .frontier import FrontierReport
from .spec import DEFAULT_FLEET_DETECTORS, FleetSpec


class SweepError(ValueError):
    """A malformed grid, shard, or grid file."""


@dataclass(frozen=True)
class SweepCell:
    """One point of the grid: a dialed defense over one seeded fleet."""

    defense: str
    setting: float
    seed: int

    @property
    def knob_name(self) -> str:
        """The ``name@setting`` string the fleet (and its cache) sees."""
        return knob_defense_name(self.defense, self.setting)

    def label(self) -> str:
        return f"{self.knob_name} seed={self.seed}"


@dataclass(frozen=True)
class KnobGrid:
    """The dial axes every knob sweep fans out: defenses × settings × seeds.

    ``DOMAIN`` names the knob-mapping domain the defenses are dialed in
    (:func:`~repro.core.knob.knob_mapping_names`).  Subclasses add the
    population each cell is evaluated over, and ``run_cells(runner,
    cells)`` for :class:`SweepRunner`; validation of the axes happens
    here, once, not per job deep inside a worker.
    """

    DOMAIN: ClassVar[str] = "energy"

    defenses: tuple[str, ...]
    settings: tuple[float, ...]
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if not self.defenses:
            raise SweepError("grid needs at least one defense")
        if not self.settings:
            raise SweepError("grid needs at least one knob setting")
        if not self.seeds:
            raise SweepError("grid needs at least one seed")
        available = knob_mapping_names(self.DOMAIN)
        unknown = set(self.defenses) - set(available)
        if unknown:
            raise SweepError(
                f"no knob mapping for: {sorted(unknown)} in domain "
                f"{self.DOMAIN!r}; available: {available}"
            )
        labels: dict[str, float] = {}
        for s in self.settings:
            if not 0.0 <= s <= 1.0:
                raise SweepError(f"knob setting {s!r} outside [0, 1]")
            # a cell is known by its label (and cache key), which rounds
            label = knob_defense_name(self.defenses[0], s)
            if label in labels:
                raise SweepError(
                    f"duplicate knob settings in grid: {labels[label]!r} "
                    f"and {s!r} are both {label!r}"
                )
            labels[label] = s
        if len(set(self.defenses)) != len(self.defenses):
            raise SweepError("duplicate defenses in grid")
        if len(set(self.seeds)) != len(self.seeds):
            raise SweepError("duplicate seeds in grid")

    @property
    def n_cells(self) -> int:
        return len(self.defenses) * len(self.settings) * len(self.seeds)

    def cells(self) -> list[SweepCell]:
        """All cells in the canonical (defense, setting, seed) order.

        The order is part of the sweep's contract: shards slice it, so
        it must be identical on every machine given the same grid.
        """
        return [
            SweepCell(defense=d, setting=float(s), seed=int(seed))
            for d in self.defenses
            for s in sorted(self.settings)
            for seed in self.seeds
        ]

    def as_dict(self) -> dict:
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(self).items()
        }


@dataclass(frozen=True)
class SweepGrid(KnobGrid):
    """The declarative sweep: which dials, which positions, which fleet.

    Every combination of ``defenses`` × ``settings`` × ``seeds`` becomes
    one :class:`SweepCell`; all cells share the same home population
    shape (``n_homes``, ``days``, ``mix``, ``detectors``).  Within one
    ``seed`` the *homes* are identical across cells (fleet seeding is a
    pure function of the fleet seed), so cells differ only by the dialed
    defense — which is exactly what a frontier comparison needs.
    """

    n_homes: int = 20
    days: int = 1
    mix: tuple[str, ...] = ("random",)
    detectors: tuple[str, ...] = DEFAULT_FLEET_DETECTORS

    def __post_init__(self) -> None:
        super().__post_init__()
        # population-shape validation is delegated to FleetSpec, once,
        # here — not per cell deep inside a shard on another machine
        self.cell_spec(SweepCell(self.defenses[0], self.settings[0], self.seeds[0]))

    def cell_spec(self, cell: SweepCell) -> FleetSpec:
        """The fleet run computing one cell."""
        return FleetSpec(
            n_homes=self.n_homes,
            days=self.days,
            seed=cell.seed,
            mix=self.mix,
            defenses=(cell.knob_name,),
            detectors=self.detectors,
        )

    def run_cells(
        self, runner: FleetRunner, cells: Sequence[SweepCell]
    ) -> "SweepResult":
        """Run ``cells`` as home jobs in one ``runner.run_specs`` call."""
        fleets, telemetry = runner.run_specs(
            [self.cell_spec(cell) for cell in cells]
        )
        return SweepResult(
            grid=self,
            cells=tuple(
                CellResult(cell=cell, fleet=fleet)
                for cell, fleet in zip(cells, fleets)
            ),
            executed=sum(fleet.executed for fleet in fleets),
            telemetry=telemetry,
        )


#: grid-file key -> (entry type, whether the key holds a list of them)
_GRID_KEYS = {
    "defenses": (str, True),
    "settings": (float, True),
    "n_homes": (int, False),
    "days": (int, False),
    "seeds": (int, True),
    "mix": (str, True),
    "detectors": (str, True),
}


def _grid_value(path: Path, key: str, value: object, kind: type, many: bool):
    """Check one grid-file value's shape and convert it to ``kind``."""
    if many:
        if not isinstance(value, list):
            raise SweepError(
                f"grid key {key!r} in {path} must be a list, got {value!r}"
            )
        return tuple(_grid_value(path, key, v, kind, False) for v in value)
    if kind is str:
        if isinstance(value, str):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if kind(value) == value:  # refuses 2.5 as an int, and NaN
                return kind(value)
        except (OverflowError, ValueError):
            pass
    raise SweepError(
        f"grid key {key!r} in {path}: {value!r} is not "
        + {str: "a string", float: "a number", int: "an integer"}[kind]
    )


def load_grid(path: str | Path) -> SweepGrid:
    """Read a grid from a small TOML or JSON file.

    The file holds exactly the :meth:`SweepGrid.as_dict` keys (all
    optional except ``defenses`` and ``settings``), each shaped as that
    dict shapes it; extension picks the parser
    (:func:`~repro.core.claims.load_document`).  Every malformed file
    raises :class:`SweepError` naming the file.
    """
    path = Path(path)
    doc = load_document(path, "grid file", SweepError)
    if not isinstance(doc, dict):
        raise SweepError(f"grid file {path} must hold a table/object")
    unknown = set(doc) - set(_GRID_KEYS)
    if unknown:
        raise SweepError(
            f"unknown grid keys in {path}: {sorted(unknown)}; "
            f"known: {sorted(_GRID_KEYS)}"
        )
    missing = {"defenses", "settings"} - set(doc)
    if missing:
        raise SweepError(f"grid file {path} missing keys: {sorted(missing)}")
    kwargs = {
        key: _grid_value(path, key, value, *_GRID_KEYS[key])
        for key, value in doc.items()
    }
    try:
        return SweepGrid(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SweepError(f"bad grid in {path}: {exc}") from exc


def parse_shard(text: str) -> tuple[int, int]:
    """Parse and validate a ``--shard i/n`` argument."""
    head, sep, tail = text.partition("/")
    if not sep:
        raise SweepError(f"shard must look like i/n, got {text!r}")
    try:
        index, total = int(head), int(tail)
    except ValueError:
        raise SweepError(f"shard must be two integers i/n, got {text!r}") from None
    if total < 1 or not 1 <= index <= total:
        raise SweepError(
            f"shard index must satisfy 1 <= i <= n, got {index}/{total}"
        )
    return index, total


def shard_cells(
    cells: Sequence[SweepCell], shard: tuple[int, int]
) -> list[SweepCell]:
    """Round-robin slice of the canonical cell order for shard ``(i, n)``.

    Round-robin (``cells[i-1::n]``) rather than contiguous blocks so each
    shard spans the whole grid — expensive settings spread evenly instead
    of landing on one machine.
    """
    index, total = shard
    if total < 1 or not 1 <= index <= total:
        raise SweepError(
            f"shard index must satisfy 1 <= i <= n, got {index}/{total}"
        )
    return list(cells[index - 1 :: total])


@dataclass(frozen=True)
class CellResult:
    """One executed cell: its fleet result plus attributable telemetry.

    ``telemetry`` is the cost of scoring this cell's defense on the homes
    it executed.  A home job that owed only this cell (say, after a
    resumed sweep) charges it the whole job, simulation included.
    """

    cell: SweepCell
    fleet: FleetResult

    @property
    def telemetry(self) -> TelemetrySnapshot | None:
        return self.fleet.telemetry


@dataclass(frozen=True)
class SweepResult:
    """Everything one sweep pass (one shard) produced."""

    grid: SweepGrid
    cells: tuple[CellResult, ...]
    executed: int  # home-cells actually scored (not replayed from cache)
    #: sweep-level totals: supervisor counters, each home job's shared
    #: part and every cell's own part; ``None`` unless the runner
    #: collected telemetry
    telemetry: TelemetrySnapshot | None = None
    shard: tuple[int, int] = (1, 1)
    elapsed_s: float = 0.0

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_failed_homes(self) -> int:
        return sum(c.fleet.n_failed for c in self.cells)

    @property
    def ok(self) -> bool:
        return all(c.fleet.ok for c in self.cells)

    def frontier(self) -> FrontierReport:
        return FrontierReport.from_cells(self.cells)


class SweepRunner:
    """The grid runner: execute one shard of any knob grid, supervised.

    The grid runs its cells on one :class:`~repro.fleet.engine.FleetRunner`
    (built from these arguments, and reused so cache statistics
    accumulate) in one supervised call, one pool per shard: a
    :class:`SweepGrid` as cached home jobs, each owing every cell of its
    home, a :class:`~repro.fleet.netpriv.NetprivGrid` as LAN jobs, each
    owing dials of one (seed, LAN), which ignore ``cache_dir`` and
    ``profile_dir``.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        **supervisor: object,
    ) -> None:
        self.runner = FleetRunner(workers, cache_dir, **supervisor)

    def run(self, grid: KnobGrid, shard: tuple[int, int] = (1, 1)):
        """Run this shard's cells; the grid's result, stamped with the shard."""
        start = time.perf_counter()
        result = grid.run_cells(self.runner, shard_cells(grid.cells(), shard))
        return replace(
            result, shard=shard, elapsed_s=time.perf_counter() - start
        )


def run_sweep(
    grid: SweepGrid,
    shard: tuple[int, int] = (1, 1),
    workers: int = 1,
    cache_dir: str | Path | None = None,
    **supervisor: object,
) -> SweepResult:
    """One-call convenience: ``SweepRunner(...).run(grid, shard)``."""
    return SweepRunner(workers, cache_dir, **supervisor).run(grid, shard)
