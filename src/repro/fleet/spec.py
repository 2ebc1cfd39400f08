"""Fleet specification: which homes to evaluate, and how they are seeded.

A :class:`FleetSpec` describes a population of homes drawn from the preset
registry (including ``random``, which synthesizes a new household per
slot).  Seeding uses ``np.random.SeedSequence.spawn``: the fleet's root
sequence spawns one child per home, and each child spawns three dedicated
streams (config synthesis, home simulation, defense randomness).  Spawned
children are a pure function of ``(root entropy, home index)``, so

* results are bitwise-identical regardless of worker count or chunking,
  because no stream is shared between homes; and
* any single home can be rebuilt in isolation (:meth:`FleetSpec.job`)
  without simulating the homes before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.evaluation import DEFAULT_DETECTORS
from ..core.registry import RegistryError, defense_factory, defense_names
from ..home.fingerprint import config_fingerprint
from ..home.household import HomeConfig
from ..home.presets import make_preset, preset_names
from ..obs import TELEMETRY

#: Detector ensemble evaluated against every home: the names of
#: ``core.evaluation.DEFAULT_DETECTORS``, in order.
DEFAULT_FLEET_DETECTORS = tuple(name for name, _ in DEFAULT_DETECTORS)


def _home_seed(root_seed: int, index: int) -> np.random.SeedSequence:
    """Child ``index`` of ``SeedSequence(root_seed)``, built in O(1).

    ``SeedSequence.spawn`` children differ from their parent only by the
    appended spawn key, so child *i* of the root is simply
    ``SeedSequence(root_seed, spawn_key=(i,))``.  A test pins this
    equivalence against an actual ``spawn`` call.
    """
    return np.random.SeedSequence(root_seed, spawn_key=(index,))


@dataclass(frozen=True)
class HomeJob:
    """One home's unit of fleet work — fully picklable.

    ``sim_seed`` and ``defense_seed`` are independent spawned streams; the
    worker never needs the fleet root.  ``fingerprint`` identifies the
    *config content* (not the slot), so two slots that synthesized the
    same home would share cache entries if their seeds also matched.

    ``attempt`` is supervisor bookkeeping: the retry ordinal the job is
    running as (0 = first try).  It is deliberately *excluded* from the
    cache key — a retried home is the same cell — and does not influence
    the simulation seeds, so retries reproduce results bit-identically.
    The fault-injection layer keys on it to model flaky-then-healthy jobs.

    ``cells`` lists the defense tuple of every cell the job scores when
    several cells share the home (a sweep's cells differ only in their
    defenses).  The home is simulated and its baseline scored once; each
    tuple is then scored with a fresh generator from ``defense_seed``,
    exactly as a job of that tuple alone would score it.  Empty means the
    one cell ``defenses``.  Each (cell, home) pair is cached under the
    key of the job whose ``defenses`` is that cell's tuple.
    """

    index: int
    preset: str
    config: HomeConfig
    fingerprint: str
    days: int
    sim_seed: np.random.SeedSequence
    defense_seed: np.random.SeedSequence
    defenses: tuple[str, ...]
    detectors: tuple[str, ...] = DEFAULT_FLEET_DETECTORS
    attempt: int = 0
    cells: tuple[tuple[str, ...], ...] = ()

    @property
    def defense_sets(self) -> tuple[tuple[str, ...], ...]:
        """The defense tuples this job scores, one per cell."""
        return self.cells or (self.defenses,)


@dataclass(frozen=True)
class FleetSpec:
    """A population of homes to simulate, defend, and attack.

    Parameters
    ----------
    n_homes:
        Population size.
    days:
        Simulated days per home.
    seed:
        Root entropy for the whole fleet.
    mix:
        Preset names cycled over the population (home *i* uses
        ``mix[i % len(mix)]``).  Defaults to all-random homes.
    defenses:
        Defense names to sweep, each registered or a mapped
        ``name@setting``; ``None`` means all registered.
    detectors:
        NIOM detector names from the fleet detector table.
    """

    n_homes: int
    days: int = 3
    seed: int = 0
    mix: tuple[str, ...] = ("random",)
    defenses: tuple[str, ...] | None = None
    detectors: tuple[str, ...] = DEFAULT_FLEET_DETECTORS

    def __post_init__(self) -> None:
        if self.n_homes < 1:
            raise ValueError("n_homes must be >= 1")
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if not self.mix:
            raise ValueError("mix needs at least one preset")
        unknown = set(self.mix) - set(preset_names())
        if unknown:
            raise ValueError(
                f"unknown presets in mix: {sorted(unknown)}; "
                f"available: {preset_names()}"
            )
        if not self.detectors:
            raise ValueError("need at least one detector")
        # validate detector names once, here, instead of letting every
        # worker raise KeyError mid-dispatch
        unknown = set(self.detectors) - set(DEFAULT_FLEET_DETECTORS)
        if unknown:
            raise ValueError(
                f"unknown detectors: {sorted(unknown)}; "
                f"available: {sorted(DEFAULT_FLEET_DETECTORS)}"
            )
        for name in self.defenses or ():
            try:
                defense_factory(name)
            except RegistryError as exc:
                raise ValueError(exc.args[0]) from None

    def resolved_defenses(self) -> tuple[str, ...]:
        if self.defenses is not None:
            return self.defenses
        return tuple(defense_names())

    def job(self, index: int) -> HomeJob:
        """Build home ``index``'s job in isolation (O(1) in fleet size)."""
        if not 0 <= index < self.n_homes:
            raise IndexError(f"home index {index} outside [0, {self.n_homes})")
        return self._job_from_child(index, _home_seed(self.seed, index))

    def jobs(self) -> list[HomeJob]:
        """All jobs, seeded by spawning the root sequence once per home.

        Job construction synthesizes every home's config (non-trivial for
        ``random`` homes), so it is a telemetry stage of its own:
        supervisor-side ``stage.spec`` time never shows up inside any
        worker's ``stage.job``.
        """
        children = np.random.SeedSequence(self.seed).spawn(self.n_homes)
        with TELEMETRY.timer("stage.spec"):
            built = [
                self._job_from_child(i, child)
                for i, child in enumerate(children)
            ]
        TELEMETRY.count("fleet.jobs_built", len(built))
        return built

    def _job_from_child(
        self, index: int, child: np.random.SeedSequence
    ) -> HomeJob:
        config_seed, sim_seed, defense_seed = child.spawn(3)
        preset = self.mix[index % len(self.mix)]
        config = make_preset(preset, np.random.default_rng(config_seed))
        return HomeJob(
            index=index,
            preset=preset,
            config=config,
            fingerprint=config_fingerprint(config),
            days=self.days,
            sim_seed=sim_seed,
            defense_seed=defense_seed,
            defenses=self.resolved_defenses(),
            detectors=self.detectors,
        )
