"""End-to-end experiment pipeline: home -> defense -> attacks -> scores.

The convenience layer that the examples and benchmarks share: simulate (or
accept) a home, run a set of named defenses over its metered trace, attack
every visible trace with the NIOM ensemble, and return one
:class:`TradeoffPoint` per defense (plus the undefended baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..defenses.base import DefenseOutcome
from ..home.household import HomeSimulation, simulate_home
from ..home.presets import home_b
from ..obs import TELEMETRY
from .evaluation import DEFAULT_DETECTORS, TradeoffPoint, evaluate_defense_outcome
from .registry import make_defense


@dataclass(frozen=True)
class PipelineResult:
    """Scores for the baseline and every requested defense."""

    baseline: TradeoffPoint
    defenses: dict[str, TradeoffPoint]


def evaluate_baseline(
    sim: HomeSimulation, detectors=DEFAULT_DETECTORS
) -> TradeoffPoint:
    """Score the undefended metered trace: the anchor every defense is
    compared against.

    It draws no randomness, so one home's baseline is the same whichever
    defenses are scored beside it.  A fleet job that scores several
    defense sets on one simulation scores it once and hands it to each
    :func:`evaluate_simulation` call as ``baseline``.
    """
    metered = sim.metered
    with TELEMETRY.timer("stage.attack"):
        return evaluate_defense_outcome(
            "baseline",
            DefenseOutcome(visible=metered),
            metered,
            sim.occupancy,
            detectors,
        )


def evaluate_simulation(
    sim: HomeSimulation,
    defense_names: list[str] | None = None,
    rng: np.random.Generator | int | None = None,
    detectors=DEFAULT_DETECTORS,
    baseline: TradeoffPoint | None = None,
) -> PipelineResult:
    """Score the baseline and every requested defense on one simulation.

    This is the process-safe core of :func:`run_pipeline`: a plain
    module-level function of picklable arguments (plus detector factories),
    so fleet worker processes can import and call it directly.  The
    defenses run in order on the one generator ``rng``.  ``baseline``, when
    given, is this simulation's :func:`evaluate_baseline` point, reused
    instead of scored again.
    """
    rng = np.random.default_rng(rng)
    if defense_names is None:
        from .registry import defense_names as all_names

        defense_names = all_names()

    if baseline is None:
        baseline = evaluate_baseline(sim, detectors)
    occupancy = sim.occupancy
    metered = sim.metered
    results: dict[str, TradeoffPoint] = {}
    for name in defense_names:
        defense = make_defense(name)
        with TELEMETRY.timer("stage.defend"):
            outcome = defense.apply(metered, rng)
        with TELEMETRY.timer("stage.attack"):
            results[name] = evaluate_defense_outcome(
                name, outcome, metered, occupancy, detectors
            )
    return PipelineResult(baseline=baseline, defenses=results)


def run_pipeline(
    sim: HomeSimulation | None = None,
    defense_names: list[str] | None = None,
    rng: np.random.Generator | int | None = None,
) -> PipelineResult:
    """Evaluate defenses on a simulated home.

    With no arguments: simulate the Fig. 1 Home-B for a week and sweep all
    registered defenses.
    """
    rng = np.random.default_rng(rng)
    if sim is None:
        sim = simulate_home(home_b(), 7, rng)
    return evaluate_simulation(sim, defense_names, rng)
