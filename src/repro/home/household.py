"""Whole-household simulation: appliances + occupants + meter.

This is the generator behind Figs. 1, 2, and 6: it produces a ground-truth
per-appliance decomposition (for scoring NILM), a ground-truth occupancy
series (for scoring NIOM), and the metered aggregate that attacks actually
see.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..timeseries import BinaryTrace, PowerTrace, zeros_like
from .appliances import Appliance
from .meter import MeterConfig, SmartMeter
from .occupancy import OccupancyConfig, simulate_occupancy
from .waterheater import (
    DrawConfig,
    WaterHeaterConfig,
    generate_draws,
    heater_trace,
    thermostat_power,
)

WATER_HEATER_NAME = "water_heater"


@dataclass(frozen=True)
class HomeConfig:
    """A complete household description.

    ``base_period_s`` is the physics resolution; the meter then coarsens to
    its own reporting period.  If ``water_heater`` is set, an electric water
    heater under baseline thermostat control is added to the home and its
    hot-water demand is recorded so defenses (CHPr) can re-control the same
    demand.
    """

    name: str
    appliances: tuple[Appliance, ...]
    # default_factory, not default instances: class-level instances would
    # be shared by every config ever constructed
    occupancy: OccupancyConfig = field(default_factory=OccupancyConfig)
    meter: MeterConfig = field(default_factory=MeterConfig)
    base_period_s: float = 60.0
    water_heater: WaterHeaterConfig | None = None
    draws: DrawConfig = field(default_factory=DrawConfig)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("home needs a name")
        if self.base_period_s <= 0:
            raise ValueError("base_period_s must be positive")
        names = [a.name for a in self.appliances]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate appliance names in {names}")
        if self.water_heater is not None and WATER_HEATER_NAME in names:
            raise ValueError("water heater configured twice")


@dataclass
class HomeSimulation:
    """The full output of one simulated household.

    Attributes
    ----------
    config:
        The generating configuration.
    occupancy:
        Ground-truth binary occupancy at the base period.
    appliance_traces:
        Ground-truth per-appliance power at the base period (includes the
        water heater under baseline thermostat control, if configured).
    total:
        Ground-truth aggregate (sum of appliance traces).
    metered:
        What the smart meter reports — the only view attacks may use.
    hot_water_draws:
        Per-base-sample hot-water demand in liters (None without a heater).
    """

    config: HomeConfig
    occupancy: BinaryTrace
    appliance_traces: dict[str, PowerTrace]
    total: PowerTrace
    metered: PowerTrace
    hot_water_draws: np.ndarray | None = None

    def aggregate_without(self, *names: str) -> PowerTrace:
        """Ground-truth aggregate excluding the named appliances."""
        unknown = set(names) - set(self.appliance_traces)
        if unknown:
            raise KeyError(f"unknown appliances: {sorted(unknown)}")
        out = zeros_like(self.total)
        for name, trace in self.appliance_traces.items():
            if name not in names:
                out = out + trace
        return out


def simulate_home(
    config: HomeConfig,
    n_days: int,
    rng: np.random.Generator | int | None = None,
) -> HomeSimulation:
    """Run the household for ``n_days`` and meter it.

    All randomness flows through ``rng``; the same seed reproduces the same
    home bit-for-bit.
    """
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    rng = np.random.default_rng(rng)
    occupancy = simulate_occupancy(
        config.occupancy, n_days, config.base_period_s, rng
    )
    traces: dict[str, PowerTrace] = {}
    for appliance in config.appliances:
        traces[appliance.name] = appliance.simulate(occupancy, rng)

    draws: np.ndarray | None = None
    if config.water_heater is not None:
        draws = generate_draws(occupancy, rng, config.draws)
        power, _tank = thermostat_power(draws, config.base_period_s, config.water_heater)
        traces[WATER_HEATER_NAME] = heater_trace(power, occupancy)

    total = zeros_like(
        PowerTrace(np.zeros(len(occupancy)), occupancy.period_s, occupancy.start_s)
    )
    for trace in traces.values():
        total = total + trace

    metered = SmartMeter(config.meter).observe(total, rng)
    return HomeSimulation(
        config=config,
        occupancy=occupancy,
        appliance_traces=traces,
        total=total,
        metered=metered,
        hot_water_draws=draws,
    )
