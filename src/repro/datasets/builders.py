"""Canonical seeded datasets for each experiment.

Every figure's benchmark pulls its data from here, so experiments are
reproducible bit-for-bit and the examples/benchmarks/tests all agree on
what "the Fig. N data" means.  Seeds are fixed per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..home.household import HomeSimulation, simulate_home
from ..home.presets import fig2_home, fig6_home, home_a, home_b, random_home
from ..solar.generation import SolarSite, fig5_sites, simulate_generation
from ..solar.weather import WeatherField, WeatherStationDB
from ..timeseries import PowerTrace

FIG1_SEED = 1001
FIG2_SEED = 1002
FIG5_SEED = 1005
FIG6_SEED = 1006
POPULATION_SEED = 1010


def fig1_dataset(n_days: int = 7) -> tuple[HomeSimulation, HomeSimulation]:
    """The two Fig. 1 homes, metered at one minute.

    Home-B's seed is chosen (deterministically) so its big loads actually
    ran during the week and its peak lands in the figure's 5-6 kW range —
    the paper's week clearly contains dryer/cooktop activity.
    """
    sim_a = simulate_home(home_a(), n_days, rng=FIG1_SEED)
    for offset in range(1, 20):
        sim_b = simulate_home(home_b(), n_days, rng=FIG1_SEED + offset)
        peak_kw = sim_b.metered.max() / 1000.0
        if sim_b.appliance_traces["dryer"].values.sum() > 0 and 4.0 <= peak_kw <= 8.0:
            return sim_a, sim_b
    raise RuntimeError("no seed produced a representative Home-B week")


def fig2_dataset(n_days: int = 14) -> HomeSimulation:
    """The Fig. 2 home: sub-metered circuits for the five target devices.

    Fourteen days so learning-based NILM has a training week and a test
    week; retries nearby seeds until every target device was actually used
    (a dryer that never ran cannot be scored).
    """
    from ..home.presets import FIG2_DEVICES

    for offset in range(10):
        sim = simulate_home(fig2_home(), n_days, rng=FIG2_SEED + offset)
        if all(sim.appliance_traces[d].values.sum() > 0 for d in FIG2_DEVICES):
            return sim
    raise RuntimeError("could not find a seed where all Fig. 2 devices ran")


@dataclass(frozen=True)
class Fig5Dataset:
    """Everything the Fig. 5 localization experiment needs."""

    sites: list[SolarSite]
    weather: WeatherField
    stations: WeatherStationDB
    minute_traces: dict[str, PowerTrace]  # SunSpot input (1-min)
    hourly_traces: dict[str, PowerTrace]  # Weatherman input (1-hour)


def fig5_dataset(n_days: int = 365) -> Fig5Dataset:
    """Ten solar sites with a year of generation under shared weather."""
    rng = np.random.default_rng(FIG5_SEED)
    weather = WeatherField(FIG5_SEED)
    sites = fig5_sites(rng)
    stations = WeatherStationDB(weather)
    minute: dict[str, PowerTrace] = {}
    hourly: dict[str, PowerTrace] = {}
    for site in sites:
        trace = simulate_generation(
            site, n_days, 60.0, weather, rng=rng.integers(2**31)
        )
        minute[site.site_id] = trace
        hourly[site.site_id] = trace.resample(3600.0)
    return Fig5Dataset(
        sites=sites,
        weather=weather,
        stations=stations,
        minute_traces=minute,
        hourly_traces=hourly,
    )


def fig6_dataset(n_days: int = 7) -> HomeSimulation:
    """The CHPr week: a two-worker household with a 50-gal electric heater."""
    return simulate_home(fig6_home(), n_days, rng=FIG6_SEED)


def population_dataset(n_homes: int = 10, n_days: int = 10) -> list[HomeSimulation]:
    """A population of randomized homes for the NIOM accuracy claim."""
    rng = np.random.default_rng(POPULATION_SEED)
    return [
        simulate_home(random_home(rng), n_days, rng=rng.integers(2**31))
        for _ in range(n_homes)
    ]
