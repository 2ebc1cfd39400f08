"""PV array simulation: the generation traces solar IoT monitors upload.

Produces per-site generation with the properties the localization attacks
depend on: production gated by the sun being above the (possibly
obstructed) horizon, a plane-of-array geometry factor that depends on panel
tilt/azimuth, cloud modulation from the shared :class:`WeatherField`, and
monitor noise.  Sites with skewed panel azimuth or horizon obstructions are
the realistic "hard" sites that make SunSpot's error spike for a few
sites in Fig. 5 while Weatherman stays accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..timeseries import PowerTrace, SECONDS_PER_DAY
from .geo import LatLon
from .irradiance import clearsky_ghi_w_m2, sun_position
from .weather import WeatherField


@dataclass(frozen=True)
class PVArrayConfig:
    """A rooftop PV installation.

    ``azimuth_deg`` follows compass convention (180 = due south, the
    northern-hemisphere optimum).  ``horizon_east_deg`` / ``west`` model
    obstructions (trees, hills, neighbouring roofs): the direct beam is
    blocked until the sun clears that elevation on the respective side.
    """

    capacity_w: float = 6000.0
    tilt_deg: float = 30.0
    azimuth_deg: float = 180.0
    horizon_east_deg: float = 0.0
    horizon_west_deg: float = 0.0
    noise_w: float = 15.0

    def __post_init__(self) -> None:
        if self.capacity_w <= 0:
            raise ValueError("capacity_w must be positive")
        if not 0.0 <= self.tilt_deg <= 90.0:
            raise ValueError("tilt must be in [0, 90] degrees")
        if self.horizon_east_deg < 0 or self.horizon_west_deg < 0:
            raise ValueError("horizon obstructions cannot be negative")


#: System derate: inverter, wiring and soiling losses.
_DERATE = 0.82
#: Share of clear-sky irradiance that arrives diffuse.
_DIFFUSE_FRACTION = 0.18


@dataclass(frozen=True)
class SolarSite:
    """A monitored solar installation at a location."""

    site_id: str
    location: LatLon
    array: PVArrayConfig = field(default_factory=PVArrayConfig)


def _panel_normal(tilt_deg: float, azimuth_deg: float) -> np.ndarray:
    tilt = math.radians(tilt_deg)
    az = math.radians(azimuth_deg)
    # ENU components of the panel normal
    return np.asarray(
        [math.sin(tilt) * math.sin(az), math.sin(tilt) * math.cos(az), math.cos(tilt)]
    )


def simulate_generation(
    site: SolarSite,
    n_days: int,
    period_s: float = 60.0,
    weather: WeatherField | None = None,
    rng: np.random.Generator | int | None = None,
    start_day: int = 0,
) -> PowerTrace:
    """Simulate the site's AC generation trace.

    Physics: clear-sky GHI from sun elevation, split into direct + diffuse;
    the direct beam is projected onto the panel plane and blocked below the
    local horizon; the whole sky is attenuated by cloud transmittance; the
    result is scaled by capacity and system derate, clipped at capacity
    (inverter limit), and read out with monitor noise.
    """
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    if period_s <= 0 or SECONDS_PER_DAY % period_s:
        raise ValueError("period_s must divide one day")
    rng = np.random.default_rng(rng)
    cfg = site.array
    n = int(n_days * SECONDS_PER_DAY / period_s)
    start_s = start_day * SECONDS_PER_DAY
    times = start_s + np.arange(n) * period_s

    elevation, azimuth = sun_position(times, site.location.lat, site.location.lon)
    ghi = clearsky_ghi_w_m2(elevation)
    direct = (1.0 - _DIFFUSE_FRACTION) * ghi
    diffuse = _DIFFUSE_FRACTION * ghi

    # plane-of-array projection of the direct beam
    sun_vec = np.stack(
        [
            np.cos(elevation) * np.sin(azimuth),
            np.cos(elevation) * np.cos(azimuth),
            np.sin(elevation),
        ],
        axis=1,
    )
    normal = _panel_normal(cfg.tilt_deg, cfg.azimuth_deg)
    poa_factor = np.maximum(sun_vec @ normal, 0.0)
    # normalize so a sun-tracking reference would be 1: divide by sin(el)
    with np.errstate(divide="ignore", invalid="ignore"):
        beam_on_panel = np.where(
            elevation > 0.0, direct * poa_factor / np.maximum(np.sin(elevation), 0.05), 0.0
        )

    # horizon obstruction blocks the direct beam (diffuse survives)
    elevation_deg = np.degrees(elevation)
    in_east = np.degrees(azimuth) < 180.0
    blocked = np.where(
        in_east,
        elevation_deg < cfg.horizon_east_deg,
        elevation_deg < cfg.horizon_west_deg,
    )
    beam_on_panel = np.where(blocked, 0.0, beam_on_panel)

    irradiance = beam_on_panel + diffuse
    if weather is not None:
        irradiance = irradiance * weather.transmittance(site.location, times)

    # reference irradiance 1000 W/m^2 defines nameplate capacity
    power = cfg.capacity_w * _DERATE * irradiance / 1000.0
    power = np.minimum(power, cfg.capacity_w)
    power = np.where(elevation > 0.0, power, 0.0)
    if cfg.noise_w > 0:
        power = power + rng.normal(0.0, cfg.noise_w, n) * (power > 0)
    return PowerTrace(np.maximum(power, 0.0), period_s, start_s, "W")


def fig5_sites(rng: np.random.Generator | int | None = None) -> list[SolarSite]:
    """Ten solar sites "in different states" for the Fig. 5 experiment.

    Most are well-behaved south-facing arrays; a few have skewed azimuths or
    horizon obstructions, reproducing the sites where SunSpot's solar
    signature is biased (its Fig. 5 outliers) while Weatherman still
    localizes them.
    """
    rng = np.random.default_rng(rng if rng is not None else 5)
    locations = [
        LatLon(42.39, -72.53),   # Massachusetts
        LatLon(40.01, -105.27),  # Colorado
        LatLon(30.27, -97.74),   # Texas
        LatLon(47.61, -122.33),  # Washington
        LatLon(33.45, -112.07),  # Arizona
        LatLon(41.88, -87.63),   # Illinois
        LatLon(35.78, -78.64),   # North Carolina
        LatLon(44.98, -93.27),   # Minnesota
        LatLon(36.17, -115.14),  # Nevada
        LatLon(28.54, -81.38),   # Florida
    ]
    sites = []
    for i, loc in enumerate(locations):
        # jitter so sites do not sit exactly on weather-station lattice points
        loc = LatLon(
            loc.lat + float(rng.uniform(-0.3, 0.3)),
            loc.lon + float(rng.uniform(-0.3, 0.3)),
        )
        if i in (3, 7):  # the hard sites: skewed panels and blocked horizons
            array = PVArrayConfig(
                capacity_w=float(rng.uniform(4000, 9000)),
                azimuth_deg=float(rng.choice([115.0, 245.0])),
                tilt_deg=35.0,
                horizon_east_deg=float(rng.uniform(8.0, 14.0)),
                horizon_west_deg=float(rng.uniform(0.0, 4.0)),
            )
        else:
            array = PVArrayConfig(
                capacity_w=float(rng.uniform(4000, 9000)),
                azimuth_deg=float(rng.uniform(172.0, 188.0)),
                tilt_deg=float(rng.uniform(20.0, 35.0)),
            )
        sites.append(SolarSite(f"site-{i + 1:02d}", loc, array))
    return sites
