"""Weatherman: localizing a solar array via its weather signature.

Reproduces Chen & Irwin (BigData'17, ref. [5]), Sec. II-B: cloud cover is
location-specific and public, so the *pattern of generation dips* at a site
correlates most strongly with the weather at the site's true location.
Works on much coarser data than SunSpot (Fig. 5 uses 1-hour data) and is
robust to panel orientation and horizon effects, because it matches
weather-driven *changes* rather than the absolute solar geometry.

Two stages:

1. **Station scan** — correlate the site's cloudiness proxy against every
   public weather station's hourly series; the best station puts the site
   within one grid cell.
2. **Refinement** — hierarchical grid search around that station using the
   interpolating public weather API, sharpening the estimate to kilometres.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..timeseries import PowerTrace, SECONDS_PER_DAY, SECONDS_PER_HOUR
from .geo import LatLon
from .sunspot import LocalizationResult
from .weather import WeatherStationDB

#: fewest whole days of hourly generation the cloud proxy works from
MIN_DAYS = 10


@dataclass(frozen=True)
class CloudProxy:
    """The site's inferred cloudiness series on an hourly clock."""

    times_s: np.ndarray
    values: np.ndarray  # in [0, 1]: 0 = clear, 1 = fully attenuated


def cloud_proxy_from_generation(
    generation: PowerTrace,
    min_envelope_fraction: float = 0.3,
    envelope_window_days: int = 31,
) -> CloudProxy:
    """Infer per-hour cloudiness without knowing the site's location.

    The clear-sky envelope at each (day, hour-of-day) slot is the maximum
    generation observed at that hour within a +/-15-day window — some
    nearby day will be clear, and a *local* window is essential because
    clear-sky output drifts with the season (a year-global envelope would
    make every clear winter noon look 60% overcast).  The ratio of actual
    to envelope estimates transmittance; one minus that is the cloud
    proxy.  Slots whose local envelope is small (night, dawn, dusk) are
    excluded — they carry geometry, not weather.
    """
    from scipy.ndimage import maximum_filter1d

    hourly = generation.resample(SECONDS_PER_HOUR, reducer="mean")
    n_per_day = int(SECONDS_PER_DAY // SECONDS_PER_HOUR)
    n_days = len(hourly) // n_per_day
    if n_days < MIN_DAYS:
        raise ValueError(f"need at least {MIN_DAYS} whole days of data, got {n_days}")
    grid = hourly.values[: n_days * n_per_day].reshape(n_days, n_per_day)
    envelope = maximum_filter1d(grid, size=envelope_window_days, axis=0, mode="nearest")
    peak = envelope.max()
    if peak <= 0:
        raise ValueError("generation trace is all zero")
    usable = envelope > min_envelope_fraction * peak
    ratio = np.clip(grid[usable] / envelope[usable], 0.0, 1.0)
    times = hourly.times()[: n_days * n_per_day].reshape(n_days, n_per_day)
    return CloudProxy(
        times_s=times[usable].ravel(),
        values=(1.0 - ratio).ravel(),
    )


def _weather_attenuation(cloud: np.ndarray) -> np.ndarray:
    """Map cloud cover to the attenuation a PV panel experiences.

    Must be monotone in cloud cover; using the same Kasten-Czeplak form as
    the simulator is fair because it is a published empirical law, not a
    simulator secret.
    """
    return 0.75 * np.asarray(cloud) ** 3.4


def _correlation(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) < 3:
        return -1.0
    sa, sb = a.std(), b.std()
    if sa < 1e-12 or sb < 1e-12:
        return -1.0
    return float(np.corrcoef(a, b)[0, 1])


class Weatherman:
    """The Weatherman localization attack."""

    #: fewest whole days of generation a trace must span to be localized
    min_days = MIN_DAYS

    def __init__(
        self,
        stations: WeatherStationDB,
        refine_levels: int = 5,
        refine_grid: int = 7,
        refine_initial_span_deg: float = 1.0,
        top_stations: int = 3,
    ) -> None:
        if refine_levels < 0 or refine_grid < 3:
            raise ValueError("invalid refinement parameters")
        self.stations = stations
        self.refine_levels = refine_levels
        self.refine_grid = refine_grid
        self.refine_initial_span_deg = refine_initial_span_deg
        self.top_stations = top_stations

    def _score(self, proxy: CloudProxy, point: LatLon) -> float:
        cloud = self.stations.cloud_at(point, proxy.times_s)
        return _correlation(proxy.values, _weather_attenuation(cloud))

    def localize(self, generation: PowerTrace) -> LocalizationResult:
        """Run the attack on (typically 1-hour) generation data."""
        proxy = cloud_proxy_from_generation(generation)

        # stage 1: scan the public station network
        scored: list[tuple[float, LatLon]] = []
        for station in self.stations.stations:
            cloud = self.stations.readings(station, proxy.times_s)
            corr = _correlation(proxy.values, _weather_attenuation(cloud))
            scored.append((corr, station.location))
        scored.sort(key=lambda pair: pair[0], reverse=True)
        best_corr, best_loc = scored[0]
        if best_corr <= 0.0:
            raise ValueError("no station correlates with the generation trace")

        # seed refinement from the correlation-weighted top stations
        top = scored[: self.top_stations]
        weights = np.asarray([max(c, 0.0) ** 2 for c, _ in top])
        if weights.sum() > 0:
            lat = float(sum(w * p.lat for w, (_, p) in zip(weights, top)) / weights.sum())
            lon = float(sum(w * p.lon for w, (_, p) in zip(weights, top)) / weights.sum())
            center = LatLon(lat, lon)
        else:
            center = best_loc

        # stage 2: hierarchical refinement against the weather API
        best = (self._score(proxy, center), center)
        half_span = self.refine_initial_span_deg
        for _level in range(self.refine_levels):
            lats = np.linspace(center.lat - half_span, center.lat + half_span, self.refine_grid)
            lons = np.linspace(center.lon - half_span, center.lon + half_span, self.refine_grid)
            for lat in lats:
                for lon in lons:
                    point = LatLon(float(np.clip(lat, -89.9, 89.9)), float(np.clip(lon, -179.9, 179.9)))
                    score = self._score(proxy, point)
                    if score > best[0]:
                        best = (score, point)
            center = best[1]
            half_span /= 2.8
        return LocalizationResult(
            estimate=best[1],
            observations_used=len(proxy.values),
            cost=-best[0],
        )
