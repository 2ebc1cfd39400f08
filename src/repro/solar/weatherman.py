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


#: Days in the moving clear-sky envelope window (+/-15 days).
_ENVELOPE_WINDOW_DAYS = 31
#: Slots whose envelope is below this share of its peak carry no weather.
_MIN_ENVELOPE_FRACTION = 0.3


def cloud_proxy_from_generation(generation: PowerTrace) -> CloudProxy:
    """Infer per-hour cloudiness without knowing the site's location.

    The clear-sky envelope at each (day, hour-of-day) slot is the maximum
    generation observed at that hour within a +/-15-day window — some
    nearby day will be clear, and a *local* window is essential because
    clear-sky output drifts with the season (a year-global envelope would
    make every clear winter noon look 60% overcast).  The ratio of actual
    to envelope estimates transmittance; one minus that is the cloud
    proxy.  Slots whose local envelope is under 30% of its peak (night,
    dawn, dusk) are excluded — they carry geometry, not weather.
    """
    from scipy.ndimage import maximum_filter1d

    hourly = generation.resample(SECONDS_PER_HOUR, reducer="mean")
    n_per_day = int(SECONDS_PER_DAY // SECONDS_PER_HOUR)
    n_days = len(hourly) // n_per_day
    if n_days < MIN_DAYS:
        raise ValueError(f"need at least {MIN_DAYS} whole days of data, got {n_days}")
    grid = hourly.values[: n_days * n_per_day].reshape(n_days, n_per_day)
    envelope = maximum_filter1d(grid, size=_ENVELOPE_WINDOW_DAYS, axis=0, mode="nearest")
    peak = envelope.max()
    if peak <= 0:
        raise ValueError("generation trace is all zero")
    usable = envelope > _MIN_ENVELOPE_FRACTION * peak
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


#: Stations whose correlation-weighted mean seeds the refinement.
_TOP_STATIONS = 3
#: Refinement levels, grid points per side, and the first level's half span.
_REFINE_LEVELS = 5
_REFINE_GRID = 7
_REFINE_INITIAL_SPAN_DEG = 1.0


class Weatherman:
    """The Weatherman localization attack.

    The refinement searches a 7x7 grid per level, starting 1 degree either
    way of the three best-correlated stations' weighted mean and shrinking
    2.8x per level, 5 times.
    """

    #: fewest whole days of generation a trace must span to be localized
    min_days = MIN_DAYS

    def __init__(self, stations: WeatherStationDB) -> None:
        self.stations = stations

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
        top = scored[:_TOP_STATIONS]
        weights = np.asarray([max(c, 0.0) ** 2 for c, _ in top])
        if weights.sum() > 0:
            lat = float(sum(w * p.lat for w, (_, p) in zip(weights, top)) / weights.sum())
            lon = float(sum(w * p.lon for w, (_, p) in zip(weights, top)) / weights.sum())
            center = LatLon(lat, lon)
        else:
            center = best_loc

        # stage 2: hierarchical refinement against the weather API
        best = (self._score(proxy, center), center)
        half_span = _REFINE_INITIAL_SPAN_DEG
        for _level in range(_REFINE_LEVELS):
            lats = np.linspace(center.lat - half_span, center.lat + half_span, _REFINE_GRID)
            lons = np.linspace(center.lon - half_span, center.lon + half_span, _REFINE_GRID)
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
