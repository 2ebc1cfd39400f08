"""Synthetic continent-scale weather: a smooth cloud-cover field.

Weatherman (Sec. II-B, ref. [5]) localizes a solar array by correlating
dips in its generation with cloud cover at candidate locations, using
publicly available weather data.  For that attack to be reproducible we
need a weather process that is (i) *spatially coherent* — nearby places see
similar skies, so correlation decays smoothly with distance, (ii) has
*fine-scale structure* — so the correlation peak is sharp enough to localize
to kilometres, and (iii) is *queryable anywhere*, like the public weather
databases the paper assumes.

The field is multi-octave value noise over (lat, lon, time): deterministic
hash noise on a lattice, smoothly interpolated, summed over three octaves
(synoptic systems ~4 deg/day, mesoscale ~0.8 deg/6 h, convective
~0.2 deg/2 h).  It is seeded, so the simulator and the "public weather
service" are guaranteed to describe the same skies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..timeseries import SECONDS_PER_HOUR
from .geo import LatLon

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _hash01(ix: np.ndarray, iy: np.ndarray, it: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic lattice hash -> uniform [0, 1) (splitmix64-style)."""
    with np.errstate(over="ignore"):
        h = (
            ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            ^ iy.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
            ^ it.astype(np.uint64) * np.uint64(0x165667B19E3779F9)
            ^ np.uint64(seed)
        )
        h ^= h >> np.uint64(30)
        h *= _MIX1
        h ^= h >> np.uint64(27)
        h *= _MIX2
        h ^= h >> np.uint64(31)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _smoothstep(x: np.ndarray) -> np.ndarray:
    return x * x * (3.0 - 2.0 * x)


def _value_noise(
    x: np.ndarray, y: np.ndarray, t: np.ndarray, seed: int
) -> np.ndarray:
    """Trilinearly interpolated hash noise at continuous lattice coords."""
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    t0 = np.floor(t).astype(np.int64)
    fx = _smoothstep(x - x0)
    fy = _smoothstep(y - y0)
    ft = _smoothstep(t - t0)

    def corner(dx: int, dy: int, dt: int) -> np.ndarray:
        return _hash01(
            (x0 + dx).astype(np.uint64),
            (y0 + dy).astype(np.uint64),
            (t0 + dt).astype(np.uint64),
            seed,
        )

    c000, c100 = corner(0, 0, 0), corner(1, 0, 0)
    c010, c110 = corner(0, 1, 0), corner(1, 1, 0)
    c001, c101 = corner(0, 0, 1), corner(1, 0, 1)
    c011, c111 = corner(0, 1, 1), corner(1, 1, 1)
    x00 = c000 + (c100 - c000) * fx
    x10 = c010 + (c110 - c010) * fx
    x01 = c001 + (c101 - c001) * fx
    x11 = c011 + (c111 - c011) * fx
    y0v = x00 + (x10 - x00) * fy
    y1v = x01 + (x11 - x01) * fy
    return y0v + (y1v - y0v) * ft


@dataclass(frozen=True)
class Octave:
    """One spatial/temporal scale of cloud structure."""

    space_deg: float
    time_hours: float
    weight: float
    # eastward advection: weather moves, which decorrelates time at a point
    drift_deg_per_hour: float = 0.0


_OCTAVES = (
    Octave(space_deg=5.0, time_hours=30.0, weight=0.55, drift_deg_per_hour=0.25),
    Octave(space_deg=0.9, time_hours=7.0, weight=0.30, drift_deg_per_hour=0.12),
    Octave(space_deg=0.18, time_hours=2.0, weight=0.15, drift_deg_per_hour=0.0),
)
_MEAN_CLOUD = 0.45
_AMPLITUDE = 1.3
# Real sky cover is bimodal — hours are mostly either clear or overcast,
# not permanently 40% cloudy.  The contrast gain saturates the smooth
# noise field at both ends, producing clear spells and overcast spells;
# without it, generation is barely modulated and the weather-signature
# attack has nothing to correlate against.
_CONTRAST = 2.2
# A *static* very-low-frequency component of mean cloudiness: real
# climates differ by region (the US Southwest is far drier than the
# Pacific Northwest), which both modulates how often a solar site sees
# clear days and gives Weatherman a coarse regional signal, as in the real
# datasets.
_REGIONAL_WEIGHT = 0.35
_REGIONAL_SPACE_DEG = 14.0


class WeatherField:
    """The ground-truth sky: cloud cover anywhere, any time, in [0, 1].

    ``seed`` picks the sky; a simulator and a weather station network
    built on the same seed describe the same weather.
    """

    def __init__(self, seed: int = 2018) -> None:
        self.seed = seed

    def cloud_cover(self, site: LatLon, times_s: np.ndarray) -> np.ndarray:
        """Cloud-cover fraction at ``site`` for each UTC timestamp."""
        times_s = np.asarray(times_s, dtype=float)
        total = np.zeros_like(times_s)
        hours = times_s / SECONDS_PER_HOUR
        for i, octave in enumerate(_OCTAVES):
            lon_drifted = site.lon + octave.drift_deg_per_hour * hours
            x = lon_drifted / octave.space_deg
            y = np.full_like(times_s, site.lat / octave.space_deg)
            t = hours / octave.time_hours
            total += octave.weight * (
                _value_noise(x, y, t, self.seed + 101 * i) - 0.5
            )
        regional = _value_noise(
            np.asarray([site.lon / _REGIONAL_SPACE_DEG]),
            np.asarray([site.lat / _REGIONAL_SPACE_DEG]),
            np.asarray([0.0]),
            self.seed + 7777,
        )[0]
        mean = _MEAN_CLOUD + _REGIONAL_WEIGHT * (regional - 0.5)
        raw = mean + _AMPLITUDE * total
        cloud = 0.5 + _CONTRAST * (raw - 0.5)
        return np.clip(cloud, 0.0, 1.0)

    def transmittance(self, site: LatLon, times_s: np.ndarray) -> np.ndarray:
        """Fraction of clear-sky irradiance that reaches the ground.

        The standard cloud-cover attenuation: heavy overcast still passes
        ~15% diffuse light (Kasten-Czeplak form).
        """
        cloud = self.cloud_cover(site, times_s)
        return 1.0 - 0.75 * cloud**3.4


@dataclass(frozen=True)
class WeatherStation:
    """A named public weather station reporting hourly cloud cover."""

    station_id: str
    location: LatLon


class WeatherStationDB:
    """The attacker's view of the weather: a public station network.

    Stations sit on a regular grid; :meth:`readings` returns a station's
    hourly cloud series.  :meth:`cloud_at` exposes the interpolating "public
    weather API" Weatherman's refinement stage uses (the paper assumes
    "detailed weather data is publicly available throughout the world").
    """

    def __init__(
        self,
        field: WeatherField,
        lat_range: tuple[float, float] = (25.0, 49.0),
        lon_range: tuple[float, float] = (-124.0, -67.0),
        spacing_deg: float = 1.0,
    ) -> None:
        if spacing_deg <= 0:
            raise ValueError("spacing must be positive")
        self.field = field
        self.stations: list[WeatherStation] = []
        lats = np.arange(lat_range[0], lat_range[1] + 1e-9, spacing_deg)
        lons = np.arange(lon_range[0], lon_range[1] + 1e-9, spacing_deg)
        for lat in lats:
            for lon in lons:
                sid = f"ST{lat:+06.1f}{lon:+07.1f}"
                self.stations.append(WeatherStation(sid, LatLon(float(lat), float(lon))))

    def __len__(self) -> int:
        return len(self.stations)

    def readings(self, station: WeatherStation, times_s: np.ndarray) -> np.ndarray:
        return self.field.cloud_cover(station.location, times_s)

    def cloud_at(self, point: LatLon, times_s: np.ndarray) -> np.ndarray:
        return self.field.cloud_cover(point, times_s)
