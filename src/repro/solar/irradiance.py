"""Solar geometry: declination, equation of time, sun position, irradiance.

This is the astronomy that makes SunSpot (Sec. II-B) work: sunrise and
sunset times at a site are a deterministic function of its latitude and
longitude (plus the date), so a generation trace that reveals when panels
start and stop producing reveals where they are.  The same formulas are used
by the PV simulator (forward direction) and the SunSpot attack (inverse
direction), which is legitimate — they are public astronomy, not shared
simulator state.

Conventions: simulation epoch day 0 is January 1st; trace timestamps are
UTC seconds since the epoch; solar formulas use the day-of-year.  The
Spencer (1971) Fourier expansions are used for declination and the equation
of time.
"""

from __future__ import annotations

import math

import numpy as np

from ..timeseries import SECONDS_PER_DAY, SECONDS_PER_HOUR

SOLAR_CONSTANT_W_M2 = 1361.0


def day_of_year(time_s: np.ndarray | float) -> np.ndarray:
    """Day-of-year (1-based, wrapping after 365) for epoch timestamps."""
    day_index = np.floor(np.asarray(time_s, dtype=float) / SECONDS_PER_DAY)
    return (day_index % 365) + 1


def _day_angle(n: np.ndarray) -> np.ndarray:
    return 2.0 * np.pi * (n - 1) / 365.0


def declination_rad(n: np.ndarray | float) -> np.ndarray:
    """Solar declination (radians) by Spencer's Fourier series."""
    g = _day_angle(np.asarray(n, dtype=float))
    return (
        0.006918
        - 0.399912 * np.cos(g)
        + 0.070257 * np.sin(g)
        - 0.006758 * np.cos(2 * g)
        + 0.000907 * np.sin(2 * g)
        - 0.002697 * np.cos(3 * g)
        + 0.00148 * np.sin(3 * g)
    )


def equation_of_time_minutes(n: np.ndarray | float) -> np.ndarray:
    """Equation of time (minutes, apparent minus mean solar time)."""
    g = _day_angle(np.asarray(n, dtype=float))
    return 229.18 * (
        0.000075
        + 0.001868 * np.cos(g)
        - 0.032077 * np.sin(g)
        - 0.014615 * np.cos(2 * g)
        - 0.040849 * np.sin(2 * g)
    )


def solar_time_hours(time_s: np.ndarray, lon_deg: float) -> np.ndarray:
    """Apparent solar time (hours) at longitude ``lon_deg`` for UTC times."""
    time_s = np.asarray(time_s, dtype=float)
    utc_hours = (time_s % SECONDS_PER_DAY) / SECONDS_PER_HOUR
    n = day_of_year(time_s)
    eot_h = equation_of_time_minutes(n) / 60.0
    return (utc_hours + lon_deg / 15.0 + eot_h) % 24.0


def hour_angle_rad(time_s: np.ndarray, lon_deg: float) -> np.ndarray:
    """Hour angle (radians): zero at solar noon, positive in the afternoon."""
    return (solar_time_hours(time_s, lon_deg) - 12.0) * np.pi / 12.0


def sun_position(
    time_s: np.ndarray, lat_deg: float, lon_deg: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sun (elevation, azimuth) in radians at the given UTC times.

    Azimuth is measured from north, clockwise (east = pi/2).
    """
    time_s = np.asarray(time_s, dtype=float)
    lat = math.radians(lat_deg)
    dec = declination_rad(day_of_year(time_s))
    ha = hour_angle_rad(time_s, lon_deg)
    sin_el = np.sin(lat) * np.sin(dec) + np.cos(lat) * np.cos(dec) * np.cos(ha)
    sin_el = np.clip(sin_el, -1.0, 1.0)
    el = np.arcsin(sin_el)
    cos_el = np.cos(el)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_az = (np.sin(dec) - np.sin(lat) * sin_el) / np.maximum(
            np.cos(lat) * cos_el, 1e-9
        )
    az = np.arccos(np.clip(cos_az, -1.0, 1.0))
    az = np.where(ha > 0, 2.0 * np.pi - az, az)  # afternoon sun is in the west
    return el, az


def clearsky_ghi_w_m2(elevation_rad: np.ndarray) -> np.ndarray:
    """Clear-sky global horizontal irradiance from sun elevation.

    The Haurwitz-style empirical model: GHI = 1098 sin(el) exp(-0.057/sin(el)),
    a good continental average without needing an atmosphere simulation.
    """
    sin_el = np.maximum(np.sin(np.asarray(elevation_rad, dtype=float)), 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        ghi = 1098.0 * sin_el * np.exp(-0.057 / np.maximum(sin_el, 1e-6))
    return np.where(sin_el > 0.0, ghi, 0.0)
