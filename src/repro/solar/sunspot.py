"""SunSpot: localizing a solar array from its generation trace alone.

Reproduces the attack of Chen et al. (BuildSys'16, ref. [4]) described in
Sec. II-B: the times at which panels start and stop generating encode
sunrise and sunset, which are a deterministic function of latitude and
longitude.  The attack extracts apparent sunrise/sunset per day from the
trace and then searches for the (lat, lon) whose astronomical
sunrise/sunset best matches them across many days.

Panels do not produce exactly at astronomical sunrise — there is a turn-on
threshold and low-sun attenuation — so the fit includes two nuisance
parameters of a physical dawn model (:func:`predicted_crossings_physical`):
the turn-on irradiance threshold and the direct-beam boost a tilted panel
gets in winter.  Sites with skewed panel azimuth or obstructed horizons
violate the east/west symmetry this model assumes, which biases the
estimate; those are the high-error sites in Fig. 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..timeseries import PowerTrace, SECONDS_PER_DAY, SECONDS_PER_HOUR
from .geo import LatLon, haversine_km
from .irradiance import declination_rad, equation_of_time_minutes


@dataclass(frozen=True)
class DayObservation:
    """Apparent production start/end (UTC hours) for one trace day."""

    day_index: int
    start_utc_h: float
    end_utc_h: float


@dataclass(frozen=True)
class LocalizationResult:
    """Outcome of a localization attack."""

    estimate: LatLon
    observations_used: int
    cost: float

    def error_km(self, truth: LatLon) -> float:
        return haversine_km(self.estimate, truth)


#: Production threshold, as a share of the trace-wide peak.
_THRESHOLD_FRACTION = 0.005
#: A day whose peak is below this share of the trace-wide peak is skipped.
_MIN_DAILY_PEAK_FRACTION = 0.25
#: Consecutive samples above the threshold that count as production.
_SUSTAIN_SAMPLES = 5


def extract_day_observations(generation: PowerTrace) -> list[DayObservation]:
    """Apparent sunrise/sunset per day from a generation trace.

    A day's production start/end are the first/last runs of at least five
    consecutive samples exceeding 0.5% of the *trace-wide* peak.  Two
    details matter for accuracy:

    * the threshold must be global, not per-day — daily peaks grow from
      winter to summer, so a per-day threshold corresponds to a seasonally
      drifting turn-on elevation, which biases the latitude fit;
    * the threshold must be *low* (just above monitor noise, hence the
      sustained-run requirement).  Near the horizon a south-facing panel
      sees only diffuse light in summer (the sun rises behind the panel
      plane) but some direct beam in winter; a high threshold therefore
      compresses apparent summer day length by hours.  At a low threshold
      the crossing is diffuse-dominated year-round, and diffuse irradiance
      depends only on sun elevation.

    Heavily overcast days (peak below a quarter of the trace-wide peak) are
    discarded — their apparent sunrise says more than clouds than
    astronomy.

    Days are sliced on *local solar* boundaries, not UTC ones: for sites far
    from the prime meridian the solar day straddles the UTC date line, so a
    UTC-day slice would wrap production around midnight.  The local offset
    is estimated from the trace itself (the circular mean of
    production-weighted time of day approximates solar noon); reported
    crossing hours keep the UTC convention and may lie outside [0, 24),
    matching :func:`predicted_crossings_physical`.
    """
    trace_peak = generation.max()
    if trace_peak <= 0:
        return []

    # coarse solar-noon estimate (UTC hours) via circular mean
    hours = generation.hours_of_day()
    angles = hours / 24.0 * 2.0 * np.pi
    weights = generation.values
    noon_angle = math.atan2(
        float((weights * np.sin(angles)).sum()),
        float((weights * np.cos(angles)).sum()),
    )
    noon_utc_h = (noon_angle / (2.0 * np.pi) * 24.0) % 24.0

    period = generation.period_s
    samples_per_day = int(round(SECONDS_PER_DAY / period))
    observations: list[DayObservation] = []
    first_day = int(generation.start_s // SECONDS_PER_DAY)
    window_offset_s = (noon_utc_h - 12.0) * SECONDS_PER_HOUR
    for day in range(first_day, first_day + generation.num_days() + 1):
        w0 = day * SECONDS_PER_DAY + window_offset_s
        i0 = int(math.ceil((w0 - generation.start_s) / period))
        i1 = i0 + samples_per_day
        if i0 < 0 or i1 > len(generation):
            continue  # window not fully covered by the trace
        values = generation.values[i0:i1]
        peak = values.max()
        if peak < _MIN_DAILY_PEAK_FRACTION * trace_peak:
            continue
        above = values > _THRESHOLD_FRACTION * trace_peak
        sustained = _sustained_runs(above, _SUSTAIN_SAMPLES)
        idx = np.flatnonzero(sustained)
        if len(idx) < 10:
            continue
        base_s = generation.start_s + i0 * period - day * SECONDS_PER_DAY
        start_h = (base_s + idx[0] * period) / SECONDS_PER_HOUR
        end_h = (base_s + idx[-1] * period) / SECONDS_PER_HOUR
        observations.append(DayObservation(day, float(start_h), float(end_h)))
    return observations


#: Days per clearest-edge selection window.
_ENVELOPE_WINDOW_DAYS = 10


def envelope_edge_observations(
    observations: list[DayObservation],
) -> tuple[list[tuple[int, float]], list[tuple[int, float]]]:
    """Per-window clear-sky *edges*: earliest rise and latest set separately.

    Clouds can only delay the apparent rise and advance the apparent set,
    and a window's clearest dawn and clearest dusk usually fall on
    *different* days.  Since the location fit scores rise and set residuals
    independently, each edge can keep its own day index (staying
    astronomically consistent) — capturing a clean dawn even in windows
    with no single fully clear day.  Windows are ten days long.  Returns
    ``(rise_obs, set_obs)`` as lists of ``(day_index, utc_hour)``.
    """
    if not observations:
        return [], []
    first = observations[0].day_index
    by_window: dict[int, list[DayObservation]] = {}
    for obs in observations:
        by_window.setdefault(
            (obs.day_index - first) // _ENVELOPE_WINDOW_DAYS, []
        ).append(obs)
    rises: list[tuple[int, float]] = []
    sets: list[tuple[int, float]] = []
    for group in by_window.values():
        earliest = min(group, key=lambda o: o.start_utc_h)
        latest = max(group, key=lambda o: o.end_utc_h)
        rises.append((earliest.day_index, earliest.start_utc_h))
        sets.append((latest.day_index, latest.end_utc_h))
    rises.sort()
    sets.sort()
    return rises, sets


def _sustained_runs(mask: np.ndarray, min_run: int) -> np.ndarray:
    """True only where ``mask`` holds for at least ``min_run`` consecutive
    samples (suppresses single-sample noise spikes at dawn/dusk)."""
    if min_run <= 1:
        return mask
    out = np.zeros_like(mask)
    run_start = None
    for i, value in enumerate(mask):
        if value and run_start is None:
            run_start = i
        elif not value and run_start is not None:
            if i - run_start >= min_run:
                out[run_start:i] = True
            run_start = None
    if run_start is not None and len(mask) - run_start >= min_run:
        out[run_start:] = True
    return out


def predicted_crossings_physical(
    day_index: np.ndarray,
    lat_deg: float,
    lon_deg: float,
    threshold_c: float,
    beam_boost: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted production start/end under a physical dawn model.

    Production starts when the plane-of-array irradiance of a south-facing
    panel crosses a threshold:

        GHI(el) * (1 + B * cot(el) * max(0, -cos(az_sun))) = C

    where ``C`` (``threshold_c``, in W/m^2-equivalent units) encodes the
    monitor's turn-on threshold relative to system size and ``B``
    (``beam_boost``) the direct-beam boost a tilted south-facing panel
    receives when the sun rises south of east (winter).  This captures why
    the effective turn-on *elevation* is higher in summer (diffuse-only
    dawn) than in winter — the physics a fixed-elevation model misses.
    The crossing is solved by bisection on the hour angle, vectorized over
    days.  Returns (rise, set) UTC hours; NaN where no crossing exists.
    """
    n = (np.asarray(day_index) % 365) + 1
    lat = math.radians(lat_deg)
    dec = declination_rad(n)
    sin_lat, cos_lat = math.sin(lat), math.cos(lat)
    sin_dec, cos_dec = np.sin(dec), np.cos(dec)

    def proxy(omega: np.ndarray) -> np.ndarray:
        """Plane-of-array proxy at hour angle ``omega`` (morning side)."""
        sin_el = sin_lat * sin_dec + cos_lat * cos_dec * np.cos(omega)
        sin_el = np.clip(sin_el, -1.0, 1.0)
        el = np.arcsin(sin_el)
        cos_el = np.cos(el)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ghi = 1098.0 * np.maximum(sin_el, 0.0) * np.exp(
                -0.057 / np.maximum(sin_el, 1e-6)
            )
            cos_az = (sin_dec - sin_lat * sin_el) / np.maximum(cos_lat * cos_el, 1e-9)
            cos_az = np.clip(cos_az, -1.0, 1.0)
            cot_el = cos_el / np.maximum(sin_el, 1e-6)
            boost = 1.0 + beam_boost * cot_el * np.maximum(0.0, -cos_az)
        return np.where(sin_el > 0.0, ghi * boost, 0.0)

    # bracket: horizon hour angle (el = 0) down to el = 15 degrees
    cos_w_hor = np.clip(-np.tan(lat) * np.tan(dec), -1.0, 1.0)
    w_hor = np.arccos(cos_w_hor)
    el_hi = math.radians(15.0)
    cos_w_hi = (math.sin(el_hi) - sin_lat * sin_dec) / (cos_lat * cos_dec)
    w_hi = np.arccos(np.clip(cos_w_hi, -1.0, 1.0))
    invalid = (cos_w_hi > 1.0) | (cos_w_hi < -1.0) | (proxy(w_hi) < threshold_c)

    lo, hi = w_hi.copy(), w_hor.copy()  # proxy(lo) >= C >= proxy(hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        above = proxy(mid) >= threshold_c
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    omega_c = 0.5 * (lo + hi)

    eot_h = equation_of_time_minutes(n) / 60.0
    noon_utc = 12.0 - lon_deg / 15.0 - eot_h
    half = omega_c * 12.0 / np.pi
    rise = np.where(invalid, np.nan, noon_utc - half)
    sset = np.where(invalid, np.nan, noon_utc + half)
    return rise, sset


#: Initial search region: 30 degrees either way of the continental US's
#: middle.
_SEARCH_CENTER = LatLon(38.0, -96.0)
_SEARCH_HALF_SPAN_DEG = 30.0


class SunSpot:
    """The SunSpot localization attack.

    The search starts from a square that covers the continental US.

    Parameters
    ----------
    refine_levels:
        Hierarchical grid-search depth; each level shrinks the span 3.3x,
        so 5 levels from 25 degrees resolves to ~0.03 degrees (~3 km),
        after which a continuous Nelder-Mead polish takes over.
    threshold_candidates / beam_boost_candidates:
        Grids for the dawn-model nuisance parameters of
        :func:`predicted_crossings_physical`.
    """

    #: fewest envelope windows with a usable dawn and dusk a fit needs
    MIN_WINDOWS = 5
    #: fewest whole days a trace must span to reach :attr:`MIN_WINDOWS`
    #: envelope windows; a shorter one cannot be localized
    min_days = (MIN_WINDOWS - 1) * _ENVELOPE_WINDOW_DAYS + 1

    def __init__(
        self,
        grid_per_side: int = 9,
        refine_levels: int = 4,
        threshold_candidates: tuple[float, ...] = (5.0, 12.0, 25.0, 50.0),
        beam_boost_candidates: tuple[float, ...] = (0.0, 0.4, 0.8, 1.2, 1.6),
    ) -> None:
        if refine_levels < 1 or grid_per_side < 3:
            raise ValueError("need >=1 refine level and >=3 grid points per side")
        self.grid_per_side = grid_per_side
        self.refine_levels = refine_levels
        self.threshold_candidates = threshold_candidates
        self.beam_boost_candidates = beam_boost_candidates

    @staticmethod
    def _cost(
        edge_observations: tuple[list[tuple[int, float]], list[tuple[int, float]]],
        lat: float,
        lon: float,
        threshold_c: float,
        beam_boost: float,
    ) -> float:
        rise_obs, set_obs = edge_observations
        loss = 0.0
        # Clouds are one-sided — they can only delay the observed start and
        # advance the observed end — so residuals are scored with a pinball
        # (quantile) loss that fits the clear-sky envelope rather than the
        # cloud-shifted bulk.
        q = 0.25
        for obs, side in ((rise_obs, 0), (set_obs, 1)):
            days = np.asarray([d for d, _ in obs])
            hours = np.asarray([h for _, h in obs])
            rise, sset = predicted_crossings_physical(
                days, lat, lon, threshold_c, beam_boost
            )
            predicted = rise if side == 0 else sset
            valid = ~np.isnan(predicted)
            if valid.sum() < max(3, len(days) // 2):
                return float("inf")
            if side == 0:
                resid = hours[valid] - predicted[valid]  # >= 0 when cloud-free
            else:
                resid = predicted[valid] - hours[valid]  # >= 0 when cloud-free
            loss += float(np.where(resid >= 0.0, q * resid, (1.0 - q) * -resid).mean())
        return loss

    def localize(self, generation: PowerTrace) -> LocalizationResult:
        """Run the attack on a generation trace."""
        daily = extract_day_observations(generation)
        observations = envelope_edge_observations(daily)
        if min(len(observations[0]), len(observations[1])) < self.MIN_WINDOWS:
            raise ValueError(
                f"only {len(observations[0])} usable windows; "
                f"need at least {self.MIN_WINDOWS}"
            )
        box = _SEARCH_HALF_SPAN_DEG
        lat_lo, lat_hi = _SEARCH_CENTER.lat - box, _SEARCH_CENTER.lat + box
        lon_lo, lon_hi = _SEARCH_CENTER.lon - box, _SEARCH_CENTER.lon + box
        center = _SEARCH_CENTER
        half_span = _SEARCH_HALF_SPAN_DEG
        best = (float("inf"), center.lat, center.lon, self.threshold_candidates[0], 0.0)
        for _level in range(self.refine_levels):
            lats = np.linspace(center.lat - half_span, center.lat + half_span, self.grid_per_side)
            lons = np.linspace(center.lon - half_span, center.lon + half_span, self.grid_per_side)
            lats = np.clip(lats, max(lat_lo, -66.0), min(lat_hi, 66.0))
            lons = np.clip(lons, max(lon_lo, -179.9), min(lon_hi, 179.9))
            for lat in lats:
                for lon in lons:
                    for c in self.threshold_candidates:
                        for b in self.beam_boost_candidates:
                            cost = self._cost(observations, float(lat), float(lon), c, b)
                            if cost < best[0]:
                                best = (cost, float(lat), float(lon), c, b)
            center = LatLon(best[1], best[2])
            half_span /= 3.3
        polished = self._polish(observations, best)
        return LocalizationResult(
            estimate=LatLon(polished[1], polished[2]),
            observations_used=len(observations[0]),
            cost=polished[0],
        )

    def _polish(
        self,
        observations: tuple[list[tuple[int, float]], list[tuple[int, float]]],
        best: tuple[float, float, float, float, float],
    ) -> tuple[float, float, float]:
        """Continuous refinement of (lat, lon, C, B) around the grid optimum."""
        from scipy.optimize import minimize

        def objective(theta: np.ndarray) -> float:
            lat, lon, c, b = theta
            if not (-66.0 <= lat <= 66.0) or not (-180.0 <= lon <= 180.0):
                return 1e6
            if c <= 0.5 or b < 0.0:
                return 1e6
            return self._cost(observations, lat, lon, c, b)

        result = minimize(
            objective,
            x0=np.asarray([best[1], best[2], best[3], best[4]]),
            method="Nelder-Mead",
            options={"xatol": 1e-4, "fatol": 1e-10, "maxiter": 3000},
        )
        if result.fun < best[0]:
            return (float(result.fun), float(result.x[0]), float(result.x[1]))
        return best[:3]
