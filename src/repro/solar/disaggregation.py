"""SunDance-style black-box solar disaggregation of net-meter data.

Sec. II-B: utilities see only *net* meter data (consumption minus solar
generation), and anonymize it before sharing.  SunDance (ref. [21]) shows
the split can be recovered: solar generation has a rigid structure (a
clear-sky envelope shaped by astronomy, modulated by weather), so the
negative, sun-shaped component of net data can be separated from the
positive, human-shaped load.  The recovered consumption is then open to
NIOM/NILM, and the recovered generation to SunSpot/Weatherman — the chained
privacy attack the paper warns about.

The algorithm here follows SunDance's black-box recipe:

1. estimate the night-time base load from samples where the sun is
   certainly down (the envelope of generation is zero there);
2. estimate the site's *clear-sky generation envelope* per time-of-day as
   the largest (base load - net) ever observed at that slot — some day was
   clear;
3. per sample, estimate transmittance either from a weather service (if
   the site was first localized) or from the day's own generation deficit,
   and multiply it into the envelope;
4. consumption = net + estimated generation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..timeseries import PowerTrace, SECONDS_PER_DAY
from .geo import LatLon
from .weather import WeatherStationDB


@dataclass(frozen=True)
class DisaggregationEstimate:
    """Recovered generation/consumption split of a net-meter trace."""

    generation: PowerTrace
    consumption: PowerTrace
    envelope_w: np.ndarray  # clear-sky generation by time-of-day slot
    base_load_w: float


#: Quantile of (base - net) taken as the clear-sky envelope: slightly
#: below 1 for robustness to spikes.
_ENVELOPE_QUANTILE = 0.98
#: Width of the moving average over the envelope's time-of-day slots.
_SMOOTHING_SLOTS = 3


class SunDance:
    """Black-box net-meter disaggregator.

    Parameters
    ----------
    location / weather:
        Optional: if the site has been localized (e.g. by Weatherman) and a
        public weather service is available, per-sample transmittance comes
        from the weather; otherwise it is inferred from the trace itself.
    """

    def __init__(
        self,
        location: LatLon | None = None,
        weather: WeatherStationDB | None = None,
    ) -> None:
        if (location is None) != (weather is None):
            raise ValueError("location and weather must be provided together")
        self.location = location
        self.weather = weather

    def disaggregate(self, net: PowerTrace) -> DisaggregationEstimate:
        slots_per_day = int(round(SECONDS_PER_DAY / net.period_s))
        n_days = len(net) // slots_per_day
        if n_days < 7:
            raise ValueError(f"need at least 7 whole days of net data, got {n_days}")
        grid = net.values[: n_days * slots_per_day].reshape(n_days, slots_per_day)

        # 1. night base load: median net over the slots where net is never
        #    much below its own median (i.e. no solar ever subtracts there)
        slot_min = grid.min(axis=0)
        overall_median = float(np.median(grid))
        night_slots = slot_min > overall_median - 0.1 * max(abs(overall_median), 100.0)
        if night_slots.sum() < slots_per_day // 8:
            # fall back: darkest sixth of the day by slot minimum
            order = np.argsort(slot_min)[::-1]
            night_slots = np.zeros(slots_per_day, dtype=bool)
            night_slots[order[: slots_per_day // 6]] = True
        base_load = float(np.median(grid[:, night_slots]))

        # 2. clear-sky envelope per slot
        deficit = base_load - grid  # positive where solar pushes net down
        envelope = np.quantile(deficit, _ENVELOPE_QUANTILE, axis=0)
        envelope = np.maximum(envelope, 0.0)
        kernel = np.ones(_SMOOTHING_SLOTS) / _SMOOTHING_SLOTS
        envelope = np.convolve(envelope, kernel, mode="same")

        # 3. per-sample transmittance
        n_used = n_days * slots_per_day
        slot_idx = np.tile(np.arange(slots_per_day), n_days)
        env_t = envelope[slot_idx]
        times = net.times()[:n_used]
        if self.weather is not None and self.location is not None:
            cloud = self.weather.cloud_at(self.location, times)
            transmittance = 1.0 - 0.75 * cloud**3.4
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                raw = (base_load - net.values[:n_used]) / np.maximum(env_t, 1.0)
            transmittance = np.clip(raw, 0.0, 1.0)
            # weather varies slowly relative to appliance events: smooth it so
            # load spikes do not masquerade as passing clouds
            window = max(1, int(1800.0 / net.period_s))
            kernel = np.ones(window) / window
            transmittance = np.convolve(transmittance, kernel, mode="same")

        generation = env_t * transmittance
        generation[env_t <= 0.0] = 0.0

        gen_trace = PowerTrace(generation, net.period_s, net.start_s, "W")
        consumption = net.values[:n_used] + generation
        cons_trace = PowerTrace(
            np.maximum(consumption, 0.0), net.period_s, net.start_s, "W"
        )
        return DisaggregationEstimate(
            generation=gen_trace,
            consumption=cons_trace,
            envelope_w=envelope,
            base_load_w=base_load,
        )
