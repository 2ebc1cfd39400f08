"""Behavioral profiling: what disaggregated energy data says about people.

Sec. II-A enumerates the inferences NILM output enables: "whether users
like to eat out and when", "do users eat frozen dinners or prepare fresh
meals" (microwave vs cooktop), "what days of the week do the users do
their laundry", "do they watch a lot of TV", "what time do the occupants go
to bed".  This module turns per-appliance traces (from any NILM backend or
from ground truth) into exactly that behavioral profile — the demonstration
that the privacy harm is concrete, not hypothetical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..timeseries import (
    BinaryTrace,
    PowerTrace,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    TraceError,
)

_ON_THRESHOLD_FRACTION = 0.3


def _on_mask(trace: PowerTrace) -> np.ndarray:
    peak = trace.max()
    if peak <= 0:
        return np.zeros(len(trace), dtype=bool)
    return trace.values > _ON_THRESHOLD_FRACTION * peak


def usage_events_per_day(trace: PowerTrace) -> float:
    """Mean number of distinct on-runs per day."""
    mask = _on_mask(trace)
    starts = int(np.sum(mask[1:] & ~mask[:-1]) + (1 if mask[0] else 0))
    n_days = max(1, trace.duration_s / SECONDS_PER_DAY)
    return starts / n_days


def usage_hours_histogram(trace: PowerTrace) -> np.ndarray:
    """Fraction of the device's on-time falling in each hour-of-day bin."""
    mask = _on_mask(trace)
    hours = trace.hours_of_day()[mask].astype(int)
    counts = np.bincount(hours, minlength=24).astype(float)
    total = counts.sum()
    return counts / total if total > 0 else counts


def active_days_of_week(trace: PowerTrace) -> list[int]:
    """Days of the week (0 = epoch day 0's weekday) the device is used:
    it started at least once on that weekday in at least half the weeks.

    "What days of the week do the users do their laundry?"
    """
    mask = _on_mask(trace)
    day_index = (trace.times() // SECONDS_PER_DAY).astype(int)
    events_per_weekday = np.zeros(7)
    weeks_per_weekday = np.zeros(7)
    for day in range(int(day_index.max()) + 1):
        weekday = day % 7
        weeks_per_weekday[weekday] += 1
        day_mask = mask[day_index == day]
        if len(day_mask):
            starts = int(np.sum(day_mask[1:] & ~day_mask[:-1]) + (1 if day_mask[0] else 0))
            if starts >= 1:
                events_per_weekday[weekday] += 1
    active = []
    for weekday in range(7):
        if weeks_per_weekday[weekday] and (
            events_per_weekday[weekday] / weeks_per_weekday[weekday] >= 0.5
        ):
            active.append(weekday)
    return active


@dataclass(frozen=True)
class MealProfile:
    """Cooking behaviour inferred from kitchen appliances."""

    microwave_meals_per_day: float
    cooktop_meals_per_day: float
    eats_out_days_fraction: float

    @property
    def prefers_frozen_dinners(self) -> bool:
        """Microwave-dominated cooking (Sec. II-A's "frozen dinners")."""
        return self.microwave_meals_per_day > 1.5 * self.cooktop_meals_per_day


def meal_profile(
    microwave: PowerTrace | None, cooktop: PowerTrace | None
) -> MealProfile:
    """Infer cooking style; either appliance may be absent (None)."""
    if microwave is None and cooktop is None:
        raise ValueError("need at least one kitchen appliance trace")
    mw_rate = usage_events_per_day(microwave) if microwave is not None else 0.0
    ct_rate = usage_events_per_day(cooktop) if cooktop is not None else 0.0

    # a day with no evening cooking events at all suggests eating out.
    # Windows are anchored at the trace's own clock (``start_s``), not the
    # epoch: ``slice_time`` takes absolute times, so an epoch-anchored
    # window never overlaps a trace recorded later than day zero and every
    # day would wrongly count as eaten-out.
    reference = microwave if microwave is not None else cooktop
    n_days = max(1, int(reference.duration_s // SECONDS_PER_DAY))
    evenings = 0
    days_without_dinner = 0
    for day in range(n_days):
        t0 = reference.start_s + day * SECONDS_PER_DAY + 17 * SECONDS_PER_HOUR
        t1 = reference.start_s + day * SECONDS_PER_DAY + 21 * SECONDS_PER_HOUR
        cooked = False
        seen = False
        for trace in (microwave, cooktop):
            if trace is None:
                continue
            try:
                segment = trace.slice_time(t0, t1)
            except TraceError:
                # this trace simply doesn't cover the evening window
                continue
            seen = True
            if _on_mask(segment).any():
                cooked = True
        if not seen:
            continue
        evenings += 1
        if not cooked:
            days_without_dinner += 1
    return MealProfile(
        microwave_meals_per_day=mw_rate,
        cooktop_meals_per_day=ct_rate,
        eats_out_days_fraction=(
            days_without_dinner / evenings if evenings else 0.0
        ),
    )


def estimated_bedtime_hour(
    occupancy: BinaryTrace, lighting: PowerTrace | None = None
) -> float:
    """Median hour at which evening activity ceases.

    Uses the lighting trace when available (lights-out is the sharpest
    bedtime marker); otherwise falls back to the last occupied-and-active
    evening hour.
    """
    if lighting is not None:
        mask = _on_mask(lighting)
        hours = lighting.hours_of_day()
        n_days = max(1, int(lighting.duration_s // SECONDS_PER_DAY))
        day_idx = (lighting.times() // SECONDS_PER_DAY).astype(int)
    else:
        mask = occupancy.values.astype(bool)
        hours = (occupancy.times() % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        n_days = max(1, int(occupancy.duration_s // SECONDS_PER_DAY))
        day_idx = (occupancy.times() // SECONDS_PER_DAY).astype(int)
    bedtimes = []
    for day in range(n_days):
        in_day = day_idx == day
        evening = in_day & (hours >= 19.0) & mask
        if evening.any():
            bedtimes.append(hours[evening].max())
    if not bedtimes:
        raise ValueError("no evening activity found")
    return float(np.median(bedtimes))


@dataclass(frozen=True)
class HouseholdProfile:
    """The full Sec. II-A behavioral dossier."""

    meals: MealProfile | None
    laundry_weekdays: list[int]
    tv_hours_per_day: float
    bedtime_hour: float
    occupied_fraction: float
    appliance_event_rates: dict[str, float] = field(default_factory=dict)


def build_profile(
    appliance_traces: dict[str, PowerTrace],
    occupancy: BinaryTrace,
) -> HouseholdProfile:
    """Assemble a behavioral profile from disaggregated appliance traces."""
    if not appliance_traces:
        raise ValueError("need at least one appliance trace")
    microwave = appliance_traces.get("microwave")
    cooktop = appliance_traces.get("cooktop")
    meals = None
    if microwave is not None or cooktop is not None:
        meals = meal_profile(microwave, cooktop)

    laundry: list[int] = []
    for name in ("washer", "dryer"):
        if name in appliance_traces:
            laundry = sorted(set(laundry) | set(active_days_of_week(appliance_traces[name])))

    tv_hours = 0.0
    if "tv" in appliance_traces:
        tv = appliance_traces["tv"]
        n_days = max(1.0, tv.duration_s / SECONDS_PER_DAY)
        tv_hours = float(_on_mask(tv).sum() * tv.period_s / SECONDS_PER_HOUR / n_days)

    return HouseholdProfile(
        meals=meals,
        laundry_weekdays=laundry,
        tv_hours_per_day=tv_hours,
        bedtime_hour=estimated_bedtime_hour(occupancy, appliance_traces.get("lighting")),
        occupied_fraction=occupancy.fraction_true(),
        appliance_event_rates={
            name: usage_events_per_day(trace)
            for name, trace in appliance_traces.items()
        },
    )
