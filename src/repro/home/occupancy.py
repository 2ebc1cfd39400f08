"""Occupant behavior simulation: ground-truth occupancy schedules.

Produces the binary home/away series that (a) gates interactive appliance
use in the household simulator and (b) serves as ground truth when scoring
NIOM attacks (Figs. 1 and 6) and defenses.

The model is a per-occupant daily schedule: on workdays an occupant leaves
in the morning and returns in the evening (with per-day Gaussian jitter);
on non-workdays they are mostly home with random outings; whole-home
vacations remove everyone for multiple days.  Home-level occupancy is the
OR over occupants, matching the paper's definition ("one indicates at least
one occupant is present").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..timeseries import BinaryTrace, SECONDS_PER_DAY, SECONDS_PER_HOUR


@dataclass(frozen=True)
class OccupantProfile:
    """One occupant's schedule tendencies.

    All hours are local hours-of-day; stds are in hours.
    """

    leave_hour: float = 8.0
    leave_std: float = 0.5
    return_hour: float = 17.5
    return_std: float = 0.75
    workday_probability: float = 0.72  # 5/7 plus occasional days off/workdays
    outing_rate_per_offday: float = 1.5
    outing_hours: tuple[float, float] = (0.5, 3.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.workday_probability <= 1.0:
            raise ValueError("workday_probability must be in [0, 1]")
        if not 0.0 <= self.leave_hour < 24.0 or not 0.0 <= self.return_hour < 24.0:
            raise ValueError("hours must be in [0, 24)")
        if self.return_hour <= self.leave_hour:
            raise ValueError("return_hour must be after leave_hour")
        lo, hi = self.outing_hours
        if lo <= 0 or hi < lo:
            raise ValueError("invalid outing_hours")


@dataclass(frozen=True)
class OccupancyConfig:
    """Whole-home occupancy configuration."""

    occupants: tuple[OccupantProfile, ...] = (OccupantProfile(),)
    vacation_probability_per_day: float = 0.01
    vacation_days: tuple[int, int] = (2, 7)

    def __post_init__(self) -> None:
        if not self.occupants:
            raise ValueError("need at least one occupant")
        if not 0.0 <= self.vacation_probability_per_day <= 1.0:
            raise ValueError("vacation probability must be in [0, 1]")
        lo, hi = self.vacation_days
        if lo < 1 or hi < lo:
            raise ValueError("invalid vacation_days")


def _simulate_occupant(
    profile: OccupantProfile,
    n_days: int,
    samples_per_day: int,
    period_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    present = np.ones(n_days * samples_per_day, dtype=int)
    for day in range(n_days):
        base = day * samples_per_day
        if rng.uniform() < profile.workday_probability:
            leave = rng.normal(profile.leave_hour, profile.leave_std)
            back = rng.normal(profile.return_hour, profile.return_std)
            leave = float(np.clip(leave, 0.0, 23.5))
            back = float(np.clip(back, leave + 0.25, 23.9))
            i0 = base + int(leave * SECONDS_PER_HOUR / period_s)
            i1 = base + int(back * SECONDS_PER_HOUR / period_s)
            present[i0:i1] = 0
        else:
            n_outings = rng.poisson(profile.outing_rate_per_offday)
            for _ in range(n_outings):
                start_hour = rng.uniform(8.0, 20.0)
                duration = rng.uniform(*profile.outing_hours)
                i0 = base + int(start_hour * SECONDS_PER_HOUR / period_s)
                i1 = min(
                    base + samples_per_day,
                    i0 + max(1, int(duration * SECONDS_PER_HOUR / period_s)),
                )
                present[i0:i1] = 0
    return present


def simulate_occupancy(
    config: OccupancyConfig,
    n_days: int,
    period_s: float = 60.0,
    rng: np.random.Generator | int | None = None,
) -> BinaryTrace:
    """Simulate home-level occupancy for ``n_days`` epoch days.

    Returns a :class:`BinaryTrace` starting at the epoch with the given
    sampling period.
    """
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    if SECONDS_PER_DAY % period_s:
        raise ValueError("period_s must divide one day")
    rng = np.random.default_rng(rng)
    samples_per_day = int(SECONDS_PER_DAY / period_s)
    per_occupant = [
        _simulate_occupant(p, n_days, samples_per_day, period_s, rng)
        for p in config.occupants
    ]
    home = np.maximum.reduce(per_occupant)

    # whole-home vacations override everything
    day = 0
    while day < n_days:
        if rng.uniform() < config.vacation_probability_per_day:
            lo, hi = config.vacation_days
            length = int(rng.integers(lo, hi + 1))
            i0 = day * samples_per_day
            i1 = min(len(home), (day + length) * samples_per_day)
            home[i0:i1] = 0
            day += length
        else:
            day += 1
    return BinaryTrace(home, period_s, 0.0)
