"""Appliance load models for the household simulator.

The paper's NILM discussion (Sec. II-A) builds on the empirical load
taxonomy of Barker et al. (IGCC'13, ref. [18]): household loads are
*resistive* (flat draw while on: toasters, kettles, resistive heaters),
*inductive* (motor loads with a startup transient: compressors, fans,
pumps), *non-linear* (electronics with fluctuating draw: TVs, computers,
microwaves), or *cyclical* (thermostatically controlled loads that duty-cycle
regardless of occupancy: refrigerators, freezers).  PowerPlay's a-priori
appliance models (:mod:`repro.attacks.nilm.powerplay`) are parameterized in
exactly these terms, so the simulator and the attack share a vocabulary
without sharing state.

Two behavioural categories matter for NIOM:

* **background** appliances run regardless of occupancy (fridge, freezer,
  HRV, water heater) — they are the confounders a NIOM detector must filter;
* **interactive** appliances only run when someone is home and operates them
  (microwave, toaster, lights, TV, dryer, cooktop) — they carry the
  occupancy side-channel.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..timeseries import BinaryTrace, PowerTrace, SECONDS_PER_DAY, SECONDS_PER_HOUR


@dataclass(frozen=True)
class TimeOfDayAffinity:
    """Mixture-of-Gaussians preference over hour-of-day for appliance use.

    ``peaks`` are (hour, weight, std_hours) triples; sampling picks a peak by
    weight and draws an hour around it (wrapped into [0, 24)).
    """

    peaks: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.peaks:
            raise ValueError("affinity needs at least one peak")
        for hour, weight, std in self.peaks:
            if not 0.0 <= hour < 24.0:
                raise ValueError(f"peak hour {hour} outside [0, 24)")
            if weight <= 0 or std <= 0:
                raise ValueError("peak weight and std must be positive")

    def sample_hour(self, rng: np.random.Generator) -> float:
        weights = np.asarray([w for _, w, _ in self.peaks])
        weights = weights / weights.sum()
        idx = rng.choice(len(self.peaks), p=weights)
        hour, _, std = self.peaks[idx]
        return float((rng.normal(hour, std)) % 24.0)


ANYTIME = TimeOfDayAffinity(((12.0, 1.0, 8.0),))
MORNING = TimeOfDayAffinity(((7.5, 1.0, 1.2),))
EVENING = TimeOfDayAffinity(((18.5, 1.0, 1.8),))
MEALS = TimeOfDayAffinity(((7.5, 0.8, 1.0), (12.5, 0.6, 1.0), (18.5, 1.0, 1.2)))
NIGHT_LEISURE = TimeOfDayAffinity(((20.0, 1.0, 2.0),))


class Appliance(ABC):
    """Base class: something that turns electricity into a power trace."""

    def __init__(self, name: str, background: bool) -> None:
        if not name:
            raise ValueError("appliance needs a name")
        self.name = name
        self.background = background

    @abstractmethod
    def simulate(self, occupancy: BinaryTrace, rng: np.random.Generator) -> PowerTrace:
        """Render this appliance's power on the occupancy trace's clock."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "background" if self.background else "interactive"
        return f"<{type(self).__name__} {self.name!r} ({kind})>"


def _empty_like(occupancy: BinaryTrace) -> np.ndarray:
    return np.zeros(len(occupancy))


def _to_trace(occupancy: BinaryTrace, values: np.ndarray) -> PowerTrace:
    return PowerTrace(
        np.maximum(values, 0.0), occupancy.period_s, occupancy.start_s, "W"
    )


# ---------------------------------------------------------------------------
# Cyclical background loads (fridge, freezer)
# ---------------------------------------------------------------------------
class CyclicAppliance(Appliance):
    """Thermostatic duty-cycling load: on/off cycles independent of occupancy.

    Compressor loads also carry a short inductive startup spike at the
    beginning of each on-cycle — one of the identifiable features PowerPlay
    keys on.
    """

    def __init__(
        self,
        name: str,
        on_power_w: float,
        on_minutes: float,
        off_minutes: float,
        spike_power_w: float = 0.0,
        spike_seconds: float = 3.0,
        jitter: float = 0.2,
        noise_w: float = 3.0,
    ) -> None:
        super().__init__(name, background=True)
        if on_power_w <= 0 or on_minutes <= 0 or off_minutes <= 0:
            raise ValueError("powers and durations must be positive")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.on_power_w = on_power_w
        self.on_minutes = on_minutes
        self.off_minutes = off_minutes
        self.spike_power_w = spike_power_w
        self.spike_seconds = spike_seconds
        self.jitter = jitter
        self.noise_w = noise_w

    def simulate(self, occupancy: BinaryTrace, rng: np.random.Generator) -> PowerTrace:
        # Vectorized port of the original per-cycle loop
        # (repro.home._reference.simulate_cyclic_loop).  Durations are
        # drawn in chunks sized to a *lower bound* on the cycles the loop
        # was still guaranteed to draw, so the RNG stream is consumed
        # identically and the trace is bitwise-unchanged.
        values = _empty_like(occupancy)
        period = occupancy.period_s
        n = len(values)
        end = n * period
        cycle_s = (self.on_minutes + self.off_minutes) * 60.0
        # start at a random phase in the cycle
        t = -rng.uniform(0.0, cycle_s)
        max_pair_s = cycle_s * (1.0 + self.jitter)
        starts_parts: list[np.ndarray] = []
        ons_parts: list[np.ndarray] = []
        while t < end:
            # ceil((end - t) / max_pair_s) cycles fit before `end` even at
            # maximal jitter, so the loop would have drawn every one of them
            m = max(1, int(np.ceil((end - t) / max_pair_s)))
            u = rng.uniform(-self.jitter, self.jitter, size=2 * m)
            on_s = self.on_minutes * 60.0 * (1.0 + u[0::2])
            off_s = self.off_minutes * 60.0 * (1.0 + u[1::2])
            # running sum seeded with t reproduces the loop's exact
            # left-to-right accumulation of t += on_s + off_s
            bounds = np.cumsum(np.concatenate(([t], on_s + off_s)))
            starts_parts.append(bounds[:-1])
            ons_parts.append(on_s)
            t = bounds[-1]
        starts = np.concatenate(starts_parts) if starts_parts else np.empty(0)
        on_s = np.concatenate(ons_parts) if ons_parts else np.empty(0)
        i0 = np.maximum(0, np.ceil(starts / period)).astype(np.int64)
        i1 = np.minimum(n, np.ceil((starts + on_s) / period)).astype(np.int64)
        active = i1 > i0
        i0, i1 = i0[active], i1[active]
        # interval painting via a difference array (cycles never overlap)
        edges = np.zeros(n + 1)
        edges[i0] += 1.0
        edges[i1] -= 1.0
        on_mask = np.cumsum(edges[:-1]) > 0
        values[on_mask] = self.on_power_w
        if self.spike_power_w > 0 and len(i0):
            # startup transient averaged into the first sample
            frac = min(1.0, self.spike_seconds / period)
            values[i0] += (self.spike_power_w - self.on_power_w) * frac
        if self.noise_w > 0:
            values[on_mask] += rng.normal(0.0, self.noise_w, int(on_mask.sum()))
        return _to_trace(occupancy, values)


# ---------------------------------------------------------------------------
# Continuous background loads (HRV, standby electronics)
# ---------------------------------------------------------------------------
class ContinuousAppliance(Appliance):
    """Always-on load with small fluctuation and occasional boost periods.

    Models loads like a heat-recovery ventilator (HRV): a continuously
    running low-power fan that periodically shifts to a higher speed.  Its
    smallness and lack of crisp edges is what makes it hard for
    edge/state-based NILM (the HRV bar in Fig. 2).
    """

    def __init__(
        self,
        name: str,
        base_power_w: float,
        boost_power_w: float | None = None,
        boosts_per_day: float = 4.0,
        boost_minutes: float = 30.0,
        noise_w: float = 2.0,
    ) -> None:
        super().__init__(name, background=True)
        if base_power_w <= 0:
            raise ValueError("base_power_w must be positive")
        self.base_power_w = base_power_w
        self.boost_power_w = boost_power_w if boost_power_w is not None else 0.0
        self.boosts_per_day = boosts_per_day
        self.boost_minutes = boost_minutes
        self.noise_w = noise_w

    def simulate(self, occupancy: BinaryTrace, rng: np.random.Generator) -> PowerTrace:
        # Vectorized port of the per-boost loop in
        # repro.home._reference.simulate_continuous_loop: one batched
        # uniform draw (stream-identical to the scalar draws) and
        # difference-array painting of the possibly overlapping intervals.
        values = np.full(len(occupancy), self.base_power_w)
        period = occupancy.period_s
        n = len(values)
        n_days = max(1, int(np.ceil(occupancy.duration_s / SECONDS_PER_DAY)))
        if self.boost_power_w > self.base_power_w:
            n_boosts = rng.poisson(self.boosts_per_day * n_days)
            if n_boosts:
                start = rng.uniform(0.0, occupancy.duration_s, size=n_boosts)
                block = max(1, int(self.boost_minutes * 60.0 / period))
                i0 = (start / period).astype(np.int64)
                i1 = np.minimum(n, i0 + block)
                edges = np.zeros(n + 1)
                np.add.at(edges, i0, 1.0)
                np.add.at(edges, i1, -1.0)
                values[np.cumsum(edges[:-1]) > 0] = self.boost_power_w
        if self.noise_w > 0:
            values += rng.normal(0.0, self.noise_w, len(values))
        return _to_trace(occupancy, values)


# ---------------------------------------------------------------------------
# Interactive loads
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class UsagePattern:
    """How often and when an interactive appliance is operated.

    ``uses_per_day`` is a Poisson rate over *occupied* days; each use draws
    a start hour from ``affinity`` and runs for a duration sampled uniformly
    from ``duration_minutes`` (a (lo, hi) pair).  Uses that fall in
    unoccupied minutes are dropped — nobody is home to press the button —
    which is precisely the causal link NIOM exploits.
    """

    uses_per_day: float
    duration_minutes: tuple[float, float]
    affinity: TimeOfDayAffinity = ANYTIME

    def __post_init__(self) -> None:
        lo, hi = self.duration_minutes
        if self.uses_per_day < 0 or lo <= 0 or hi < lo:
            raise ValueError("invalid usage pattern")


class InteractiveAppliance(Appliance):
    """An appliance operated manually by occupants.

    Subclasses supply :meth:`render_cycle`, which writes one on-cycle's power
    into the value array.
    """

    def __init__(self, name: str, pattern: UsagePattern) -> None:
        super().__init__(name, background=False)
        self.pattern = pattern

    @abstractmethod
    def render_cycle(
        self,
        values: np.ndarray,
        i0: int,
        n_samples: int,
        period_s: float,
        rng: np.random.Generator,
    ) -> None:
        """Add one usage cycle starting at index ``i0``."""

    def simulate(self, occupancy: BinaryTrace, rng: np.random.Generator) -> PowerTrace:
        values = _empty_like(occupancy)
        period = occupancy.period_s
        n = len(values)
        n_days = max(1, int(np.ceil(occupancy.duration_s / SECONDS_PER_DAY)))
        n_uses = rng.poisson(self.pattern.uses_per_day * n_days)
        lo, hi = self.pattern.duration_minutes
        for _ in range(n_uses):
            day = rng.integers(n_days)
            hour = self.pattern.affinity.sample_hour(rng)
            start_s = day * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR
            i0 = int(start_s / period)
            if i0 >= n:
                continue
            if not occupancy.values[i0]:
                continue  # nobody home: the use never happens
            duration_s = rng.uniform(lo, hi) * 60.0
            n_samples = max(1, int(round(duration_s / period)))
            self.render_cycle(values, i0, min(n_samples, n - i0), period, rng)
        return _to_trace(occupancy, values)


class ResistiveAppliance(InteractiveAppliance):
    """Flat draw while on (toaster, kettle, resistive cooktop)."""

    def __init__(
        self,
        name: str,
        pattern: UsagePattern,
        power_w: float,
        noise_w: float = 5.0,
    ) -> None:
        super().__init__(name, pattern)
        if power_w <= 0:
            raise ValueError("power_w must be positive")
        self.power_w = power_w
        self.noise_w = noise_w

    def render_cycle(self, values, i0, n_samples, period_s, rng) -> None:
        cycle = np.full(n_samples, self.power_w)
        if self.noise_w > 0:
            cycle += rng.normal(0.0, self.noise_w, n_samples)
        values[i0 : i0 + n_samples] += np.maximum(cycle, 0.0)


class InductiveAppliance(InteractiveAppliance):
    """Motor load: startup spike then steady running power (washer motor)."""

    def __init__(
        self,
        name: str,
        pattern: UsagePattern,
        running_power_w: float,
        spike_power_w: float,
        spike_seconds: float = 3.0,
        noise_w: float = 8.0,
    ) -> None:
        super().__init__(name, pattern)
        if running_power_w <= 0 or spike_power_w < running_power_w:
            raise ValueError("need spike_power_w >= running_power_w > 0")
        self.running_power_w = running_power_w
        self.spike_power_w = spike_power_w
        self.spike_seconds = spike_seconds
        self.noise_w = noise_w

    def render_cycle(self, values, i0, n_samples, period_s, rng) -> None:
        cycle = np.full(n_samples, self.running_power_w)
        frac = min(1.0, self.spike_seconds / period_s)
        cycle[0] += (self.spike_power_w - self.running_power_w) * frac
        if self.noise_w > 0:
            cycle += rng.normal(0.0, self.noise_w, n_samples)
        values[i0 : i0 + n_samples] += np.maximum(cycle, 0.0)


class NonLinearAppliance(InteractiveAppliance):
    """Electronics with a fluctuating draw (TV, computer, microwave)."""

    def __init__(
        self,
        name: str,
        pattern: UsagePattern,
        mean_power_w: float,
        fluctuation_w: float,
    ) -> None:
        super().__init__(name, pattern)
        if mean_power_w <= 0 or fluctuation_w < 0:
            raise ValueError("invalid powers")
        self.mean_power_w = mean_power_w
        self.fluctuation_w = fluctuation_w

    def render_cycle(self, values, i0, n_samples, period_s, rng) -> None:
        # smooth random-walk fluctuation around the mean
        steps = rng.normal(0.0, self.fluctuation_w * 0.3, n_samples)
        walk = np.cumsum(steps)
        walk -= walk.mean()
        walk = np.clip(walk, -self.fluctuation_w, self.fluctuation_w)
        values[i0 : i0 + n_samples] += np.maximum(self.mean_power_w + walk, 0.0)


class CompoundCycleAppliance(InteractiveAppliance):
    """Heating element duty-cycling on top of a continuous motor (dryer).

    A clothes dryer draws a ~300 W drum motor for the whole cycle while a
    multi-kW heating element cycles on/off under thermostat control — the
    classic large, easy-to-disaggregate load in Fig. 2.
    """

    def __init__(
        self,
        name: str,
        pattern: UsagePattern,
        motor_power_w: float,
        element_power_w: float,
        element_duty: float = 0.75,
        element_cycle_minutes: float = 6.0,
        noise_w: float = 20.0,
    ) -> None:
        super().__init__(name, pattern)
        if not 0.0 < element_duty <= 1.0:
            raise ValueError("element_duty must be in (0, 1]")
        if motor_power_w <= 0 or element_power_w <= 0:
            raise ValueError("powers must be positive")
        self.motor_power_w = motor_power_w
        self.element_power_w = element_power_w
        self.element_duty = element_duty
        self.element_cycle_minutes = element_cycle_minutes
        self.noise_w = noise_w

    def render_cycle(self, values, i0, n_samples, period_s, rng) -> None:
        cycle = np.full(n_samples, self.motor_power_w)
        cycle_samples = max(1, int(self.element_cycle_minutes * 60.0 / period_s))
        on_samples = max(1, int(round(cycle_samples * self.element_duty)))
        pos = 0
        while pos < n_samples:
            end = min(n_samples, pos + on_samples)
            cycle[pos:end] += self.element_power_w
            pos += cycle_samples
        if self.noise_w > 0:
            cycle += rng.normal(0.0, self.noise_w, n_samples)
        values[i0 : i0 + n_samples] += np.maximum(cycle, 0.0)


class LightingAppliance(Appliance):
    """Aggregate household lighting: follows occupancy and darkness.

    Power scales with an evening/morning darkness weight and is only drawn
    while occupied — lighting is the most pervasive interactive load and a
    strong NIOM signal.
    """

    def __init__(
        self,
        name: str = "lighting",
        max_power_w: float = 300.0,
        noise_w: float = 10.0,
    ) -> None:
        super().__init__(name, background=False)
        if max_power_w <= 0:
            raise ValueError("max_power_w must be positive")
        self.max_power_w = max_power_w
        self.noise_w = noise_w

    @staticmethod
    def darkness_weight(hours: np.ndarray) -> np.ndarray:
        """0 at midday, 1 late evening/early morning (piecewise linear)."""
        weight = np.zeros_like(hours)
        weight = np.where(hours < 6.0, 0.8, weight)
        weight = np.where((hours >= 6.0) & (hours < 9.0), 0.5, weight)
        weight = np.where((hours >= 17.0) & (hours < 20.0), 0.7, weight)
        weight = np.where(hours >= 20.0, 1.0, weight)
        return weight

    def simulate(self, occupancy: BinaryTrace, rng: np.random.Generator) -> PowerTrace:
        hours = (occupancy.times() % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        weight = self.darkness_weight(hours) * occupancy.values
        # Occupants toggle individual fixtures now and then: a piecewise-
        # constant modulation with occasional small level changes.
        # Vectorized port of the original per-sample loop
        # (repro.home._reference.simulate_lighting_loop): uniforms are
        # drawn in chunks sized to the guaranteed remaining consumption
        # (one per sample plus one per level change), trigger samples are
        # located with one vectorized compare per chunk, and the level
        # deltas are reconstructed from the same stream positions the
        # scalar uniform(-0.15, 0.15) calls would have consumed — so the
        # stream and the trace are bitwise-identical to the loop's.
        n = len(hours)
        modulation = np.empty(n)
        level = 0.7
        change_probability = occupancy.period_s / 1800.0  # ~ every 30 min
        buf = rng.uniform(size=n)
        triggers = np.flatnonzero(buf < change_probability)
        pos = 0
        i = 0
        while i < n:
            if pos >= len(buf):
                buf = rng.uniform(size=n - i)
                triggers = np.flatnonzero(buf < change_probability)
                pos = 0
            hit = np.searchsorted(triggers, pos)
            if hit == len(triggers):
                span = len(buf) - pos
                modulation[i : i + span] = level
                i += span
                pos = len(buf)
                continue
            trig = int(triggers[hit])
            j = trig - pos
            modulation[i : i + j] = level
            pos = trig + 1
            if pos >= len(buf):
                # the delta draw spills into a fresh chunk: one delta plus
                # one uniform per remaining sample is still guaranteed
                buf = rng.uniform(size=n - (i + j))
                triggers = np.flatnonzero(buf < change_probability)
                pos = 0
            # uniform(-0.15, 0.15) == -0.15 + 0.3 * u for the same stream u
            delta = -0.15 + 0.3 * buf[pos]
            pos += 1
            level = float(np.clip(level + delta, 0.3, 1.0))
            modulation[i + j] = level
            i += j + 1
        values = self.max_power_w * weight * modulation
        values += rng.normal(0.0, self.noise_w, len(values)) * (values > 0)
        return _to_trace(occupancy, values)
