"""Battery-based load hiding (Sec. III-B, refs. [26], [27]).

Unlike CHPr, a battery can both *absorb* and *supply* power, so it can
flatten the metered signal directly — at the cost of buying and wearing a
battery.  Two classic algorithms are implemented:

* :class:`NILLDefense` — Non-Intrusive Load Leveling (McLaughlin et al.,
  CCS'11): hold the meter at a constant target; when the battery saturates,
  step the target and continue.
* :class:`SteppedDefense` — stepping/quantization (Yang et al., CCS'12):
  the meter may only report integer multiples of a step size, so small
  appliance edges (the NILM features) vanish into the quantizer.

Both respect a physical battery model with capacity, power limits, and
round-trip efficiency, and report the extra energy burned in conversion
losses — the "high cost to install and maintain" the paper contrasts with
CHPr's free storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..timeseries import PowerTrace
from .base import DefenseOutcome, TraceDefense


@dataclass(frozen=True)
class BatteryConfig:
    """A stationary home battery."""

    capacity_wh: float = 3000.0
    max_charge_w: float = 3000.0
    max_discharge_w: float = 3000.0
    efficiency: float = 0.9  # round-trip, applied on charge
    initial_soc: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.capacity_wh) and self.capacity_wh > 0):
            raise ValueError("capacity must be positive")
        if not all(
            math.isfinite(limit) and limit > 0
            for limit in (self.max_charge_w, self.max_discharge_w)
        ):
            raise ValueError("power limits must be positive")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if not 0.0 <= self.initial_soc <= 1.0:
            raise ValueError("initial_soc must be in [0, 1]")


class Battery:
    """Mutable battery state; positive power = discharging to the home.

    The defenses step it once per meter sample with plain floats.  Their
    requests stand for the trace's float64 samples, and :attr:`losses_wh`
    keeps the scalar type numpy arithmetic on those samples gives it: it
    turns ``np.float64`` at the first charge step bounded by the request
    itself, or by the room left once the stored energy is numpy-typed.
    A loss total's ``repr`` is part of every fleet result digest
    (:func:`repro.fleet.result_digest`) and pickled cache entry, so the
    type is part of the result.
    """

    def __init__(self, config: BatteryConfig) -> None:
        self.config = config
        self.energy_wh = config.capacity_wh * config.initial_soc
        self._losses_wh = 0.0
        # whether numpy arithmetic would have typed the energy and losses
        self._sampled_energy = False
        self._sampled_losses = False
        self._capacity_wh = config.capacity_wh
        self._max_discharge_w = config.max_discharge_w
        self._max_charge_w = config.max_charge_w
        self._efficiency = config.efficiency

    @property
    def losses_wh(self) -> float:
        """Energy burned in charge conversion so far (Wh)."""
        if self._sampled_losses:
            return np.float64(self._losses_wh)
        return self._losses_wh

    def step(self, requested_w: float, dt_s: float) -> float:
        """Attempt to (dis)charge; returns the power actually delivered.

        Positive ``requested_w`` discharges (reduces metered load),
        negative charges (increases metered load).
        """
        dt_h = dt_s / 3600.0
        # each step is bounded by the request, a power limit or the energy
        # stored (room left), the first of them unless a later one is
        # strictly smaller, as ``min`` picks; ``sampled`` says whether the
        # bound taken is numpy-typed (see the class docstring)
        if requested_w >= 0:
            power = requested_w
            sampled = True
            if self._max_discharge_w < power:
                power = self._max_discharge_w
                sampled = False
            stored_w = self.energy_wh / dt_h if dt_h else 0.0
            if stored_w < power:
                power = stored_w
                sampled = self._sampled_energy
            self.energy_wh -= power * dt_h
            if sampled:
                self._sampled_energy = True
        else:
            efficiency = self._efficiency
            drawn_w = -requested_w
            sampled = True
            if self._max_charge_w < drawn_w:
                drawn_w = self._max_charge_w
                sampled = False
            room_wh = self._capacity_wh - self.energy_wh
            room_w = room_wh / (efficiency * dt_h) if dt_h else 0.0
            if room_w < drawn_w:
                drawn_w = room_w
                sampled = self._sampled_energy
            power = -drawn_w
            stored = -power * dt_h * efficiency
            self.energy_wh += stored
            self._losses_wh += -power * dt_h * (1.0 - efficiency)
            if sampled:
                self._sampled_energy = self._sampled_losses = True
        return power


class NILLDefense(TraceDefense):
    """Non-Intrusive Load Leveling: hold the meter at a flat target.

    The target starts at the trace's trailing mean; whenever the battery
    hits empty/full the target steps up/down so the battery can recover.
    The meter sees long flat stretches punctuated by target steps — almost
    no appliance features survive.
    """

    name = "nill"

    def __init__(self, battery: BatteryConfig | None = None, window_s: float = 3600.0):
        if not (math.isfinite(window_s) and window_s > 0):
            raise ValueError("window_s must be positive and finite")
        self.battery_config = battery or BatteryConfig()
        self.window_s = window_s

    def apply(self, true_load, rng=None) -> DefenseOutcome:
        battery = Battery(self.battery_config)
        step = battery.step
        capacity_wh = self.battery_config.capacity_wh
        values = true_load.values
        period = true_load.period_s
        visible = []
        target = float(values[: max(1, int(self.window_s / period))].mean())
        demand_ema = target
        alpha = min(1.0, period / self.window_s)
        keep = 1.0 - alpha
        for demand in values.tolist():
            demand_ema = keep * demand_ema + alpha * demand
            # positive request discharges to pull the meter down to target
            requested = demand - target
            delivered = step(requested, period)
            visible.append(max(demand - delivered, 0.0))
            # saturation: nudge the target toward the running demand level
            # so the battery recovers — gently, or the target steps
            # themselves become a bigger signal than the load they hide
            soc = battery.energy_wh / capacity_wh
            if soc <= 0.05 and target < demand_ema * 1.1:
                target = demand_ema * 1.15 + 100.0
            elif soc >= 0.95 and target > demand_ema * 0.9:
                target = max(demand_ema * 0.85 - 50.0, 0.0)
        out = true_load.with_values(visible)
        return DefenseOutcome(
            visible=out,
            extra_energy_kwh=battery.losses_wh / 1000.0,
            utility_distortion=self._distortion(out, true_load),
        )


class SteppedDefense(TraceDefense):
    """Stepping battery privacy: meter readings quantized to a step grid.

    The battery covers the difference between true demand and the nearest
    feasible step level at or above recent demand; readings change rarely
    and only by whole steps, which removes the edge features NILM needs
    while bounding battery throughput.
    """

    name = "stepped"

    def __init__(
        self,
        battery: BatteryConfig | None = None,
        step_w: float = 500.0,
    ) -> None:
        if not (math.isfinite(step_w) and step_w > 0):
            raise ValueError("step_w must be positive")
        self.battery_config = battery or BatteryConfig()
        self.step_w = step_w

    def apply(self, true_load, rng=None) -> DefenseOutcome:
        battery = Battery(self.battery_config)
        step = battery.step
        capacity_wh = self.battery_config.capacity_wh
        step_w = self.step_w
        values = true_load.values
        period = true_load.period_s
        visible = []
        # the step level at or above each sample
        ceilings = (np.ceil(values / step_w) * step_w).tolist()
        level = ceilings[0]
        for demand, desired in zip(values.tolist(), ceilings):
            # choose the step level nearest demand that the battery can bridge
            soc = battery.energy_wh / capacity_wh
            if soc < 0.1:
                desired += step_w  # charge up while we can
            elif soc > 0.9:
                desired = max(desired - step_w, 0.0)
            # hysteresis: keep the current level while it remains feasible
            if abs(level - demand) <= step_w and 0.1 <= soc <= 0.9:
                desired = level
            level = desired
            requested = demand - level  # discharge if demand above level
            delivered = step(requested, period)
            visible.append(max(demand - delivered, 0.0))
        out = true_load.with_values(visible)
        return DefenseOutcome(
            visible=out,
            extra_energy_kwh=battery.losses_wh / 1000.0,
            utility_distortion=self._distortion(out, true_load),
        )
