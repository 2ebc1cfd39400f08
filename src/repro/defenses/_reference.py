"""Reference implementations of the CHPr and battery defense loops.

These are the per-sample loops of :meth:`CHPrController.control`,
:meth:`CHPrTraceDefense.apply`, :meth:`NILLDefense.apply`,
:meth:`SteppedDefense.apply` and :meth:`Battery.step` as they ran on the
trace's numpy scalars, kept verbatim as *reference semantics* for the
production loops, which run on plain Python floats (see
``docs/PERFORMANCE.md``).  They use the tank step and thermostat twins of
:mod:`repro.home._reference`.

The contract is strict: with the same trace, configuration and seed, the
production defenses must consume the generator stream identically and
return bitwise-identical visible traces, tank temperatures, comfort
counts, distortion and extra energy, down to the scalar type of
``extra_energy_kwh``, whose ``repr`` every fleet result digest hashes.
``tests/test_kernel_equivalence.py`` pins them; nothing outside the tests
imports this module.
"""

from __future__ import annotations

import numpy as np

from ..home._reference import tank_step_loop, thermostat_power_loop
from ..home.waterheater import WaterHeaterTank
from ..timeseries import PowerTrace
from .base import DefenseOutcome
from .chpr import (
    _BURST_POWER_FRACTION,
    _COMFORT_MARGIN_C,
    _HEADROOM_MARGIN_C,
    _TARGET_STD_W,
    CHPrController,
)


class BatteryLoop:
    """Original :class:`~repro.defenses.battery.Battery`: numpy scalars in,
    so ``energy_wh`` and ``losses_wh`` take the type of what bounds a step."""

    def __init__(self, config) -> None:
        self.config = config
        self.energy_wh = config.capacity_wh * config.initial_soc
        self.losses_wh = 0.0

    @property
    def soc(self) -> float:
        return self.energy_wh / self.config.capacity_wh

    def step(self, requested_w: float, dt_s: float) -> float:
        cfg = self.config
        dt_h = dt_s / 3600.0
        if requested_w >= 0:
            power = min(requested_w, cfg.max_discharge_w, self.energy_wh / dt_h if dt_h else 0.0)
            self.energy_wh -= power * dt_h
        else:
            room_wh = cfg.capacity_wh - self.energy_wh
            power = -min(-requested_w, cfg.max_charge_w, room_wh / (cfg.efficiency * dt_h) if dt_h else 0.0)
            stored = -power * dt_h * cfg.efficiency
            self.energy_wh += stored
            self.losses_wh += -power * dt_h * (1.0 - cfg.efficiency)
        return power


def nill_apply_loop(defense, true_load: PowerTrace) -> DefenseOutcome:
    """Original ``NILLDefense.apply``."""
    battery = BatteryLoop(defense.battery_config)
    values = true_load.values
    period = true_load.period_s
    visible = np.empty_like(values)
    target = float(values[: max(1, int(defense.window_s / period))].mean())
    demand_ema = target
    alpha = min(1.0, period / defense.window_s)
    for i, demand in enumerate(values):
        demand_ema = (1.0 - alpha) * demand_ema + alpha * demand
        # positive request discharges to pull the meter down to target
        requested = demand - target
        delivered = battery.step(requested, period)
        visible[i] = max(demand - delivered, 0.0)
        # saturation: nudge the target toward the running demand level
        # so the battery recovers — gently, or the target steps
        # themselves become a bigger signal than the load they hide
        if battery.soc <= 0.05 and target < demand_ema * 1.1:
            target = demand_ema * 1.15 + 100.0
        elif battery.soc >= 0.95 and target > demand_ema * 0.9:
            target = max(demand_ema * 0.85 - 50.0, 0.0)
    out = true_load.with_values(visible)
    return DefenseOutcome(
        visible=out,
        extra_energy_kwh=battery.losses_wh / 1000.0,
        utility_distortion=defense._distortion(out, true_load),
    )


def stepped_apply_loop(defense, true_load: PowerTrace) -> DefenseOutcome:
    """Original ``SteppedDefense.apply``."""
    battery = BatteryLoop(defense.battery_config)
    values = true_load.values
    period = true_load.period_s
    visible = np.empty_like(values)
    level = float(np.ceil(values[0] / defense.step_w)) * defense.step_w
    for i, demand in enumerate(values):
        # choose the step level nearest demand that the battery can bridge
        desired = float(np.ceil(demand / defense.step_w)) * defense.step_w
        if battery.soc < 0.1:
            desired += defense.step_w  # charge up while we can
        elif battery.soc > 0.9:
            desired = max(desired - defense.step_w, 0.0)
        # hysteresis: keep the current level while it remains feasible
        if abs(level - demand) <= defense.step_w and 0.1 <= battery.soc <= 0.9:
            desired = level
        level = desired
        requested = demand - level  # discharge if demand above level
        delivered = battery.step(requested, period)
        visible[i] = max(demand - delivered, 0.0)
    out = true_load.with_values(visible)
    return DefenseOutcome(
        visible=out,
        extra_energy_kwh=battery.losses_wh / 1000.0,
        utility_distortion=defense._distortion(out, true_load),
    )


def chpr_control_loop(
    controller, rest_of_home: PowerTrace, draws: np.ndarray
) -> tuple[np.ndarray, WaterHeaterTank]:
    """Original ``CHPrController.control``: indexed numpy scalars, the
    preheat test and its target recomputed every sample."""
    if len(draws) != len(rest_of_home):
        raise ValueError("draws and load must have equal length")
    cfg = controller.config
    period = rest_of_home.period_s
    tank = WaterHeaterTank(controller.heater)
    samples_per_window = max(1, int(cfg.window_s / period))
    window_h = cfg.window_s / 3600.0

    values = rest_of_home.values
    hours = rest_of_home.hours_of_day()
    n = len(values)
    power = np.zeros(n)
    temps = np.zeros(n)

    plan_power = 0.0  # requested burst level for the current window
    plan_start = 0
    plan_end = 0
    for i in range(n):
        if i % samples_per_window == 0:
            plan_power = 0.0
            w = values[i : i + samples_per_window]
            quiet = (
                cfg.mask_start_hour <= hours[i] < cfg.mask_end_hour
                and w.mean() < cfg.target_mean_w
                and w.std() < _TARGET_STD_W
            )
            headroom_kwh = (
                (controller.heater.setpoint_c - _HEADROOM_MARGIN_C - tank.temp_c)
                * controller.heater.thermal_mass_j_per_k
                / 3.6e6
            )
            if quiet and headroom_kwh > 0.02:
                # target window mean drawn from the busy-window range,
                # but paced so the tank's remaining headroom lasts the
                # whole masking day: an unpaced controller burns the
                # budget by mid-morning and leaves every afternoon
                # window visibly idle
                remaining_h = max(1.0, cfg.mask_end_hour - hours[i])
                pacing_kwh = headroom_kwh * (window_h / remaining_h) * 2.0
                target_add_w = controller._rng.uniform(*cfg.mask_mean_range_w)
                energy_kwh = min(
                    target_add_w * window_h / 1000.0, pacing_kwh, headroom_kwh
                )
                lo, hi = _BURST_POWER_FRACTION
                level = controller.heater.element_power_w * controller._rng.uniform(lo, hi)
                burst_samples = max(
                    1, int(round(energy_kwh * 3.6e6 / level / period))
                )
                burst_samples = min(burst_samples, samples_per_window)
                offset = int(
                    controller._rng.integers(0, samples_per_window - burst_samples + 1)
                )
                plan_power = level
                plan_start = i + offset
                plan_end = plan_start + burst_samples

        must_heat = tank.temp_c <= controller.heater.min_delivery_c + _COMFORT_MARGIN_C
        preheat_target = min(
            controller.heater.min_delivery_c + cfg.preheat_buffer_c,
            controller.heater.setpoint_c - controller.heater.deadband_c,
        )
        preheating = (
            any(lo <= hours[i] < hi for lo, hi in cfg.preheat_hours)
            and tank.temp_c < preheat_target
        )
        if must_heat or preheating:
            requested = controller.heater.element_power_w
        elif plan_start <= i < plan_end:
            requested = plan_power
        else:
            requested = 0.0
        power[i] = tank_step_loop(tank, period, float(draws[i]), requested)
        temps[i] = tank.temp_c
    controller.last_temps_c = temps
    return power, tank


def chpr_apply_loop(defense, true_load: PowerTrace, rng=None) -> DefenseOutcome:
    """Original ``CHPrTraceDefense.apply``, on the loop thermostat and
    controller."""
    rng = np.random.default_rng(rng)
    period = true_load.period_s
    draws = defense._draws(true_load)
    baseline_power, _ = thermostat_power_loop(draws, period, defense.heater)
    controller = CHPrController(defense.heater, defense.config, rng)
    chpr_power, tank = chpr_control_loop(controller, true_load, draws)
    visible = true_load.with_values(
        np.maximum(true_load.values - baseline_power + chpr_power, 0.0)
    )
    defense.last_tank = tank
    defense.last_controller = controller
    period_h = period / 3600.0
    extra_kwh = float(
        (chpr_power.sum() - baseline_power.sum()) * period_h / 1000.0
    )
    return DefenseOutcome(
        visible=visible,
        extra_energy_kwh=extra_kwh,
        comfort_violation_fraction=tank.comfort_violation_fraction,
        utility_distortion=defense._distortion(visible, true_load),
    )
