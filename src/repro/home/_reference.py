"""Reference implementations of the appliance simulators and the tank.

These are the original per-sample/per-cycle loop bodies of
``CyclicAppliance.simulate``, ``ContinuousAppliance.simulate`` and
``LightingAppliance.simulate``, kept verbatim as *reference semantics* for
the vectorized kernels that replaced them (see ``docs/PERFORMANCE.md``).
:func:`tank_step_loop` and :func:`thermostat_power_loop` are the tank step
and the baseline thermostat as they ran on numpy scalars, before
:meth:`WaterHeaterTank.step` and :func:`thermostat_power` moved to plain
Python floats.

The contract is strict: given the same appliance, occupancy trace and RNG
seed, the vectorized simulators must consume the generator stream
identically and produce **bitwise-identical** traces.  (Changing either
would silently invalidate every seeded trace digest, cached fleet result
and measured table in EXPERIMENTS.md.)  The float tank and thermostat must
return the same power, final temperature and comfort counts bit for bit.
``tests/test_kernel_equivalence.py`` pins the production code to these
functions across seeds, periods and durations; ``docs/PERFORMANCE.md``
section 3 records their speedups.
"""

from __future__ import annotations

import numpy as np

from ..timeseries import BinaryTrace, PowerTrace, SECONDS_PER_DAY, SECONDS_PER_HOUR
from .waterheater import WaterHeaterConfig, WaterHeaterTank


def _to_trace(occupancy: BinaryTrace, values: np.ndarray) -> PowerTrace:
    return PowerTrace(
        np.maximum(values, 0.0), occupancy.period_s, occupancy.start_s, "W"
    )


def simulate_cyclic_loop(
    app, occupancy: BinaryTrace, rng: np.random.Generator
) -> PowerTrace:
    """Original per-cycle ``while t < n * period`` loop of CyclicAppliance."""
    values = np.zeros(len(occupancy))
    period = occupancy.period_s
    n = len(values)
    t = -rng.uniform(0.0, (app.on_minutes + app.off_minutes) * 60.0)
    while t < n * period:
        on_s = app.on_minutes * 60.0 * (1.0 + rng.uniform(-app.jitter, app.jitter))
        off_s = app.off_minutes * 60.0 * (1.0 + rng.uniform(-app.jitter, app.jitter))
        i0 = max(0, int(np.ceil(t / period)))
        i1 = min(n, int(np.ceil((t + on_s) / period)))
        if i1 > i0:
            values[i0:i1] = app.on_power_w
            if app.spike_power_w > 0:
                frac = min(1.0, app.spike_seconds / period)
                values[i0] += (app.spike_power_w - app.on_power_w) * frac
        t += on_s + off_s
    if app.noise_w > 0:
        on_mask = values > 0
        values[on_mask] += rng.normal(0.0, app.noise_w, on_mask.sum())
    return _to_trace(occupancy, values)


def simulate_continuous_loop(
    app, occupancy: BinaryTrace, rng: np.random.Generator
) -> PowerTrace:
    """Original per-boost loop of ContinuousAppliance."""
    values = np.full(len(occupancy), app.base_power_w)
    period = occupancy.period_s
    if app.boost_power_w > app.base_power_w:
        n_days = max(1, int(np.ceil(occupancy.duration_s / SECONDS_PER_DAY)))
        n_boosts = rng.poisson(app.boosts_per_day * n_days)
        for _ in range(n_boosts):
            start = rng.uniform(0.0, occupancy.duration_s)
            i0 = int(start / period)
            i1 = min(len(values), i0 + max(1, int(app.boost_minutes * 60.0 / period)))
            values[i0:i1] = app.boost_power_w
    if app.noise_w > 0:
        values += rng.normal(0.0, app.noise_w, len(values))
    return _to_trace(occupancy, values)


def simulate_lighting_loop(
    app, occupancy: BinaryTrace, rng: np.random.Generator
) -> PowerTrace:
    """Original per-sample modulation loop of LightingAppliance."""
    hours = (occupancy.times() % SECONDS_PER_DAY) / SECONDS_PER_HOUR
    weight = app.darkness_weight(hours) * occupancy.values
    modulation = np.empty(len(hours))
    level = 0.7
    change_probability = occupancy.period_s / 1800.0  # ~ every 30 min
    for i in range(len(hours)):
        if rng.uniform() < change_probability:
            level = float(np.clip(level + rng.uniform(-0.15, 0.15), 0.3, 1.0))
        modulation[i] = level
    values = app.max_power_w * weight * modulation
    values += rng.normal(0.0, app.noise_w, len(values)) * (values > 0)
    return _to_trace(occupancy, values)


def tank_step_loop(
    tank, dt_s: float, draw_liters: float, element_power_w: float
) -> float:
    """Original ``WaterHeaterTank.step``: one sample, clipped with ``np.clip``."""
    cfg = tank.config
    if dt_s <= 0:
        raise ValueError("dt_s must be positive")
    if draw_liters < 0:
        raise ValueError("draw_liters cannot be negative")
    power = float(np.clip(element_power_w, 0.0, cfg.element_power_w))
    if not cfg.modulating and 0.0 < power < cfg.element_power_w:
        power = cfg.element_power_w  # relay element: on is full power

    # draw mixing (hot water out, inlet water in)
    if draw_liters > 0:
        frac = min(1.0, draw_liters / cfg.tank_liters)
        tank.temp_c += frac * (cfg.inlet_c - tank.temp_c)

    # element heat and standby loss
    loss_w = cfg.standby_loss_w_per_k * max(0.0, tank.temp_c - cfg.ambient_c)
    net_w = power - loss_w
    tank.temp_c += net_w * dt_s / cfg.thermal_mass_j_per_k

    # thermostat ceiling: element cannot push past setpoint
    if tank.temp_c > cfg.setpoint_c:
        overshoot_j = (tank.temp_c - cfg.setpoint_c) * cfg.thermal_mass_j_per_k
        power = max(0.0, power - overshoot_j / dt_s)
        tank.temp_c = cfg.setpoint_c

    tank.samples += 1
    if tank.temp_c < cfg.min_delivery_c:
        tank.comfort_violations += 1
    return power


def thermostat_power_loop(
    draws: np.ndarray,
    period_s: float,
    config: WaterHeaterConfig | None = None,
    initial_temp_c: float | None = None,
) -> tuple[np.ndarray, WaterHeaterTank]:
    """Original ``thermostat_power``: numpy-scalar draws, indexed power."""
    config = config or WaterHeaterConfig()
    tank = WaterHeaterTank(config, initial_temp_c)
    power = np.zeros(len(draws))
    heating = False
    for i, draw in enumerate(draws):
        if tank.temp_c <= config.setpoint_c - config.deadband_c:
            heating = True
        elif tank.temp_c >= config.setpoint_c - 1e-9:
            heating = False
        power[i] = tank_step_loop(
            tank, period_s, float(draw), config.element_power_w if heating else 0.0
        )
    return power, tank
