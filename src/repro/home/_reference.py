"""Pre-vectorization reference implementations of the appliance simulators.

These are the original per-sample/per-cycle loop bodies of
``CyclicAppliance.simulate``, ``ContinuousAppliance.simulate`` and
``LightingAppliance.simulate``, kept verbatim as *reference semantics* for
the vectorized kernels that replaced them (see ``docs/PERFORMANCE.md``).

The contract is strict: given the same appliance, occupancy trace and RNG
seed, the vectorized simulators must consume the generator stream
identically and produce **bitwise-identical** traces.  (Changing either
would silently invalidate every seeded trace digest, cached fleet result
and measured table in EXPERIMENTS.md.)  ``tests/test_kernel_equivalence.py``
pins the production simulators to these functions across seeds, periods
and durations; ``docs/PERFORMANCE.md`` section 3 records their speedups.
"""

from __future__ import annotations

import numpy as np

from ..timeseries import BinaryTrace, PowerTrace, SECONDS_PER_DAY, SECONDS_PER_HOUR


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
