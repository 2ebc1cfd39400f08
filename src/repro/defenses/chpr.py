"""CHPr — Combined Heat and Privacy (Chen et al., PerCom'14, ref. [25]).

The Fig. 6 defense: an electric water heater must inject roughly the same
thermal energy every day regardless of *when*, so its controller can
reschedule heating to mask the occupancy side-channel at (nearly) zero
cost.  Concretely, NIOM keys on periods of low, flat demand; CHPr watches
the rest-of-home load and, whenever it looks unoccupied, heats water in
bursty on/off patterns that mimic interactive appliance activity — storing
the heat in the tank.  When the home is genuinely busy the heater stays
quiet, recovering tank headroom.

Physical honesty is enforced by the shared tank model
(:class:`repro.home.waterheater.WaterHeaterTank`): the controller cannot
inject energy into a full tank, must keep delivery temperature above the
comfort minimum, and must serve the household's actual hot-water draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..home.household import WATER_HEATER_NAME, HomeSimulation
from ..home.waterheater import WaterHeaterConfig, WaterHeaterTank, thermostat_power
from ..timeseries import SECONDS_PER_DAY, SECONDS_PER_HOUR, PowerTrace
from .base import DefenseOutcome, TraceDefense


#: A window whose rest-of-home std is below this (and whose mean is
#: below ``target_mean_w``) reads as unoccupied.
_TARGET_STD_W = 150.0
#: Burst level range, as a share of the heater element's power.
_BURST_POWER_FRACTION = (0.45, 1.0)
#: The heater runs flat out whenever the tank is within this of the
#: minimum delivery temperature.
_COMFORT_MARGIN_C = 3.0
#: Bursts stop this far below the setpoint.
_HEADROOM_MARGIN_C = 0.5


@dataclass(frozen=True)
class CHPrConfig:
    """Controller parameters.

    ``target_mean_w`` (and a 150 W std) describe what "occupied-looking"
    demand is; CHPr injects heater load whenever the rest-of-home signal
    falls below both.  Bursts are randomized in length and level so the
    injected signal has the variance NIOM looks for, not just the level.
    """

    window_s: float = 900.0
    target_mean_w: float = 450.0
    # masked windows get their mean raised by a draw from this range,
    # mimicking the spread of genuinely busy windows
    mask_mean_range_w: tuple[float, float] = (250.0, 900.0)
    # Mask only waking hours: an idle signal overnight reads as "occupants
    # asleep" whether or not anyone is home, so spending tank budget there
    # is wasted.  This is how a 50-gal tank stretches to cover a full day.
    mask_start_hour: float = 6.5
    mask_end_hour: float = 23.5
    # Optional fixed daily preheat windows ahead of the morning/evening
    # draw peaks.  Because they run at the same clock time every day,
    # occupied or not, they carry no occupancy information.  They trade
    # masking budget for comfort margin; off by default because the
    # masking bursts themselves keep the tank warm enough in practice.
    preheat_hours: tuple[tuple[float, float], ...] = ()
    # Preheat only up to min_delivery + this buffer (NOT to setpoint):
    # enough margin to absorb a shower, while leaving the tank headroom
    # that funds masking bursts.
    preheat_buffer_c: float = 14.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.window_s) and self.window_s > 0):
            raise ValueError("window_s must be positive and finite")
        if self.target_mean_w <= 0:
            raise ValueError("target_mean_w must be positive")
        if not 0.0 <= self.mask_start_hour < self.mask_end_hour <= 24.0:
            raise ValueError("invalid masking hours")
        lo, hi = self.mask_mean_range_w
        if lo <= 0 or hi < lo:
            raise ValueError("invalid (lo, hi) range")


class CHPrController:
    """Streaming controller: decides heater power sample by sample."""

    def __init__(
        self,
        heater: WaterHeaterConfig,
        config: CHPrConfig | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        # CHPr modulates the heating rate, so force a modulating element
        self.heater = WaterHeaterConfig(
            tank_liters=heater.tank_liters,
            element_power_w=heater.element_power_w,
            setpoint_c=heater.setpoint_c,
            deadband_c=heater.deadband_c,
            inlet_c=heater.inlet_c,
            ambient_c=heater.ambient_c,
            min_delivery_c=heater.min_delivery_c,
            standby_loss_w_per_k=heater.standby_loss_w_per_k,
            modulating=True,
        )
        self.config = config or CHPrConfig()
        self._rng = np.random.default_rng(rng)

    def control(
        self, rest_of_home: PowerTrace, draws: np.ndarray
    ) -> tuple[np.ndarray, WaterHeaterTank]:
        """Compute per-sample heater power for the whole horizon.

        ``rest_of_home`` is everything the meter sees except the heater;
        ``draws`` is the hot-water demand (liters per sample).

        The controller works window by window on the same cadence a NIOM
        detector does: for every *quiet* window (low mean, low variance —
        what the attacker reads as "unoccupied") inside the masking hours,
        it injects a heater burst sized so the window's statistics land in
        the distribution of genuinely busy windows.  Burst energy is
        bounded by the tank's thermal headroom, so the masking budget is
        exactly the heat the household will consume anyway.
        """
        if len(draws) != len(rest_of_home):
            raise ValueError("draws and load must have equal length")
        cfg = self.config
        heater = self.heater
        period = rest_of_home.period_s
        tank = WaterHeaterTank(heater)
        step = tank.step
        samples_per_window = max(1, int(cfg.window_s / period))
        window_h = cfg.window_s / 3600.0
        # thresholds of the per-sample heating tests, computed once
        must_heat_c = heater.min_delivery_c + _COMFORT_MARGIN_C
        preheat_target = min(
            heater.min_delivery_c + cfg.preheat_buffer_c,
            heater.setpoint_c - heater.deadband_c,
        )
        element_w = heater.element_power_w

        values = rest_of_home.values
        hours = rest_of_home.hours_of_day()
        preheat = np.zeros(len(hours), dtype=bool)
        for lo, hi in cfg.preheat_hours:
            preheat |= (lo <= hours) & (hours < hi)
        hours = hours.tolist()
        preheat = preheat.tolist()
        draws = np.asarray(draws, dtype=float).tolist()
        n = len(values)
        power = []
        temps = []

        for start in range(0, n, samples_per_window):
            stop = min(n, start + samples_per_window)
            # no burst unless this window is quiet and the tank has room
            plan_power = 0.0
            plan_start = plan_end = start
            w = values[start:stop]
            quiet = (
                cfg.mask_start_hour <= hours[start] < cfg.mask_end_hour
                and w.mean() < cfg.target_mean_w
                and w.std() < _TARGET_STD_W
            )
            headroom_kwh = (
                (heater.setpoint_c - _HEADROOM_MARGIN_C - tank.temp_c)
                * heater.thermal_mass_j_per_k
                / 3.6e6
            )
            if quiet and headroom_kwh > 0.02:
                # target window mean drawn from the busy-window range,
                # but paced so the tank's remaining headroom lasts the
                # whole masking day: an unpaced controller burns the
                # budget by mid-morning and leaves every afternoon
                # window visibly idle
                remaining_h = max(1.0, cfg.mask_end_hour - hours[start])
                pacing_kwh = headroom_kwh * (window_h / remaining_h) * 2.0
                target_add_w = self._rng.uniform(*cfg.mask_mean_range_w)
                energy_kwh = min(
                    target_add_w * window_h / 1000.0, pacing_kwh, headroom_kwh
                )
                lo, hi = _BURST_POWER_FRACTION
                level = element_w * self._rng.uniform(lo, hi)
                burst_samples = max(
                    1, int(round(energy_kwh * 3.6e6 / level / period))
                )
                burst_samples = min(burst_samples, samples_per_window)
                offset = int(
                    self._rng.integers(0, samples_per_window - burst_samples + 1)
                )
                plan_power = level
                plan_start = start + offset
                plan_end = plan_start + burst_samples

            for i in range(start, stop):
                temp_c = tank.temp_c
                if temp_c <= must_heat_c or (preheat[i] and temp_c < preheat_target):
                    requested = element_w
                elif plan_start <= i < plan_end:
                    requested = plan_power
                else:
                    requested = 0.0
                power.append(step(period, draws[i], requested))
                temps.append(tank.temp_c)
        #: per-sample tank temperature of the last run — what the invariant
        #: suite checks against the physical bounds (inlet <= T <= setpoint)
        self.last_temps_c = np.array(temps, dtype=float)
        return np.array(power, dtype=float), tank


def apply_chpr(
    sim: HomeSimulation, rng: np.random.Generator | int | None = None
) -> DefenseOutcome:
    """Re-run a simulated home's water heater under CHPr control.

    Returns the CHPr-metered view (rest of home + CHPr heater) along with
    the extra energy relative to the baseline thermostat and any comfort
    violations.  Requires the home to have been simulated with a water
    heater (:func:`repro.home.presets.fig6_home`).
    """
    if sim.hot_water_draws is None or sim.config.water_heater is None:
        raise ValueError("home was not simulated with a water heater")
    rest = sim.aggregate_without(WATER_HEATER_NAME)
    controller = CHPrController(sim.config.water_heater, rng=rng)
    chpr_power, tank = controller.control(rest, sim.hot_water_draws)

    baseline_power, _ = thermostat_power(
        sim.hot_water_draws, rest.period_s, sim.config.water_heater
    )
    visible_true = rest.with_values(rest.values + chpr_power)
    from ..home.meter import SmartMeter

    metered = SmartMeter(sim.config.meter).observe(visible_true, rng)
    period_h = rest.period_s / 3600.0
    extra_kwh = float((chpr_power.sum() - baseline_power.sum()) * period_h / 1000.0)
    return DefenseOutcome(
        visible=metered,
        extra_energy_kwh=extra_kwh,
        comfort_violation_fraction=tank.comfort_violation_fraction,
        utility_distortion=float(np.abs(chpr_power - baseline_power).mean()),
    )


#: Fixed daily hot-water schedule of the retrofit adapter: (hour, liters,
#: minutes).  Clock-anchored and identical every day, so the draws carry no
#: occupancy information of their own (unlike the simulator's
#: occupancy-coupled draws, which only a full :class:`HomeSimulation` has).
RETROFIT_DRAW_SCHEDULE: tuple[tuple[float, float, float], ...] = (
    (7.2, 48.0, 8.0),  # morning shower
    (12.5, 6.0, 2.0),  # midday sink draw
    (18.7, 8.0, 2.0),  # dinner sink draw
    (21.0, 42.0, 8.0),  # evening shower
)


class CHPrTraceDefense(TraceDefense):
    """CHPr as a sweepable :class:`TraceDefense` — the retrofit view.

    :func:`apply_chpr` is the faithful Fig. 6 experiment, but it needs a
    full :class:`HomeSimulation` (sub-metered heater, real draw events),
    which the generic defense registry and the privacy-knob sweep engine
    cannot provide — they only see a metered trace.  This adapter closes
    that gap with the *retrofit* interpretation: the home is assumed to
    own an electric water heater whose thermostat-driven load is embedded
    in ``true_load``, drawing hot water on the fixed daily schedule
    :data:`RETROFIT_DRAW_SCHEDULE`.  CHPr then *reschedules* that load::

        visible = max(true_load - thermostat_power + chpr_power, 0)

    so the meter sees the thermostat's reactive bursts replaced by CHPr's
    occupancy-masking ones.  Energy is conserved up to the tank's physics
    (``extra_energy_kwh`` reports the difference), and the shared
    :class:`~repro.home.waterheater.WaterHeaterTank` model still enforces
    temperature bounds and comfort, so the adapter cannot promise more
    masking than a real tank could fund.

    The tank is a default :class:`~repro.home.waterheater.WaterHeaterConfig`.
    ``strength`` scales the masking burst budget (the knob's dial for
    CHPr): at 1.0 bursts target the full busy-window range, at lower
    values proportionally gentler injections.
    """

    name = "chpr"

    def __init__(self, strength: float = 1.0) -> None:
        if not 0.0 < strength <= 1.0:
            raise ValueError("strength must be in (0, 1]")
        self.heater = WaterHeaterConfig()
        self.strength = strength
        self.config = CHPrConfig(
            mask_mean_range_w=(250.0 * strength, 900.0 * strength),
        )
        #: diagnostics from the last ``apply`` call (tank for comfort and
        #: temperature-bound checks, controller for ``last_temps_c``)
        self.last_tank: WaterHeaterTank | None = None
        self.last_controller: CHPrController | None = None

    def _draws(self, true_load: PowerTrace) -> np.ndarray:
        """Per-sample draw volumes (liters) on the trace's own clock."""
        n = len(true_load)
        period = true_load.period_s
        draws = np.zeros(n)
        first_day = int(np.floor(true_load.start_s / SECONDS_PER_DAY))
        last_day = int(np.ceil(true_load.end_s / SECONDS_PER_DAY))
        for day in range(first_day, last_day + 1):
            for hour, liters, minutes in RETROFIT_DRAW_SCHEDULE:
                t = day * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR
                i0 = int(round((t - true_load.start_s) / period))
                if not 0 <= i0 < n:
                    continue
                i1 = min(n, i0 + max(1, int(round(minutes * 60.0 / period))))
                draws[i0:i1] += liters / (i1 - i0)
        return draws

    def apply(self, true_load, rng=None) -> DefenseOutcome:
        rng = np.random.default_rng(rng)
        period = true_load.period_s
        draws = self._draws(true_load)
        baseline_power, _ = thermostat_power(draws, period, self.heater)
        controller = CHPrController(self.heater, self.config, rng)
        chpr_power, tank = controller.control(true_load, draws)
        visible = true_load.with_values(
            np.maximum(true_load.values - baseline_power + chpr_power, 0.0)
        )
        self.last_tank = tank
        self.last_controller = controller
        period_h = period / 3600.0
        extra_kwh = float(
            (chpr_power.sum() - baseline_power.sum()) * period_h / 1000.0
        )
        return DefenseOutcome(
            visible=visible,
            extra_energy_kwh=extra_kwh,
            comfort_violation_fraction=tank.comfort_violation_fraction,
            utility_distortion=self._distortion(visible, true_load),
        )
