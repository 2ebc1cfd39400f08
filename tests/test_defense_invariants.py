"""Property-based invariants every registered defense must satisfy.

These are seeded-generator loops (no hypothesis dependency): each
property runs every registered :class:`~repro.defenses.TraceDefense` —
at its registry default *and* at dialed knob settings — against several
independently seeded simulated homes, and asserts physics rather than
pinned numbers:

* **billing energy conservation** — the visible trace's kWh cannot fall
  below the true kWh by more than the mechanism's physical budget (a
  battery can hide at most its capacity; DP noise is zero-mean so its
  shortfall is statistically bounded; CHPr's shift is exactly its
  reported ``extra_energy_kwh``; everything else preserves or adds
  energy up to windowing truncation);
* **CHPr tank physics** — the tank temperature never leaves
  ``[inlet_c, setpoint_c]`` no matter the dial position;
* **DP noise is zero-mean** within statistical tolerance;
* **the identity defense is exactly free** — zero distortion, zero
  cost, bit-identical visible trace;
* plus the universal sanity floor: visible power is finite and
  non-negative, distortion and comfort fractions are well-ranged, and a
  fixed seed reproduces the visible trace bit-for-bit.

New defenses registered via :func:`repro.core.register_defense` (and
dialed via :func:`repro.core.register_knob_mapping`) are picked up
automatically — passing this suite is the price of admission.
"""

import math

import numpy as np
import pytest

from repro.core import defense_names, knob_mapping_names, make_defense
from repro.defenses import (
    CHPrTraceDefense,
    CoarseningDefense,
    IdentityDefense,
    LaplaceReleaseDefense,
    NILLDefense,
    SmoothingDefense,
    SteppedDefense,
    laplace_noise,
)
from repro.defenses.dp import _RELEASE_PERIOD_S
from repro.home import make_preset, simulate_home

SEEDS = (0, 1, 2)
DAYS = 2

#: every registered defense, at its registry default and dialed through
#: its knob mapping (settings chosen off the registry defaults so the
#: invariants cover genuinely different configurations)
DEFENSE_VARIANTS = tuple(defense_names()) + tuple(
    f"{name}@{setting}"
    for name in knob_mapping_names()
    for setting in ("0.4", "1")
)


@pytest.fixture(scope="module")
def traces():
    """One simulated home trace per seed (shared across all properties)."""
    return {
        seed: simulate_home(make_preset("home-a", seed), DAYS, rng=seed).metered
        for seed in SEEDS
    }


def billing_allowance(defense, outcome, trace) -> float:
    """How much visible kWh may legitimately fall below true kWh.

    This is each mechanism's *physical budget*, not a tuned fudge
    factor; a defense that hides more energy than this is misbilling.
    """
    if isinstance(defense, (NILLDefense, SteppedDefense)):
        # a battery can cover demand with at most its stored capacity
        return defense.battery_config.capacity_wh / 1000.0
    if isinstance(defense, LaplaceReleaseDefense):
        # sum of n iid Laplace(b) samples has std b*sqrt(2n); 6 sigma of
        # that, converted to energy at the release period (clipping at
        # zero only ever raises the visible energy)
        cfg = defense.config
        period = max(_RELEASE_PERIOD_S, trace.period_s)
        n = math.ceil(len(trace) * trace.period_s / period)
        scale_kwh = cfg.noise_scale_w * period / 3600.0 / 1000.0
        return 6.0 * scale_kwh * math.sqrt(2.0 * n)
    if isinstance(defense, SmoothingDefense):
        # zero-padded convolution loses up to half a window at each edge
        return trace.max() * defense.window_s / 3600.0 / 1000.0
    if isinstance(defense, CoarseningDefense):
        # mean-resampling may truncate a partial trailing interval
        return trace.max() * defense.report_period_s / 3600.0 / 1000.0
    if isinstance(defense, CHPrTraceDefense):
        # CHPr's energy shift is exactly what it reports: visible must
        # hold at least true + extra (clipping only adds)
        return -outcome.extra_energy_kwh
    # identity, physical noise injection: energy only preserved or added
    return 0.0


@pytest.mark.parametrize("name", DEFENSE_VARIANTS)
class TestUniversalInvariants:
    def test_billing_energy_conserved(self, name, traces):
        for seed, trace in traces.items():
            defense = make_defense(name)
            outcome = defense.apply(trace, np.random.default_rng(seed))
            allowance = billing_allowance(defense, outcome, trace)
            assert outcome.visible.energy_kwh() >= (
                trace.energy_kwh() - allowance - 1e-9
            ), f"{name} seed={seed} hides more energy than its budget"

    def test_visible_trace_is_physical(self, name, traces):
        for seed, trace in traces.items():
            outcome = make_defense(name).apply(trace, np.random.default_rng(seed))
            values = outcome.visible.values
            assert np.all(np.isfinite(values)), f"{name} seed={seed}"
            assert values.min() >= 0.0, f"{name} seed={seed}"

    def test_reported_scalars_well_ranged(self, name, traces):
        for seed, trace in traces.items():
            outcome = make_defense(name).apply(trace, np.random.default_rng(seed))
            assert outcome.utility_distortion >= 0.0
            assert 0.0 <= outcome.comfort_violation_fraction <= 1.0
            assert math.isfinite(outcome.extra_energy_kwh)

    def test_seed_reproduces_visible_trace(self, name, traces):
        trace = traces[SEEDS[0]]
        a = make_defense(name).apply(trace, np.random.default_rng(42))
        b = make_defense(name).apply(trace, np.random.default_rng(42))
        assert np.array_equal(a.visible.values, b.visible.values), name
        assert a.extra_energy_kwh == b.extra_energy_kwh


class TestIdentityAnchor:
    def test_identity_distortion_is_exactly_zero(self, traces):
        for seed, trace in traces.items():
            outcome = IdentityDefense().apply(trace, np.random.default_rng(seed))
            assert outcome.utility_distortion == 0.0
            assert outcome.extra_energy_kwh == 0.0
            assert outcome.comfort_violation_fraction == 0.0
            assert np.array_equal(outcome.visible.values, trace.values)
            assert outcome.visible.period_s == trace.period_s

    def test_knob_setting_zero_is_identity_for_every_mapping(self, traces):
        trace = traces[SEEDS[0]]
        for name in knob_mapping_names():
            outcome = make_defense(f"{name}@0").apply(
                trace, np.random.default_rng(0)
            )
            assert outcome.utility_distortion == 0.0, name
            assert np.array_equal(outcome.visible.values, trace.values), name


class TestCHPrTankPhysics:
    @pytest.mark.parametrize("strength", [0.25, 0.6, 1.0])
    def test_tank_temperature_stays_in_bounds(self, strength, traces):
        for seed, trace in traces.items():
            defense = CHPrTraceDefense(strength=strength)
            defense.apply(trace, np.random.default_rng(seed))
            temps = defense.last_controller.last_temps_c
            assert temps.min() >= defense.heater.inlet_c - 1e-9, (
                f"strength={strength} seed={seed}: tank below inlet temp"
            )
            assert temps.max() <= defense.heater.setpoint_c + 1e-9, (
                f"strength={strength} seed={seed}: tank above setpoint"
            )

    def test_comfort_violations_stay_rare(self, traces):
        for seed, trace in traces.items():
            defense = CHPrTraceDefense()
            outcome = defense.apply(trace, np.random.default_rng(seed))
            assert outcome.comfort_violation_fraction <= 0.01

    def test_strength_validated(self):
        with pytest.raises(ValueError):
            CHPrTraceDefense(strength=0.0)
        with pytest.raises(ValueError):
            CHPrTraceDefense(strength=1.5)


class TestDPNoise:
    def test_laplace_noise_zero_mean(self):
        scale, n = 2000.0, 200_000
        for seed in SEEDS:
            noise = laplace_noise(scale, n, np.random.default_rng(seed))
            # std of the mean of n iid Laplace(b) is b*sqrt(2/n)
            tolerance = 5.0 * scale * math.sqrt(2.0 / n)
            assert abs(noise.mean()) < tolerance

    def test_laplace_noise_scale(self):
        scale, n = 500.0, 200_000
        noise = laplace_noise(scale, n, np.random.default_rng(0))
        # Laplace(b) std = b*sqrt(2)
        assert noise.std() == pytest.approx(scale * math.sqrt(2.0), rel=0.05)


def test_every_registered_defense_is_covered():
    """The suite is closed over the registry: adding a defense without a
    knob mapping (or vice versa) breaks this, on purpose."""
    assert set(defense_names()) == set(knob_mapping_names())
    for name in defense_names():
        assert name in DEFENSE_VARIANTS
