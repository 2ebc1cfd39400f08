"""Coverage for remaining branches: profiling fallbacks, utility bounds,
DP aggregate validation, and dataset invariants."""

import numpy as np
import pytest

from repro.attacks import estimated_bedtime_hour, usage_hours_histogram
from repro.core.evaluation import UtilityScore
from repro.defenses import DefenseOutcome, dp_aggregate_consumption
from repro.timeseries import BinaryTrace, PowerTrace, constant


class TestPipelineMath:
    def test_utility_composite_bounds(self):
        good = UtilityScore(0.0, 0.0, 0.0)
        bad = UtilityScore(5.0, 5.0, 5000.0)
        assert good.composite() == 1.0
        assert bad.composite() == pytest.approx(0.0)


class TestProfilingFallbacks:
    def test_histogram_of_silent_device_is_zero(self):
        hist = usage_hours_histogram(constant(0.0, 1440, 60.0))
        assert hist.sum() == 0.0

    def test_bedtime_from_occupancy_only(self):
        # occupied until 22:00 each evening, empty after
        n = 3 * 1440
        values = np.ones(n, dtype=int)
        hours = (np.arange(n) * 60.0 % 86400) / 3600.0
        values[(hours >= 22.0)] = 0
        occupancy = BinaryTrace(values, 60.0)
        bedtime = estimated_bedtime_hour(occupancy, lighting=None)
        assert bedtime == pytest.approx(22.0, abs=0.1)

    def test_bedtime_no_evening_activity_raises(self):
        occupancy = BinaryTrace(np.zeros(1440, dtype=int), 60.0)
        with pytest.raises(ValueError):
            estimated_bedtime_hour(occupancy)


class TestDPAggregateValidation:
    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            dp_aggregate_consumption([], 1.0, 100.0)

    def test_invalid_epsilon_rejected(self):
        homes = [constant(100.0, 10, 60.0)]
        with pytest.raises(ValueError):
            dp_aggregate_consumption(homes, 0.0, 100.0)

    def test_output_nonnegative(self):
        homes = [constant(1.0, 50, 60.0) for _ in range(3)]
        out = dp_aggregate_consumption(homes, 0.01, 1000.0, rng=0)
        assert out.min() >= 0.0

    def test_uses_shortest_home(self):
        homes = [constant(1.0, 50, 60.0), constant(1.0, 30, 60.0)]
        out = dp_aggregate_consumption(homes, 10.0, 10.0, rng=1)
        assert len(out) == 30


class TestDefenseOutcomeDefaults:
    def test_defaults(self):
        outcome = DefenseOutcome(visible=constant(1.0, 10, 60.0))
        assert outcome.extra_energy_kwh == 0.0
        assert outcome.comfort_violation_fraction == 0.0
        assert outcome.utility_distortion == 0.0
