"""Unit and property tests for the time-series substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeseries import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    BinaryTrace,
    PowerTrace,
    TraceError,
    constant,
    daily_profile,
    detect_edges,
    pair_edges,
    window_features,
    zeros_like,
)


def make_trace(values, period_s=60.0, start_s=0.0):
    return PowerTrace(np.asarray(values, dtype=float), period_s, start_s)


class TestPowerTraceStructure:
    def test_basic_properties(self):
        trace = make_trace([1.0, 2.0, 3.0])
        assert len(trace) == 3
        assert trace.duration_s == 180.0
        assert trace.end_s == 180.0

    def test_times_are_left_edges(self):
        trace = make_trace([0, 0, 0], period_s=10.0, start_s=100.0)
        assert list(trace.times()) == [100.0, 110.0, 120.0]

    def test_rejects_negative_period(self):
        with pytest.raises(TraceError):
            make_trace([1.0], period_s=-1.0)

    def test_rejects_2d_values(self):
        with pytest.raises(TraceError):
            PowerTrace(np.zeros((2, 2)), 60.0)

    def test_rejects_nan(self):
        with pytest.raises(TraceError):
            make_trace([1.0, float("nan")])

    def test_hours_of_day_wraps(self):
        trace = make_trace([0, 0], period_s=SECONDS_PER_HOUR, start_s=23 * SECONDS_PER_HOUR)
        hours = trace.hours_of_day()
        assert hours[0] == 23.0
        assert hours[1] == 0.0


class TestSliceResample:
    def test_slice_time(self):
        trace = make_trace(range(10), period_s=60.0)
        part = trace.slice_time(120.0, 300.0)
        assert list(part.values) == [2.0, 3.0, 4.0]
        assert part.start_s == 120.0

    def test_slice_outside_raises(self):
        trace = make_trace(range(4))
        with pytest.raises(TraceError):
            trace.slice_time(1000.0, 2000.0)

    def test_day_extraction(self):
        samples_per_day = SECONDS_PER_DAY // 60
        trace = make_trace(range(2 * samples_per_day))
        day1 = trace.day(1)
        assert day1.start_s == SECONDS_PER_DAY
        assert len(day1) == samples_per_day

    def test_resample_mean(self):
        trace = make_trace([1, 3, 5, 7], period_s=60.0)
        coarse = trace.resample(120.0)
        assert list(coarse.values) == [2.0, 6.0]
        assert coarse.period_s == 120.0

    def test_resample_preserves_energy(self):
        rng = np.random.default_rng(0)
        trace = make_trace(rng.uniform(0, 1000, 120), period_s=60.0)
        coarse = trace.resample(600.0)
        assert coarse.energy_kwh() == pytest.approx(trace.energy_kwh())

    def test_resample_drops_partial_block(self):
        trace = make_trace([1, 2, 3, 4, 5], period_s=60.0)
        coarse = trace.resample(120.0)
        assert len(coarse) == 2

    def test_resample_non_multiple_raises(self):
        trace = make_trace([1, 2, 3])
        with pytest.raises(TraceError):
            trace.resample(90.0)

    def test_resample_unknown_reducer_raises(self):
        trace = make_trace([1, 2, 3, 4], period_s=60.0)
        with pytest.raises(TraceError, match="unknown reducer"):
            trace.resample(120.0, reducer="median")

    def test_resample_unknown_reducer_raises_even_without_downsampling(self):
        # Regression: block == 1 used to return self before validating the
        # reducer, so a typo'd reducer passed silently when no resampling
        # was needed.
        trace = make_trace([1, 2, 3, 4], period_s=60.0)
        with pytest.raises(TraceError, match="unknown reducer"):
            trace.resample(60.0, reducer="median")
        # the valid-reducer fast path still returns the trace unchanged
        assert trace.resample(60.0) is trace

    def test_windows(self):
        trace = make_trace(range(10), period_s=60.0)
        windows = list(trace.windows(180.0))
        assert len(windows) == 3
        assert list(windows[1].values) == [3.0, 4.0, 5.0]


class TestArithmetic:
    def test_add_sub(self):
        a = make_trace([1, 2, 3])
        b = make_trace([10, 20, 30])
        assert list((a + b).values) == [11.0, 22.0, 33.0]
        assert list((b - a).values) == [9.0, 18.0, 27.0]

    def test_misaligned_raises(self):
        a = make_trace([1, 2, 3])
        b = make_trace([1, 2, 3], start_s=60.0)
        with pytest.raises(TraceError):
            _ = a + b

    def test_energy(self):
        # 1000 W for one hour = 1 kWh
        trace = constant(1000.0, 60, 60.0)
        assert trace.energy_kwh() == pytest.approx(1.0)

    def test_clipped(self):
        trace = make_trace([-5.0, 5.0])
        assert list(trace.clipped().values) == [0.0, 5.0]


class TestConcatHelpers:
    def test_zeros_like(self):
        trace = make_trace([5, 6])
        z = zeros_like(trace)
        assert list(z.values) == [0.0, 0.0]
        assert z.period_s == trace.period_s


class TestBinaryTrace:
    def test_validation(self):
        with pytest.raises(TraceError):
            BinaryTrace(np.asarray([0, 2]), 60.0)

    def test_fraction(self):
        trace = BinaryTrace(np.asarray([1, 1, 0, 0]), 60.0)
        assert trace.fraction_true() == 0.5

    def test_intervals(self):
        trace = BinaryTrace(np.asarray([0, 1, 1, 0, 1]), 60.0)
        assert trace.intervals() == [(60.0, 180.0), (240.0, 300.0)]

    def test_resample_majority(self):
        trace = BinaryTrace(np.asarray([1, 1, 0, 0, 0, 1]), 60.0)
        coarse = trace.resample(180.0)
        assert list(coarse.values) == [1, 0]

    def test_align_to(self):
        occ = BinaryTrace(np.ones(10, dtype=int), 60.0)
        power = make_trace(range(5), period_s=120.0)
        aligned = occ.align_to(power)
        assert len(aligned) == 5
        assert aligned.period_s == 120.0


class TestEdges:
    def test_detects_single_step(self):
        values = [100.0] * 10 + [1100.0] * 10
        edges = detect_edges(make_trace(values), min_delta_w=500.0)
        assert len(edges) == 1
        assert edges[0].is_rising
        assert edges[0].delta_w == pytest.approx(1000.0)
        assert edges[0].index == 10

    def test_noise_below_threshold_ignored(self):
        rng = np.random.default_rng(1)
        values = 100.0 + rng.normal(0, 5, 100)
        assert detect_edges(make_trace(values), min_delta_w=50.0) == []

    def test_rise_and_fall_pair(self):
        values = [0.0] * 5 + [1000.0] * 5 + [0.0] * 5
        edges = detect_edges(make_trace(values), min_delta_w=500.0)
        pairs = pair_edges(edges, tolerance_w=100.0)
        assert len(pairs) == 1
        rise, fall = pairs[0]
        assert rise.is_rising and not fall.is_rising

    def test_pairing_respects_tolerance(self):
        values = [0.0] * 5 + [1000.0] * 5 + [500.0] * 5
        edges = detect_edges(make_trace(values), min_delta_w=300.0)
        pairs = pair_edges(edges, tolerance_w=100.0)
        assert pairs == []  # -500 fall does not match +1000 rise


class TestStats:
    def test_window_features_shape(self):
        trace = make_trace(range(60))
        feats = window_features(trace, 600.0)
        assert feats.shape == (6, 4)

    def test_daily_profile(self):
        samples = SECONDS_PER_DAY // 3600
        values = np.arange(samples, dtype=float)
        trace = make_trace(values, period_s=3600.0)
        profile = daily_profile(trace, bins_per_day=24)
        assert profile[0] == 0.0
        assert profile[23] == 23.0


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=4, max_size=200),
    st.sampled_from([2, 4]),
)
@settings(max_examples=50, deadline=None)
def test_resample_energy_conservation_property(values, block):
    """Downsampling by block means never changes total energy of whole blocks."""
    trace = make_trace(values, period_s=60.0)
    n_whole = (len(values) // block) * block
    whole = make_trace(values[:n_whole], period_s=60.0)
    coarse = trace.resample(60.0 * block)
    assert coarse.energy_kwh() == pytest.approx(whole.energy_kwh(), rel=1e-9, abs=1e-12)


@given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_binary_intervals_cover_exactly_the_ones(bits):
    trace = BinaryTrace(np.asarray(bits), 60.0)
    covered = sum(int(round((b - a) / 60.0)) for a, b in trace.intervals())
    assert covered == sum(bits)
