"""Edge-case and failure-injection tests across packages."""

import numpy as np
import pytest

from repro.defenses.dp import laplace_noise
from repro.home import (
    DrawConfig,
    MeterConfig,
    OccupancyConfig,
    SmartMeter,
    generate_draws,
    simulate_occupancy,
)
from repro.solar import LatLon, WeatherField, WeatherStationDB
from repro.timeseries import (
    PowerTrace,
    constant,
    detect_edges,
    pair_edges,
)


class TestEdgeDetectionEdgeCases:
    def test_pair_edges_respects_max_gap(self):
        values = [0.0] * 5 + [1000.0] * 200 + [0.0] * 5
        trace = PowerTrace(np.asarray(values), 60.0)
        edges = detect_edges(trace, min_delta_w=500.0)
        assert pair_edges(edges, tolerance_w=100.0, max_gap_s=60.0) == []
        assert len(pair_edges(edges, tolerance_w=100.0, max_gap_s=60.0 * 500)) == 1

    def test_detect_edges_invalid_params(self):
        trace = constant(1.0, 10, 60.0)
        with pytest.raises(ValueError):
            detect_edges(trace, min_delta_w=0.0)
        with pytest.raises(ValueError):
            detect_edges(trace, min_delta_w=10.0, settle_samples=0)

    def test_monotone_ramp_has_no_pairs(self):
        # a slow ramp: every edge is rising, nothing to pair
        values = np.arange(0.0, 5000.0, 100.0)
        trace = PowerTrace(values, 60.0)
        edges = detect_edges(trace, min_delta_w=50.0)
        assert pair_edges(edges) == []


class TestMeterFailureInjection:
    def test_dropout_carries_forward(self):
        rng_trace = np.random.default_rng(0).uniform(0, 1000, 5000)
        trace = PowerTrace(rng_trace, 60.0)
        meter = SmartMeter(MeterConfig(noise_std_w=0.0, quantum_w=0.0,
                                       dropout_probability=0.3))
        observed = meter.observe(trace, rng=1)
        repeats = np.sum(observed.values[1:] == observed.values[:-1])
        assert repeats > 1000  # many carried-forward samples

    def test_full_dropout_invalid(self):
        with pytest.raises(ValueError):
            MeterConfig(dropout_probability=1.0)

    def test_zero_noise_zero_quantum_is_exact(self):
        trace = constant(123.456, 100, 60.0)
        meter = SmartMeter(MeterConfig(noise_std_w=0.0, quantum_w=0.0))
        observed = meter.observe(trace, rng=2)
        assert np.allclose(observed.values, 123.456)


class TestDrawsAndOccupancyEdgeCases:
    def test_draw_config_appliance_draws(self):
        occ = simulate_occupancy(OccupancyConfig(), 10, 60.0, rng=0)
        few = generate_draws(occ, np.random.default_rng(1),
                             DrawConfig(appliance_draws_per_day=0.0))
        many = generate_draws(occ, np.random.default_rng(1),
                              DrawConfig(appliance_draws_per_day=5.0))
        assert many.sum() > few.sum()

    def test_single_day_occupancy(self):
        occ = simulate_occupancy(OccupancyConfig(), 1, 60.0, rng=5)
        assert len(occ) == 1440

    def test_occupancy_invalid_period(self):
        with pytest.raises(ValueError):
            simulate_occupancy(OccupancyConfig(), 1, 7.0, rng=0)


class TestDPNoiseEdgeCases:
    def test_zero_scale_is_zero(self):
        rng = np.random.default_rng(0)
        assert np.all(laplace_noise(0.0, 10, rng) == 0.0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_noise(-1.0, 10, np.random.default_rng(0))

    def test_scale_controls_spread(self):
        rng = np.random.default_rng(1)
        small = laplace_noise(10.0, 5000, rng)
        large = laplace_noise(1000.0, 5000, rng)
        assert large.std() > 10 * small.std()


class TestWeatherDBEdgeCases:
    def test_station_readings_match_field(self):
        field = WeatherField()
        db = WeatherStationDB(field, (40.0, 41.0), (-100.0, -99.0), 1.0)
        station = db.stations[0]
        times = np.arange(0, 86400, 3600.0)
        assert np.array_equal(
            db.readings(station, times), field.cloud_cover(station.location, times)
        )

    def test_cloud_at_interpolates_anywhere(self):
        field = WeatherField()
        db = WeatherStationDB(field, (40.0, 41.0), (-100.0, -99.0), 1.0)
        times = np.arange(0, 86400, 3600.0)
        off_grid = LatLon(40.37, -99.61)
        values = db.cloud_at(off_grid, times)
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_invalid_spacing_rejected(self):
        with pytest.raises(ValueError):
            WeatherStationDB(WeatherField(), spacing_deg=0.0)
