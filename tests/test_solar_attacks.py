"""Tests for SunSpot, Weatherman, and SunDance."""

import numpy as np
import pytest

from repro.home import MeterConfig, NetMeter, simulate_home, home_a
from repro.solar import (
    LatLon,
    PVArrayConfig,
    SolarSite,
    SunDance,
    SunSpot,
    WeatherField,
    WeatherStationDB,
    Weatherman,
    cloud_proxy_from_generation,
    extract_day_observations,
    simulate_generation,
)
from repro.timeseries import SECONDS_PER_DAY

SITE = SolarSite("test-site", LatLon(42.39, -72.53))


@pytest.fixture(scope="module")
def weather():
    return WeatherField()


@pytest.fixture(scope="module")
def year_trace(weather):
    return simulate_generation(SITE, 365, 60.0, weather, rng=0)


class TestObservationExtraction:
    def test_extracts_one_observation_per_clear_day(self):
        site = SolarSite("s", LatLon(42.0, -72.0), PVArrayConfig(noise_w=0.0))
        gen = simulate_generation(site, 20, 60.0, rng=1)
        obs = extract_day_observations(gen)
        # local-solar-day windows drop a boundary day at western longitudes
        assert len(obs) in (19, 20)

    def test_start_before_end(self, year_trace):
        for o in extract_day_observations(year_trace):
            assert o.start_utc_h < o.end_utc_h

    def test_day_length_tracks_season(self):
        site = SolarSite("s", LatLon(45.0, -90.0), PVArrayConfig(noise_w=0.0))
        gen = simulate_generation(site, 365, 60.0, rng=2)
        obs = extract_day_observations(gen)
        lengths = {o.day_index: o.end_utc_h - o.start_utc_h for o in obs}
        assert lengths[171] > lengths[354] + 4.0  # summer much longer

    def test_overcast_days_skipped(self, weather):
        gen = simulate_generation(SITE, 60, 60.0, weather, rng=3)
        obs = extract_day_observations(gen)
        assert len(obs) < 60  # some days were too cloudy

    def test_zero_trace_returns_empty(self):
        from repro.timeseries import constant

        assert extract_day_observations(constant(0.0, 2880, 60.0)) == []


def fast_sunspot() -> SunSpot:
    """SunSpot with a reduced search budget for the unit tests.

    The full-budget default (9x9 grid, 4 refine levels, 4x5 model
    candidates) costs ~20 s per localization regardless of trace size —
    the grid search dominates, not the trace — which made this file the
    whole suite's long pole.  7x7/3-level search with the empirically
    winning threshold/beam candidates is ~4x faster and stays well
    inside every accuracy bound below; the full-budget search remains
    exercised by ``benchmarks/test_fig5_localization.py``.
    """
    return SunSpot(
        grid_per_side=7,
        refine_levels=3,
        threshold_candidates=(12.0, 25.0),
        beam_boost_candidates=(0.0, 0.8, 1.6),
    )


@pytest.fixture(scope="module")
def cloudy_localization(year_trace):
    """One shared localization of the cloudy site (two tests assert on it)."""
    return fast_sunspot().localize(year_trace)


class TestSunSpot:
    def test_localizes_clean_site_within_tens_of_km(self):
        site = SolarSite("clean", LatLon(42.39, -72.53), PVArrayConfig(noise_w=0.0))
        gen = simulate_generation(site, 365, 60.0, rng=0)
        result = fast_sunspot().localize(gen)
        assert result.error_km(site.location) < 60.0

    def test_localizes_cloudy_site(self, cloudy_localization):
        assert cloudy_localization.error_km(SITE.location) < 120.0

    def test_longitude_is_precise(self, cloudy_localization):
        assert abs(cloudy_localization.estimate.lon - SITE.location.lon) < 0.3

    def test_hard_site_still_bounded(self, weather):
        # a skewed-azimuth, horizon-blocked array: the dawn model's beam
        # term absorbs much of the bias, so the estimate stays in-region
        # (which of the ten Fig. 5 sites end up as outliers is determined
        # empirically by the benchmark and recorded in EXPERIMENTS.md)
        hard = SolarSite(
            "hard",
            LatLon(44.0, -90.0),
            PVArrayConfig(azimuth_deg=115.0, horizon_east_deg=12.0),
        )
        gen = simulate_generation(hard, 365, 60.0, weather, rng=7)
        result = fast_sunspot().localize(gen)
        assert result.error_km(hard.location) < 400.0

    def test_too_few_days_raises(self):
        gen = simulate_generation(SITE, 10, 60.0, weather=None, rng=1)
        short = gen.slice_time(0, 3 * SECONDS_PER_DAY)
        with pytest.raises(ValueError):
            SunSpot().localize(short)


class TestWeatherman:
    def test_cloud_proxy_shape(self, year_trace):
        proxy = cloud_proxy_from_generation(year_trace)
        assert len(proxy.times_s) == len(proxy.values)
        assert np.all(proxy.values >= 0.0) and np.all(proxy.values <= 1.0)

    def test_proxy_needs_enough_days(self, year_trace):
        short = year_trace.slice_time(0, 5 * SECONDS_PER_DAY)
        with pytest.raises(ValueError):
            cloud_proxy_from_generation(short)

    def test_localizes_with_hourly_data(self, weather, year_trace):
        stations = WeatherStationDB(
            weather, (SITE.location.lat - 4, SITE.location.lat + 4),
            (SITE.location.lon - 4, SITE.location.lon + 4), 1.0
        )
        hourly = year_trace.resample(3600.0)
        result = Weatherman(stations).localize(hourly)
        assert result.error_km(SITE.location) < 30.0

    def test_localizes_hard_site(self, weather):
        hard = SolarSite(
            "hard",
            LatLon(44.0, -90.0),
            PVArrayConfig(azimuth_deg=115.0, horizon_east_deg=12.0),
        )
        gen = simulate_generation(hard, 180, 60.0, weather, rng=7).resample(3600.0)
        stations = WeatherStationDB(weather, (40.0, 48.0), (-94.0, -86.0), 1.0)
        result = Weatherman(stations).localize(gen)
        # robust where SunSpot is not: weather correlation ignores geometry
        assert result.error_km(hard.location) < 40.0


class TestSunDance:
    def test_recovers_generation_and_consumption(self, weather):
        home = simulate_home(home_a(), 30, rng=11)
        gen = simulate_generation(SITE, 30, 60.0, weather, rng=12)
        net = NetMeter(MeterConfig(noise_std_w=5.0)).observe_net(home.total, gen, 13)
        est = SunDance().disaggregate(net)
        n = len(est.generation)
        gen_err = np.abs(est.generation.values - gen.resample(60.0).values[:n]).sum()
        assert gen_err / gen.values.sum() < 0.3
        # consumption must be non-negative and roughly conserve energy
        assert est.consumption.min() >= 0.0
        total_true = home.total.energy_kwh()
        assert est.consumption.energy_kwh() == pytest.approx(total_true, rel=0.5)

    def test_weather_aided_also_accurate(self, weather):
        # the weather-aided variant replaces the trace's own deficit signal
        # with the public weather service at a (Weatherman-) inferred
        # location; both must recover generation well (the trace's own
        # deficit is itself an excellent transmittance estimate, so aided
        # is not necessarily better — it matters for bursty homes whose
        # load masks the deficit)
        home = simulate_home(home_a(), 30, rng=14)
        gen = simulate_generation(SITE, 30, 60.0, weather, rng=15)
        net = NetMeter(MeterConfig(noise_std_w=5.0)).observe_net(home.total, gen, 16)
        stations = WeatherStationDB(weather, (40.0, 45.0), (-75.0, -70.0), 1.0)
        blind = SunDance().disaggregate(net)
        aided = SunDance(location=SITE.location, weather=stations).disaggregate(net)
        truth = gen.resample(60.0).values[: len(blind.generation)]
        err_blind = np.abs(blind.generation.values - truth).sum() / truth.sum()
        err_aided = np.abs(aided.generation.values - truth).sum() / truth.sum()
        assert err_blind < 0.3
        assert err_aided < 0.4

    def test_needs_a_week(self):
        from repro.timeseries import constant

        with pytest.raises(ValueError):
            SunDance().disaggregate(constant(100.0, 1440, 60.0))

    def test_location_without_weather_rejected(self):
        with pytest.raises(ValueError):
            SunDance(location=LatLon(0, 0), weather=None)
