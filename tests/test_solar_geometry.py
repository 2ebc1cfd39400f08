"""Tests for solar geometry, weather, and PV generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solar import (
    LatLon,
    PVArrayConfig,
    SolarSite,
    WeatherField,
    WeatherStationDB,
    clearsky_ghi_w_m2,
    declination_rad,
    equation_of_time_minutes,
    haversine_km,
    simulate_generation,
    sun_position,
)
from repro.timeseries import SECONDS_PER_DAY, SECONDS_PER_HOUR


class TestGeo:
    def test_haversine_zero(self):
        p = LatLon(42.0, -72.0)
        assert haversine_km(p, p) == 0.0

    def test_haversine_known_distance(self):
        # one degree of latitude is ~111 km
        a, b = LatLon(40.0, -100.0), LatLon(41.0, -100.0)
        assert haversine_km(a, b) == pytest.approx(111.2, rel=0.01)

    def test_haversine_symmetry(self):
        a, b = LatLon(42.39, -72.53), LatLon(33.45, -112.07)
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))

    def test_latlon_validation(self):
        with pytest.raises(ValueError):
            LatLon(91.0, 0.0)
        with pytest.raises(ValueError):
            LatLon(0.0, 200.0)


class TestAstronomy:
    def test_declination_range(self):
        days = np.arange(1, 366)
        dec_deg = np.degrees(declination_rad(days))
        assert dec_deg.max() == pytest.approx(23.45, abs=0.5)
        assert dec_deg.min() == pytest.approx(-23.45, abs=0.5)

    def test_declination_solstices(self):
        # ~June 21 (day 172) max, ~Dec 21 (day 355) min
        dec = np.degrees(declination_rad(np.arange(1, 366)))
        assert abs(int(dec.argmax()) + 1 - 172) <= 4
        assert abs(int(dec.argmin()) + 1 - 355) <= 4

    def test_equation_of_time_bounds(self):
        eot = equation_of_time_minutes(np.arange(1, 366))
        assert eot.max() < 18.0 and eot.min() > -16.0

    def test_sun_elevation_peaks_at_solar_noon(self):
        times = np.arange(0, SECONDS_PER_DAY, 60.0) + 100 * SECONDS_PER_DAY
        el, _ = sun_position(times, 42.0, 0.0)
        peak_hour = (times[el.argmax()] % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        assert peak_hour == pytest.approx(12.0, abs=0.3)

    def test_clearsky_zero_below_horizon(self):
        assert clearsky_ghi_w_m2(np.asarray([-0.1]))[0] == 0.0

    def test_clearsky_monotone_in_elevation(self):
        els = np.radians(np.asarray([5.0, 20.0, 45.0, 80.0]))
        ghi = clearsky_ghi_w_m2(els)
        assert np.all(np.diff(ghi) > 0)
        assert ghi[-1] < 1100.0  # physical ceiling


class TestWeather:
    def test_cloud_in_unit_interval(self):
        field = WeatherField()
        times = np.arange(0, 5 * SECONDS_PER_DAY, 3600.0)
        cloud = field.cloud_cover(LatLon(40.0, -100.0), times)
        assert np.all(cloud >= 0.0) and np.all(cloud <= 1.0)

    def test_deterministic_given_seed(self):
        a = WeatherField(seed=7)
        b = WeatherField(seed=7)
        times = np.arange(0, SECONDS_PER_DAY, 1800.0)
        site = LatLon(40.0, -100.0)
        assert np.array_equal(a.cloud_cover(site, times), b.cloud_cover(site, times))

    def test_different_seeds_differ(self):
        times = np.arange(0, SECONDS_PER_DAY, 1800.0)
        site = LatLon(40.0, -100.0)
        a = WeatherField(seed=1).cloud_cover(site, times)
        b = WeatherField(seed=2).cloud_cover(site, times)
        assert not np.array_equal(a, b)

    def test_spatial_correlation_decays(self):
        field = WeatherField()
        times = np.arange(0, 30 * SECONDS_PER_DAY, 3600.0)
        base = field.cloud_cover(LatLon(40.0, -100.0), times)
        near = field.cloud_cover(LatLon(40.05, -100.0), times)
        far = field.cloud_cover(LatLon(48.0, -80.0), times)
        corr_near = np.corrcoef(base, near)[0, 1]
        corr_far = np.corrcoef(base, far)[0, 1]
        assert corr_near > 0.9
        assert corr_far < corr_near - 0.2

    def test_transmittance_bounds(self):
        field = WeatherField()
        times = np.arange(0, 10 * SECONDS_PER_DAY, 3600.0)
        trans = field.transmittance(LatLon(35.0, -90.0), times)
        assert np.all(trans >= 0.25 - 1e-9) and np.all(trans <= 1.0)

    def test_station_db_grid(self):
        db = WeatherStationDB(WeatherField(), (30.0, 32.0), (-100.0, -98.0), 1.0)
        assert len(db) == 9
        reading = db.readings(db.stations[0], np.asarray([0.0, 3600.0]))
        assert reading.shape == (2,)


class TestGeneration:
    def test_zero_at_night(self):
        site = SolarSite("s", LatLon(42.0, -72.0))
        gen = simulate_generation(site, 2, 60.0, rng=0)
        hours = (gen.times() % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        # local solar midnight is ~04:50 UTC for lon -72
        night = (hours > 4.0) & (hours < 6.0)
        assert gen.values[night].max() == 0.0

    def test_power_capped_at_capacity(self):
        site = SolarSite("s", LatLon(35.0, -100.0), PVArrayConfig(capacity_w=5000.0))
        gen = simulate_generation(site, 5, 60.0, rng=1)
        assert gen.max() <= 5000.0 + 1e-6

    def test_clouds_reduce_energy(self):
        site = SolarSite("s", LatLon(40.0, -95.0), PVArrayConfig(noise_w=0.0))
        clear = simulate_generation(site, 10, 60.0, weather=None, rng=2)
        cloudy = simulate_generation(site, 10, 60.0, weather=WeatherField(), rng=2)
        assert cloudy.energy_kwh() < clear.energy_kwh()

    def test_horizon_obstruction_delays_morning(self):
        loc = LatLon(40.0, -95.0)
        free = SolarSite("a", loc, PVArrayConfig(noise_w=0.0))
        blocked = SolarSite(
            "b", loc, PVArrayConfig(noise_w=0.0, horizon_east_deg=15.0)
        )
        g_free = simulate_generation(free, 1, 60.0, rng=3)
        g_blocked = simulate_generation(blocked, 1, 60.0, rng=3)
        threshold = 0.1 * g_free.max()
        first_free = np.flatnonzero(g_free.values > threshold)[0]
        first_blocked = np.flatnonzero(g_blocked.values > threshold)[0]
        assert first_blocked > first_free

    def test_summer_generates_more_than_winter(self):
        site = SolarSite("s", LatLon(42.0, -72.0), PVArrayConfig(noise_w=0.0))
        winter = simulate_generation(site, 5, 60.0, rng=4, start_day=0)
        summer = simulate_generation(site, 5, 60.0, rng=4, start_day=170)
        assert summer.energy_kwh() > 1.5 * winter.energy_kwh()

    def test_south_facing_beats_north_facing(self):
        loc = LatLon(40.0, -95.0)
        south = SolarSite("s", loc, PVArrayConfig(azimuth_deg=180.0, noise_w=0.0))
        north = SolarSite("n", loc, PVArrayConfig(azimuth_deg=0.0, noise_w=0.0))
        g_s = simulate_generation(south, 5, 60.0, rng=5)
        g_n = simulate_generation(north, 5, 60.0, rng=5)
        assert g_s.energy_kwh() > g_n.energy_kwh()

    def test_invalid_period_rejected(self):
        site = SolarSite("s", LatLon(40.0, -95.0))
        with pytest.raises(ValueError):
            simulate_generation(site, 1, 7.0, rng=0)  # 7 s does not divide a day


@given(
    st.floats(min_value=-89.0, max_value=89.0),
    st.floats(min_value=-179.0, max_value=179.0),
    st.floats(min_value=-89.0, max_value=89.0),
    st.floats(min_value=-179.0, max_value=179.0),
)
@settings(max_examples=60, deadline=None)
def test_haversine_triangle_inequality_property(lat1, lon1, lat2, lon2):
    a, b = LatLon(lat1, lon1), LatLon(lat2, lon2)
    mid = LatLon((lat1 + lat2) / 2, (lon1 + lon2) / 2)
    assert haversine_km(a, b) <= haversine_km(a, mid) + haversine_km(mid, b) + 1e-6
