"""Tests for the NILM family: PowerPlay and FHMM."""

import numpy as np
import pytest

from repro.attacks import (
    FHMMConfig,
    FHMMDisaggregator,
    LoadKind,
    LoadSignature,
    PowerPlayTracker,
    align_truth_to_meter,
    disaggregation_error,
    fig2_signatures,
)
from repro.home import FIG2_DEVICES, fig2_home, simulate_home
from repro.home.household import HomeConfig
from repro.home.presets import _fridge, _freezer, _hrv, _toaster
from repro.timeseries import SECONDS_PER_DAY, constant


@pytest.fixture(scope="module")
def fig2_sim():
    return simulate_home(fig2_home(), 14, rng=7)


@pytest.fixture(scope="module")
def mini_sim():
    config = HomeConfig(name="mini", appliances=(_fridge(), _freezer(), _hrv()))
    return simulate_home(config, 7, rng=3)


class TestErrorMetric:
    def test_perfect_tracking_is_zero(self):
        truth = constant(100.0, 100, 60.0)
        assert disaggregation_error(truth, truth) == 0.0

    def test_always_zero_estimate_is_one(self):
        truth = constant(100.0, 100, 60.0)
        zero = truth.with_values(np.zeros(100))
        assert disaggregation_error(zero, truth) == pytest.approx(1.0)

    def test_unused_device_rejected(self):
        zero = constant(0.0, 10, 60.0)
        with pytest.raises(ValueError):
            disaggregation_error(zero, zero)

    def test_period_mismatch_rejected(self):
        with pytest.raises(ValueError):
            disaggregation_error(constant(1.0, 10, 60.0), constant(1.0, 10, 120.0))


class TestLoadSignature:
    def test_magnitude_matching(self):
        sig = LoadSignature("x", LoadKind.RESISTIVE, 1000.0, power_tolerance=0.1)
        assert sig.matches_magnitude(1050.0)
        assert sig.matches_magnitude(-950.0)
        assert not sig.matches_magnitude(1200.0)

    def test_compound_includes_motor(self):
        sig = LoadSignature(
            "dryer", LoadKind.COMPOUND, 4800.0, motor_power_w=300.0, power_tolerance=0.1
        )
        assert sig.matches_magnitude(5100.0)
        assert not sig.matches_magnitude(4000.0)

    def test_cyclic_requires_period(self):
        with pytest.raises(ValueError):
            LoadSignature("f", LoadKind.CYCLIC, 150.0)

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            LoadSignature("x", LoadKind.RESISTIVE, 100.0, power_tolerance=1.5)


class TestPowerPlay:
    def test_tracks_cyclic_loads_in_mini_home(self, mini_sim):
        tracker = PowerPlayTracker(fig2_signatures())
        result = tracker.track(mini_sim.metered)
        for device in ("fridge", "freezer"):
            truth = align_truth_to_meter(
                mini_sim.appliance_traces[device], mini_sim.metered
            )
            assert disaggregation_error(result.appliance(device), truth) < 0.45

    def test_fig2_home_errors_reasonable(self, fig2_sim):
        tracker = PowerPlayTracker(fig2_signatures())
        result = tracker.track(fig2_sim.metered)
        for device in FIG2_DEVICES:
            truth = align_truth_to_meter(
                fig2_sim.appliance_traces[device], fig2_sim.metered
            )
            error = disaggregation_error(result.appliance(device), truth)
            assert error < 0.8, f"{device}: {error}"

    def test_big_loads_tracked_best(self, fig2_sim):
        tracker = PowerPlayTracker(fig2_signatures())
        result = tracker.track(fig2_sim.metered)
        errors = {}
        for device in FIG2_DEVICES:
            truth = align_truth_to_meter(
                fig2_sim.appliance_traces[device], fig2_sim.metered
            )
            errors[device] = disaggregation_error(result.appliance(device), truth)
        assert errors["dryer"] < errors["freezer"]
        assert errors["toaster"] < errors["freezer"]

    def test_estimates_never_negative(self, fig2_sim):
        result = PowerPlayTracker(fig2_signatures()).track(fig2_sim.metered)
        for trace in result.estimates.values():
            assert trace.min() >= 0.0

    def test_duplicate_signatures_rejected(self):
        sig = fig2_signatures()[0]
        with pytest.raises(ValueError):
            PowerPlayTracker([sig, sig])

    def test_unknown_appliance_raises(self, fig2_sim):
        result = PowerPlayTracker(fig2_signatures()).track(fig2_sim.metered)
        with pytest.raises(KeyError):
            result.appliance("spaceship")


class TestFHMM:
    @pytest.fixture(scope="class")
    def trained(self, fig2_sim):
        train = {
            d: fig2_sim.appliance_traces[d].slice_time(0, 7 * SECONDS_PER_DAY)
            for d in FIG2_DEVICES
        }
        model = FHMMDisaggregator(
            FHMMConfig(states_per_appliance={"dryer": 3}), rng=0
        ).fit(train)
        test_meter = fig2_sim.metered.slice_time(
            7 * SECONDS_PER_DAY, 14 * SECONDS_PER_DAY
        )
        return model, model.disaggregate(test_meter), test_meter

    def test_all_devices_estimated(self, trained):
        _, result, _ = trained
        assert set(result.estimates) == set(FIG2_DEVICES)

    def test_small_loads_struggle_more_than_powerplay(self, fig2_sim, trained):
        """The Fig. 2 shape: model-driven beats learned FHMM on small loads."""
        _, fhmm_result, test_meter = trained
        pp_result = PowerPlayTracker(fig2_signatures()).track(fig2_sim.metered)
        wins = 0
        for device in ("toaster", "fridge", "freezer", "hrv"):
            truth_full = align_truth_to_meter(
                fig2_sim.appliance_traces[device], fig2_sim.metered
            )
            pp_err = disaggregation_error(pp_result.appliance(device), truth_full)
            truth_test = align_truth_to_meter(
                fig2_sim.appliance_traces[device].slice_time(
                    7 * SECONDS_PER_DAY, 14 * SECONDS_PER_DAY
                ),
                test_meter,
            )
            fhmm_err = disaggregation_error(fhmm_result.appliance(device), truth_test)
            if pp_err < fhmm_err:
                wins += 1
        assert wins >= 3  # PowerPlay wins on most small loads

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            FHMMDisaggregator().disaggregate(constant(100.0, 100, 60.0))

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            FHMMDisaggregator().fit({})

