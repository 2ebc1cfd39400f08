"""Tests for the core pipeline, knob, registries, and datasets."""

import os
import pickle

import numpy as np
import pytest

from repro.core import (
    DEFAULT_DETECTORS,
    PrivacyKnob,
    RegistryError,
    analytics_utility,
    defense_names,
    dial_violations,
    evaluate_defense_outcome,
    make_defense,
    niom_attack_names,
    occupancy_privacy,
    register_defense,
    run_pipeline,
    sweep_knob,
)
from repro.datasets import (
    fig1_dataset,
    fig2_dataset,
    load_trace_csv,
    population_dataset,
    save_trace_csv,
)
from repro.defenses import (
    BatteryConfig,
    CoarseningDefense,
    DefenseOutcome,
    NILLDefense,
    NoiseInjectionDefense,
)
from repro.home import home_a, simulate_home
from repro.timeseries import PowerTrace, TraceError, constant


@pytest.fixture(scope="module")
def sim():
    return simulate_home(home_a(), 7, rng=2)


class TestEvaluation:
    def test_privacy_score_structure(self, sim):
        score = occupancy_privacy(sim.metered, sim.occupancy)
        assert set(score.per_detector_mcc) == {n for n, _ in DEFAULT_DETECTORS}
        assert score.worst_case_mcc == max(score.per_detector_mcc.values())

    def test_utility_of_identity_is_high(self, sim):
        utility = analytics_utility(sim.metered, sim.metered)
        assert utility.composite() > 0.97
        assert utility.energy_error_fraction == 0.0

    def test_utility_penalizes_distortion(self, sim):
        doubled = sim.metered.scaled(2.0)
        utility = analytics_utility(doubled, sim.metered)
        assert utility.composite() < 0.8

    def test_evaluate_defense_outcome(self, sim):
        outcome = NILLDefense().apply(sim.metered)
        point = evaluate_defense_outcome("nill", outcome, sim.metered, sim.occupancy)
        assert point.defense == "nill"
        summary = point.summary()
        assert {"worst_case_mcc", "utility", "extra_energy_kwh"} <= set(summary)


class TestRegistry:
    def test_builtins_present(self):
        assert {"nill", "stepped", "dp-laplace"} <= set(defense_names())
        assert {"threshold-15m", "hmm"} <= set(niom_attack_names())

    def test_make_defense(self):
        defense = make_defense("nill")
        assert defense.name == "nill"

    def test_unknown_name_raises(self):
        with pytest.raises(RegistryError):
            make_defense("nonexistent")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError):
            register_defense("nill", lambda: NILLDefense())

    def test_custom_registration(self):
        from repro.core import registry

        register_defense("test-custom-defense", lambda: NILLDefense())
        try:
            assert "test-custom-defense" in defense_names()
            assert make_defense("test-custom-defense") is not None
        finally:
            # the registry is module-global: leaking the entry would break
            # registry-closure checks elsewhere (test_defense_invariants)
            registry._DEFENSES.pop("test-custom-defense", None)


class TestPipeline:
    def test_runs_all_defenses(self, sim):
        result = run_pipeline(sim, rng=0)
        assert set(result.defenses) >= {"nill", "dp-laplace", "smoothing"}
        assert result.baseline.privacy.worst_case_mcc > 0.2

    def test_mcc_reduction_computation(self, sim):
        result = run_pipeline(sim, defense_names=["dp-laplace"], rng=1)
        defended = result.defenses["dp-laplace"].privacy.worst_case_mcc
        assert defended < result.baseline.privacy.worst_case_mcc

    def test_subset_of_defenses(self, sim):
        result = run_pipeline(sim, defense_names=["nill"], rng=2)
        assert set(result.defenses) == {"nill"}


class TestKnob:
    def test_setting_zero_is_identity(self, sim):
        knob = PrivacyKnob()
        outcome = knob.apply(sim.metered, 0.0, rng=0)
        assert np.array_equal(outcome.visible.values, sim.metered.values)

    def test_invalid_setting_rejected(self, sim):
        with pytest.raises(ValueError):
            PrivacyKnob().apply(sim.metered, 1.5)

    def test_stack_grows_with_setting(self):
        knob = PrivacyKnob()
        assert len(knob.defenses_for(0.0)) == 0
        assert len(knob.defenses_for(0.5)) >= 1
        assert len(knob.defenses_for(1.0)) == 3

    #: defenses_for(s) at s = 0, 0.05, ..., 1: (coarsening report period,
    #: noise std, battery Wh), None where the stage is off
    STAGES = [
        (None, None, None),
        (None, None, None),
        (120.0, None, None),
        (120.0, None, None),
        (120.0, None, None),
        (180.0, None, None),
        (180.0, None, None),
        (300.0, 3.4160708450004815e-14, None),
        (300.0, 30.769230769230795, None),
        (300.0, 61.538461538461554, None),
        (600.0, 92.3076923076923, None),
        (600.0, 123.07692307692311, None),
        (600.0, 153.8461538461539, None),
        (900.0, 184.6153846153846, None),
        (900.0, 215.38461538461542, 428.57142857142895),
        (900.0, 246.15384615384616, 857.1428571428569),
        (1800.0, 276.92307692307696, 1285.714285714286),
        (1800.0, 307.69230769230774, 1714.285714285715),
        (1800.0, 338.46153846153845, 2142.857142857143),
        (3600.0, 369.2307692307692, 2571.428571428572),
        (3600.0, 400.0, 3000.0),
    ]

    PARAMS = {
        CoarseningDefense: ("report_period_s",),
        NoiseInjectionDefense: ("std_w", "physical"),
        NILLDefense: ("battery_config", "window_s"),
    }

    def test_stages_pinned_across_the_dial(self):
        knob = PrivacyKnob()
        for setting, (period, std, wh) in zip(np.linspace(0, 1, 21), self.STAGES):
            expected = []
            if period is not None:
                expected.append((CoarseningDefense, period))
            if std is not None:
                expected.append((NoiseInjectionDefense, std, True))
            if wh is not None:
                battery = BatteryConfig(
                    capacity_wh=wh,
                    max_charge_w=3000.0,
                    max_discharge_w=3000.0,
                    efficiency=0.9,
                    initial_soc=0.5,
                )
                expected.append((NILLDefense, battery, 3600.0))
            stages = [
                (type(d), *(getattr(d, p) for p in self.PARAMS[type(d)]))
                for d in knob.defenses_for(float(setting))
            ]
            assert stages == expected, setting

    def test_frontier_monotone_trend(self, sim):
        points = sweep_knob(
            PrivacyKnob(), sim.metered, sim.occupancy, settings=[0.0, 0.5, 1.0], rng=3
        )
        mccs = [p.privacy.worst_case_mcc for p in points]
        utils = [p.utility.composite() for p in points]
        assert mccs[-1] < mccs[0]  # more privacy at full knob
        assert utils[-1] < utils[0]  # paid for with utility

    def test_full_knob_substantially_masks(self, sim):
        points = sweep_knob(
            PrivacyKnob(), sim.metered, sim.occupancy, settings=[0.0, 1.0], rng=4
        )
        # NILL's adaptive target still tracks demand at low frequency, so
        # some occupancy structure survives even the full stack — masking
        # is substantial but not total (that is what CHPr adds)
        assert points[1].privacy.worst_case_mcc < 0.7 * points[0].privacy.worst_case_mcc


class TestDialViolations:
    """The running-minimum rule every frontier and monotone claim uses."""

    def test_empty_series_never_violates(self):
        assert dial_violations([], 0.05) == []

    def test_first_point_never_violates(self):
        assert dial_violations([0.9], 0.0) == []
        assert dial_violations([0.9, 0.2], 0.0) == []

    def test_reports_position_and_running_min(self):
        # 0.6 sits 0.3 above the running min 0.3; 0.35 is within 0.05
        assert dial_violations([0.8, 0.3, 0.6, 0.35], 0.05) == [(2, 0.3)]

    def test_running_min_not_previous_point(self):
        # 0.5 is below its predecessor 0.7 but above the running min 0.2
        assert dial_violations([0.2, 0.7, 0.5], 0.1) == [(1, 0.2), (2, 0.2)]

    def test_value_at_running_min_plus_tolerance_passes(self):
        assert dial_violations([0.5, 0.75], 0.25) == []
        assert dial_violations([0.5, 0.5], 0.0) == []

    def test_negative_tolerance_raises(self):
        with pytest.raises(ValueError, match="tolerance"):
            dial_violations([0.5, 0.4], -0.01)
        with pytest.raises(ValueError, match="tolerance"):
            dial_violations([], -1.0)

    def test_nan_tolerance_raises(self):
        # a NaN tolerance would make every rise pass unnoticed
        with pytest.raises(ValueError, match="tolerance"):
            dial_violations([0.1, 0.9], float("nan"))


class TestDatasets:
    def test_fig1_dataset_shapes(self):
        a, b = fig1_dataset(n_days=2)
        assert a.config.name == "home-a"
        assert b.config.name == "home-b"
        assert len(a.metered) == len(b.metered)

    def test_fig2_dataset_has_all_devices(self):
        from repro.home import FIG2_DEVICES

        sim = fig2_dataset(n_days=7)
        for device in FIG2_DEVICES:
            assert sim.appliance_traces[device].values.sum() > 0

    def test_population_dataset_size(self):
        homes = population_dataset(n_homes=3, n_days=2)
        assert len(homes) == 3

    def test_datasets_are_deterministic(self):
        a1, _ = fig1_dataset(n_days=1)
        a2, _ = fig1_dataset(n_days=1)
        assert np.array_equal(a1.metered.values, a2.metered.values)


class TestTraceIO:
    def test_round_trip(self, tmp_path, sim):
        path = tmp_path / "trace.csv"
        original = sim.metered.slice_time(0, 3600.0)
        save_trace_csv(original, path)
        loaded = load_trace_csv(path)
        assert loaded.period_s == pytest.approx(original.period_s)
        assert np.allclose(loaded.values, original.values, atol=0.01)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(TraceError):
            load_trace_csv(path)

    def test_uneven_timestamps_rejected(self, tmp_path):
        path = tmp_path / "uneven.csv"
        path.write_text("time_s,power_w\n0,1\n60,2\n200,3\n")
        with pytest.raises(TraceError):
            load_trace_csv(path)

    def test_too_short_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("time_s,power_w\n0,1\n")
        with pytest.raises(TraceError):
            load_trace_csv(path)

    def test_empty_file_rejected_clearly(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceError, match="empty file"):
            load_trace_csv(path)

    def test_garbled_header_names_expectation(self, tmp_path):
        path = tmp_path / "garbled.csv"
        path.write_text("timestamp;watts\n0,1\n60,2\n")
        with pytest.raises(TraceError, match="expected header"):
            load_trace_csv(path)

    def test_non_numeric_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad_row.csv"
        path.write_text("time_s,power_w\n0,1\n60,oops\n120,3\n")
        with pytest.raises(TraceError, match=r":3: non-numeric"):
            load_trace_csv(path)

    def test_short_row_reports_line_number(self, tmp_path):
        path = tmp_path / "short_row.csv"
        path.write_text("time_s,power_w\n0,1\n60\n")
        with pytest.raises(TraceError, match=r":3: expected 2 columns"):
            load_trace_csv(path)

    def test_save_rows_csv_round_trips_floats(self, tmp_path):
        import csv

        from repro.datasets import save_rows_csv

        path = tmp_path / "rows.csv"
        save_rows_csv(path, ("name", "value"), [["a", 0.1 + 0.2], ["b", 3]])
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["name", "value"]
        assert float(rows[1][1]) == 0.1 + 0.2
        assert rows[2] == ["b", "3"]


def _replace_fails(src, dst):
    raise OSError("disk full")


class TestKeptFiles:
    """``write_atomic`` replaces a file whole or leaves it be, and
    ``read_envelope`` says why it found no usable envelope."""

    def test_failed_json_export_keeps_the_old_file(self, tmp_path, monkeypatch):
        from repro.datasets import dump_json

        path = tmp_path / "report.json"
        dump_json({"run": 1}, path)
        old = path.read_bytes()
        monkeypatch.setattr(os, "replace", _replace_fails)
        with pytest.raises(OSError, match="disk full"):
            dump_json({"run": 2}, path)
        assert path.read_bytes() == old
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_failed_cache_put_keeps_the_old_entry(self, tmp_path, monkeypatch):
        from repro.fleet.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        key = "ab" * 32
        cache.put(key, "old")
        path = cache._path(key)
        old = path.read_bytes()
        monkeypatch.setattr(os, "replace", _replace_fails)
        with pytest.raises(OSError, match="disk full"):
            cache.put(key, "new")
        assert path.read_bytes() == old
        assert list(path.parent.glob(".*.tmp")) == []
        assert cache.stats.stores == 1

    def test_read_envelope_outcomes(self, tmp_path):
        from repro.datasets.io import EnvelopeFault, read_envelope, write_atomic

        path = tmp_path / "envelope.pkl"
        assert read_envelope(path, 1, kind="ours") is EnvelopeFault.MISSING
        cases = [
            (b"\x80\x04 torn", EnvelopeFault.CORRUPT),
            (pickle.dumps(["not", "a", "dict"]), EnvelopeFault.FOREIGN),
            (pickle.dumps({"format": 1, "kind": "theirs"}), EnvelopeFault.FOREIGN),
            # the kind is checked before the format
            (pickle.dumps({"format": 2, "kind": "theirs"}), EnvelopeFault.FOREIGN),
            (pickle.dumps({"format": 2, "kind": "ours"}), EnvelopeFault.STALE),
            (pickle.dumps({"kind": "ours"}), EnvelopeFault.STALE),
            # values whose == has no truth value are of another type
            (pickle.dumps({"format": np.array([1, 1]), "kind": "ours"}),
             EnvelopeFault.FOREIGN),
            (pickle.dumps({"format": 1, "kind": np.array(["ours"] * 2)}),
             EnvelopeFault.FOREIGN),
            (pickle.dumps({"format": "1", "kind": "ours"}), EnvelopeFault.FOREIGN),
        ]
        for data, fault in cases:
            path.write_bytes(data)
            assert read_envelope(path, 1, kind="ours") is fault, data
        envelope = {"format": 1, "kind": "ours", "body": [1, 2]}
        write_atomic(path, pickle.dumps(envelope))
        assert read_envelope(path, 1, kind="ours") == envelope
        assert read_envelope(path, 1) == envelope
