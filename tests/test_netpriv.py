"""Tests for the IoT network privacy substrate, attacks, and gateway."""

import numpy as np
import pytest

from repro.attacks import score_occupancy_attack
from repro.netpriv import (
    Compromise,
    CompromiseKind,
    Device,
    DeviceFingerprinter,
    DeviceType,
    Direction,
    Flow,
    FlowLog,
    LanConfig,
    SmartGateway,
    device_window_features,
    inject_compromise,
    occupancy_from_traffic,
    simulate_lan,
)
from repro.netpriv.fingerprint import FEATURE_NAMES
from repro.timeseries import SECONDS_PER_DAY


@pytest.fixture(scope="module")
def lan():
    return simulate_lan(LanConfig(), 4, rng=1)


DAY2 = 2 * SECONDS_PER_DAY


class TestFlows:
    def test_flow_validation(self):
        with pytest.raises(ValueError):
            Flow(0.0, "d", "e", 443, Direction.OUTBOUND, -1, 0, 0, 0.0)

    @pytest.mark.parametrize(
        "time_s,duration_s",
        [(float("nan"), 1.0), (float("inf"), 1.0), (-float("inf"), 1.0),
         (0.0, float("nan")), (0.0, -1.0)],
    )
    def test_non_finite_time_or_bad_duration_refused(self, time_s, duration_s):
        with pytest.raises(ValueError):
            Flow(time_s, "d", "e", 443, Direction.OUTBOUND, 9000, 0, 1, duration_s)

    #: two valid flows as columns, for the refusal cases to spoil
    GOOD_COLUMNS = dict(
        time_s=[0.0, 1.0], device=[0, 0], endpoint=[0, 0], port=[443, 80],
        direction=[0, 2], bytes_up=[1, 2], bytes_down=[3, 4], packets=[5, 0],
        duration_s=[0.5, 0.0],
    )

    @pytest.mark.parametrize(
        "column,value",
        [("time_s", float("nan")), ("time_s", float("inf")), ("bytes_up", -1),
         ("bytes_down", -1), ("packets", -1), ("duration_s", float("nan")),
         ("duration_s", -1.0), ("device", 1), ("endpoint", -1), ("direction", 3)],
    )
    def test_column_built_log_refuses_what_a_flow_refuses(self, column, value):
        assert len(FlowLog.from_columns(["d"], ["e"], **self.GOOD_COLUMNS)) == 2
        spoiled = {**self.GOOD_COLUMNS, column: [self.GOOD_COLUMNS[column][0], value]}
        with pytest.raises(ValueError):
            FlowLog.from_columns(["d"], ["e"], **spoiled)

    def test_records_round_trip_through_columns(self):
        flows = [
            Flow(10.0, "a", "x", 443, Direction.OUTBOUND, 1, 2, 3, 0.1),
            Flow(5.0, "b", "y", 80, Direction.LATERAL, 4, 5, 6, 0.2),
            Flow(5.0, "a", "y", 8080, Direction.INBOUND, 7, 8, 0, 300.0),
        ]
        log = FlowLog(flows)
        assert log.flows == flows and list(log) == flows
        # ties keep their order; merged name tables keep every name once
        assert log.sorted().flows == [flows[1], flows[2], flows[0]]
        other = FlowLog([Flow(1.0, "c", "x", 1, Direction.OUTBOUND, 0, 0, 0, 0.0)])
        both = FlowLog.concat([log, other])
        assert both.flows == flows + other.flows
        assert (both.device_ids, both.endpoints) == (["a", "b", "c"], ["x", "y"])
        log.extend(other)
        log.sort()
        assert log.flows == [other.flows[0], flows[1], flows[2], flows[0]]

    def test_log_filtering(self):
        flows = [
            Flow(10.0, "a", "x", 443, Direction.OUTBOUND, 1, 1, 1, 0.1),
            Flow(20.0, "b", "x", 443, Direction.OUTBOUND, 1, 1, 1, 0.1),
            Flow(30.0, "a", "y", 443, Direction.OUTBOUND, 1, 1, 1, 0.1),
        ]
        log = FlowLog(flows)
        assert len(log.in_window(15.0, 25.0)) == 1


class TestDeviceSimulation:
    def test_all_types_generate_traffic(self, lan):
        ids_with_flows = {f.device_id for f in lan.log}
        for device in lan.devices:
            assert device.device_id in ids_with_flows

    def test_heartbeats_are_periodic(self):
        rng = np.random.default_rng(0)
        device = Device.make("plug", DeviceType.SMART_PLUG, rng)
        flows = device.simulate_flows(SECONDS_PER_DAY, None, rng)
        heartbeats = [
            f.time_s
            for f in flows
            if f.bytes_up <= device.profile.heartbeat_bytes_up * 1.5 and f.duration_s < 1.0
        ]
        inter = np.diff(heartbeats)
        expected = device.profile.heartbeat_interval_s
        assert np.median(inter) == pytest.approx(expected, rel=0.1)

    def test_occupancy_gates_events(self):
        from repro.timeseries import BinaryTrace

        rng = np.random.default_rng(1)
        device = Device.make("bulb", DeviceType.LIGHT_BULB, rng)
        n = SECONDS_PER_DAY // 60
        empty = BinaryTrace(np.zeros(n, dtype=int), 60.0)
        full = BinaryTrace(np.ones(n, dtype=int), 60.0)
        f_empty = device.simulate_flows(SECONDS_PER_DAY, empty, np.random.default_rng(2))
        f_full = device.simulate_flows(SECONDS_PER_DAY, full, np.random.default_rng(2))
        events = lambda flows: sum(
            1 for f in flows if f.bytes_up > device.profile.heartbeat_bytes_up * 1.5
        )
        assert events(f_full) > events(f_empty)

    def test_camera_streams_continuously(self, lan):
        cam = [f for f in lan.log if f.device_id == "camera-1"]
        stream = [f for f in cam if f.duration_s >= 200.0]
        # one 5-minute chunk per 5 minutes for 4 days
        assert len(stream) == pytest.approx(4 * 288, rel=0.02)


class TestFingerprinting:
    def test_feature_vector_shape(self, lan):
        cam = FlowLog([f for f in lan.log if f.device_id == "camera-1"])
        features = device_window_features(cam.in_window(0.0, 3600.0), 3600.0)
        assert list(features) == ["camera-1"]
        assert features["camera-1"].shape == (1, len(FEATURE_NAMES))
        assert features["camera-1"][0, 0] > 0.0  # flows_per_hour

    def test_empty_window_is_zeros(self):
        features = device_window_features(FlowLog([]), 3600.0, devices=["camera-1"])
        assert features["camera-1"].shape == (1, len(FEATURE_NAMES))
        assert np.all(features["camera-1"] == 0.0)

    def test_classification_beats_chance(self, lan):
        train = device_window_features(lan.log.in_window(0, DAY2), DAY2)
        full = device_window_features(lan.log, lan.duration_s)
        test = {k: v[48:] for k, v in full.items()}
        report = DeviceFingerprinter(rng=0).evaluate(train, test, lan.devices)
        chance = 1.0 / len(report.classes)
        assert report.accuracy > 5 * chance
        assert report.accuracy > 0.8

    def test_majority_vote_identifies_device(self, lan):
        train = device_window_features(lan.log.in_window(0, DAY2), DAY2)
        fp = DeviceFingerprinter(rng=1).fit(train, lan.devices)
        full = device_window_features(lan.log, lan.duration_s)
        assert fp.predict_device(full["camera-2"][48:]) == "camera"
        assert fp.predict_device(full["thermostat-1"][48:]) == "thermostat"


class TestTrafficOccupancyAttack:
    def test_reveals_occupancy(self, lan):
        occ = occupancy_from_traffic(lan.log, lan.devices, lan.duration_s)
        scores = score_occupancy_attack(occ, lan.occupancy)
        assert scores["mcc"] > 0.4  # encrypted traffic still leaks presence

    def test_needs_whole_window(self, lan):
        with pytest.raises(ValueError):
            occupancy_from_traffic(lan.log, lan.devices, 100.0, window_s=1800.0)


class TestCompromises:
    @pytest.fixture(scope="class")
    def ids(self, lan):
        return [d.device_id for d in lan.devices]

    def test_ddos_adds_massive_upstream(self, lan, ids):
        comp = Compromise("camera-1", CompromiseKind.DDOS, start_s=DAY2)
        attacked = inject_compromise(lan.log, comp, lan.duration_s, ids, rng=0)
        before = sum(f.bytes_up for f in lan.log if f.device_id == "camera-1")
        after = sum(f.bytes_up for f in attacked if f.device_id == "camera-1")
        assert after > 2 * before

    def test_lateral_scan_creates_lateral_flows(self, lan, ids):
        comp = Compromise("smart_plug-1", CompromiseKind.LATERAL_SCAN, start_s=DAY2)
        attacked = inject_compromise(lan.log, comp, lan.duration_s, ids, rng=1)
        lateral = [f for f in attacked if f.direction is Direction.LATERAL]
        assert len(lateral) > 100
        assert all(f.device_id == "smart_plug-1" for f in lateral)

    def test_passive_monitor_invisible(self, lan, ids):
        comp = Compromise("hub-1", CompromiseKind.PASSIVE_MONITOR, start_s=DAY2)
        attacked = inject_compromise(lan.log, comp, lan.duration_s, ids, rng=2)
        assert len(attacked) == len(lan.log)


class TestGateway:
    @pytest.fixture(scope="class")
    def trained_gateway(self, lan):
        gateway = SmartGateway()
        gateway.learn_baselines(lan.log.in_window(0, DAY2), DAY2)
        return gateway

    def test_no_false_quarantines_on_clean_traffic(self, lan, trained_gateway):
        _, report = trained_gateway.enforce(lan.log, lan.duration_s)
        assert report.quarantined_devices == {}

    @pytest.mark.parametrize(
        "kind,device",
        [
            (CompromiseKind.DDOS, "camera-1"),
            (CompromiseKind.LATERAL_SCAN, "smart_plug-1"),
            (CompromiseKind.EXFILTRATION, "thermostat-1"),
        ],
    )
    def test_detects_active_compromises(self, lan, trained_gateway, kind, device):
        ids = [d.device_id for d in lan.devices]
        comp = Compromise(device, kind, start_s=DAY2 + SECONDS_PER_DAY // 2)
        attacked = inject_compromise(lan.log, comp, lan.duration_s, ids, rng=3)
        _, report = trained_gateway.enforce(attacked, lan.duration_s)
        assert report.detected(device)
        assert report.detection_delay_s(device, comp.start_s) < 4 * 3600.0

    def test_lateral_flows_blocked_even_before_detection(self, lan, trained_gateway):
        ids = [d.device_id for d in lan.devices]
        comp = Compromise("smart_plug-1", CompromiseKind.LATERAL_SCAN, start_s=DAY2)
        attacked = inject_compromise(lan.log, comp, lan.duration_s, ids, rng=4)
        passed, report = trained_gateway.enforce(attacked, lan.duration_s)
        assert report.blocked_lateral > 0
        assert not any(f.direction is Direction.LATERAL for f in passed)

    def test_unknown_device_quarantined(self, lan, trained_gateway):
        rogue = Flow(DAY2 + 10.0, "rogue-device", "evil.example", 443,
                     Direction.OUTBOUND, 100, 100, 2, 0.5)
        log = FlowLog(list(lan.log.flows) + [rogue])
        log.sort()
        _, report = trained_gateway.enforce(log, lan.duration_s)
        assert report.detected("rogue-device")

    def test_unknown_endpoint_blocked(self, lan, trained_gateway):
        # a known device talking to an endpoint outside its allowlist
        odd = Flow(DAY2 + 10.0, "camera-1", "never-seen.example", 443,
                   Direction.OUTBOUND, 100, 100, 2, 0.5)
        log = FlowLog(list(lan.log.flows) + [odd])
        log.sort()
        passed, report = trained_gateway.enforce(log, lan.duration_s)
        assert report.blocked_unknown_endpoint >= 1
        assert not any(f.endpoint == "never-seen.example" for f in passed)

    def test_enforce_without_baselines_raises(self, lan):
        with pytest.raises(RuntimeError):
            SmartGateway().enforce(lan.log, lan.duration_s)
