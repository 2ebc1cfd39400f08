"""Arms-race attackers, new shapers, and the traffic-side bug regressions."""

import numpy as np
import pytest

from repro.netpriv import (
    AdaptiveOccupancyInferrer,
    ConstantRatePadding,
    Device,
    DeviceType,
    Direction,
    Flow,
    FlowLog,
    FlowMerging,
    HeartbeatJitter,
    IdentityShaper,
    LanConfig,
    PROFILES,
    TrafficShaper,
    device_window_features,
    evaluate_arms_race,
    flow_log_digest,
    make_shaper,
    occupancy_window_features,
    simulate_lan,
)
from repro.netpriv.devices import CLOUD_PORT
from repro.netpriv.threats import occupancy_from_traffic
from repro.timeseries import BinaryTrace, SECONDS_PER_DAY, SECONDS_PER_HOUR

SMALL_LAN = LanConfig(
    device_counts={
        DeviceType.CAMERA: 1,
        DeviceType.THERMOSTAT: 1,
        DeviceType.SMART_PLUG: 2,
        DeviceType.HUB: 1,
        DeviceType.LIGHT_BULB: 3,
        DeviceType.VOICE_ASSISTANT: 1,
    }
)


def _camera(device_id: str = "cam-1") -> Device:
    return Device(device_id, DeviceType.CAMERA, PROFILES[DeviceType.CAMERA])


def _event(device: Device, t: float, endpoint: str | None = None) -> Flow:
    return Flow(
        time_s=t,
        device_id=device.device_id,
        endpoint=endpoint or device.profile.endpoints[0],
        port=CLOUD_PORT,
        direction=Direction.OUTBOUND,
        bytes_up=900_000,
        bytes_down=40_000,
        packets=100,
        duration_s=10.0,
    )


# ---------------------------------------------------------------------------
# Satellite regression: silent devices must not vanish from the feature set
# ---------------------------------------------------------------------------
class TestSilentDeviceWindows:
    def test_silent_device_gets_all_zero_rows(self):
        talker = _camera("talker")
        silent = _camera("silent")
        log = FlowLog([_event(talker, 100.0), _event(talker, 4000.0)])
        features = device_window_features(
            log, duration_s=7200.0, window_s=3600.0, devices=[talker, silent]
        )
        assert set(features) == {"talker", "silent"}
        assert features["silent"].shape == features["talker"].shape
        assert np.all(features["silent"] == 0.0)

    def test_device_ids_accepted_as_strings(self):
        talker = _camera("talker")
        log = FlowLog([_event(talker, 100.0)])
        features = device_window_features(
            log, duration_s=3600.0, window_s=3600.0, devices=["talker", "ghost"]
        )
        assert np.all(features["ghost"] == 0.0)

    def test_unlisted_devices_still_kept(self):
        talker = _camera("talker")
        log = FlowLog([_event(talker, 100.0)])
        features = device_window_features(
            log, duration_s=3600.0, window_s=3600.0, devices=["other"]
        )
        assert set(features) == {"talker", "other"}

    def test_without_devices_behaviour_unchanged(self):
        talker = _camera("talker")
        log = FlowLog([_event(talker, 100.0)])
        features = device_window_features(log, duration_s=3600.0, window_s=3600.0)
        assert set(features) == {"talker"}


# ---------------------------------------------------------------------------
# Satellite regression: cover deficits must see *shaped* event timestamps
# ---------------------------------------------------------------------------
class TestShapedTimestampBuckets:
    def test_delayed_events_count_against_landing_hour(self):
        # all real events sit in the last two minutes of hour 10; a 600 s
        # delay budget pushes most of them across the boundary into hour
        # 11.  Bucketing by pre-delay timestamps would see hour 11 as
        # empty and pad it with a full target's worth of cover on top of
        # the arrivals — the hour-edge rate bump this regression pins.
        cam = _camera()
        target = cam.profile.event_rate_per_occupied_hour  # 6.0
        log = FlowLog(
            [_event(cam, 10 * SECONDS_PER_HOUR + 3480.0 + 10.0 * k) for k in range(12)]
        )
        shaper = TrafficShaper(margin=1.0, max_delay_s=600.0)
        shaped, report = shaper.shape(
            log, [cam], duration_s=SECONDS_PER_DAY, rng=np.random.default_rng(0)
        )
        assert report.delayed_flows == 12

        def events_in_hour(h: int) -> int:
            lo, hi = h * SECONDS_PER_HOUR, (h + 1) * SECONDS_PER_HOUR
            return sum(
                1
                for f in shaped
                if lo <= f.time_s < hi and f.bytes_up + f.bytes_down > 5_000
            )

        landed = events_in_hour(11)
        # fixed code tops hour 11 up to at most ~target given its real
        # arrivals; the old pre-delay bucketing adds a full Poisson(6) of
        # cover on top of ~9 delayed arrivals (~15 events, seeded)
        assert landed <= target + 6
        # the deficit pass must still fill genuinely empty hours
        assert events_in_hour(15) >= 1

    def test_hourly_rate_uniform_under_full_shaping(self):
        # with margin 1.0 every in-window hour should carry roughly the
        # target rate — no hour systematically above it by a whole target
        cam = _camera()
        target = cam.profile.event_rate_per_occupied_hour
        rng = np.random.default_rng(7)
        events = [
            _event(cam, float(h) * SECONDS_PER_HOUR + float(rng.uniform(3500, 3600)))
            for h in range(7, 23)
            for _ in range(3)
        ]
        shaper = TrafficShaper(margin=1.0, max_delay_s=240.0)
        shaped, _ = shaper.shape(
            FlowLog(events), [cam], SECONDS_PER_DAY, rng=np.random.default_rng(1)
        )
        counts = np.zeros(24)
        for f in shaped:
            if f.bytes_up + f.bytes_down > 5_000:
                counts[int(f.time_s // SECONDS_PER_HOUR)] += 1
        # hours 8..22 receive at most their own arrivals (3 real + <=3
        # spill) topped to target; a double-pad bug would push ~2x target
        assert counts[8:23].max() <= 2.0 * target - 1


# ---------------------------------------------------------------------------
# Satellite regression: dataclass defaults must not share instances
# ---------------------------------------------------------------------------
class TestDefaultFactories:
    def test_lan_config_occupancy_not_shared(self):
        a, b = LanConfig(), LanConfig()
        assert a.device_counts is not b.device_counts

    def test_home_config_defaults_not_shared(self):
        from repro.home.household import HomeConfig

        a, b = HomeConfig(name="a", appliances=()), HomeConfig(name="b", appliances=())
        assert a.occupancy is not b.occupancy
        assert a.meter is not b.meter
        assert a.draws is not b.draws

    def test_solar_site_array_not_shared(self):
        from repro.solar.generation import LatLon, SolarSite

        loc = LatLon(40.0, -105.0)
        a, b = SolarSite("a", loc), SolarSite("b", loc)
        assert a.array is not b.array


# ---------------------------------------------------------------------------
# Satellite regression: always-occupied homes and the traffic baseline
# ---------------------------------------------------------------------------
class TestProfileDerivedBaseline:
    def _always_occupied_lan(self, seed: int = 3):
        rng = np.random.default_rng(seed)
        duration_s = 2 * SECONDS_PER_DAY
        occupancy = BinaryTrace(
            np.ones(int(duration_s // 60.0), dtype=int), 60.0, 0.0
        )
        devices = [
            Device.make(f"{t.value}-{k}", t, rng)
            for t, n in SMALL_LAN.device_counts.items()
            for k in range(n)
        ]
        log = FlowLog()
        for device in devices:
            log.extend(device.simulate_flows(duration_s, occupancy, rng))
        log.sort()
        return log, devices, duration_s

    def test_always_occupied_home_detected_as_occupied(self):
        log, devices, duration_s = self._always_occupied_lan()
        trace = occupancy_from_traffic(log, devices, duration_s)
        assert trace.fraction_true() > 0.9

    def test_normal_home_attack_still_strong(self):
        sim = simulate_lan(SMALL_LAN, n_days=2, rng=11)
        trace = occupancy_from_traffic(sim.log, sim.devices, sim.duration_s)
        from repro.attacks import score_occupancy_attack

        assert score_occupancy_attack(trace, sim.occupancy)["mcc"] > 0.4


# ---------------------------------------------------------------------------
# New shapers
# ---------------------------------------------------------------------------
class TestShapers:
    def test_make_shaper_zero_is_identity(self):
        for name in ("cover", "constant-rate", "merge", "jitter"):
            assert isinstance(make_shaper(name, 0.0), IdentityShaper)

    def test_make_shaper_validates_setting(self):
        with pytest.raises(ValueError):
            make_shaper("cover", 1.5)
        from repro.core.registry import RegistryError

        with pytest.raises(RegistryError):
            make_shaper("nonsense", 0.5)

    def test_make_shaper_refuses_unknown_name_at_every_setting(self):
        from repro.core.registry import RegistryError

        for setting in (0.0, 0.5, 1.0):
            with pytest.raises(RegistryError):
                make_shaper("nonsense", setting)

    def test_identity_shaper_passes_log_through(self):
        sim = simulate_lan(SMALL_LAN, n_days=1, rng=0)
        shaped, report = IdentityShaper().shape(sim.log, sim.devices, sim.duration_s)
        assert flow_log_digest(shaped) == flow_log_digest(sim.log)
        assert report.cover_flows == 0 and report.delayed_flows == 0

    def test_constant_rate_pads_overnight_too(self):
        cam = _camera()
        shaped, report = ConstantRatePadding(margin=1.0).shape(
            FlowLog([]), [cam], SECONDS_PER_DAY, rng=np.random.default_rng(0)
        )
        assert report.cover_flows > 0
        night = [f for f in shaped if f.time_s < 6 * SECONDS_PER_HOUR]
        assert night, "constant-rate padding must not gate on daytime hours"

    def test_constant_rate_covers_all_endpoints(self):
        cam = _camera()
        shaped, _ = ConstantRatePadding(margin=1.0).shape(
            FlowLog([]), [cam], 3 * SECONDS_PER_DAY, rng=np.random.default_rng(0)
        )
        assert {f.endpoint for f in shaped} == set(cam.profile.endpoints)

    def test_merge_relabels_and_batches(self):
        cam = _camera()
        log = FlowLog([_event(cam, 100.0)])
        shaped, report = FlowMerging(fraction=1.0, quantum_s=300.0).shape(
            log, [cam], SECONDS_PER_DAY
        )
        assert report.merged_flows == 1
        flow = shaped.flows[0]
        assert flow.device_id == "gateway"
        assert flow.endpoint == "vpn.gateway.example"
        assert flow.time_s == 300.0  # held to the next quantum boundary
        assert flow.bytes_up == 900_000  # volume preserved

    def test_merge_skips_lateral_flows(self):
        cam = _camera()
        lateral = Flow(
            time_s=50.0, device_id="cam-1", endpoint="hub-1", port=8080,
            direction=Direction.LATERAL, bytes_up=500, bytes_down=100,
            packets=5, duration_s=1.0,
        )
        shaped, report = FlowMerging(fraction=1.0).shape(
            FlowLog([lateral]), [cam], SECONDS_PER_DAY
        )
        assert report.merged_flows == 0
        assert shaped.flows[0].device_id == "cam-1"

    def test_merge_fraction_selects_sorted_prefix(self):
        devices = [_camera("a"), _camera("b"), _camera("c"), _camera("d")]
        assert FlowMerging(fraction=0.5).merged_ids(devices) == {"a", "b"}

    def test_jitter_touches_only_heartbeats(self):
        cam = _camera()
        hb = Flow(
            time_s=40.0, device_id="cam-1",
            endpoint=cam.profile.endpoints[0], port=443,
            direction=Direction.OUTBOUND,
            bytes_up=cam.profile.heartbeat_bytes_up,
            bytes_down=cam.profile.heartbeat_bytes_down,
            packets=4, duration_s=0.5,
        )
        event = _event(cam, 200.0)
        shaped, report = HeartbeatJitter(scale=0.5).shape(
            FlowLog([hb, event]), [cam], SECONDS_PER_DAY,
            rng=np.random.default_rng(0),
        )
        assert report.delayed_flows == 1
        shaped_event = [f for f in shaped if f.bytes_up > 5_000]
        assert shaped_event[0].time_s == 200.0  # events untouched

    def test_shaper_params_validated(self):
        with pytest.raises(ValueError):
            ConstantRatePadding(margin=0.0)
        with pytest.raises(ValueError):
            FlowMerging(fraction=0.0)
        with pytest.raises(ValueError):
            FlowMerging(fraction=0.5, quantum_s=-1.0)
        with pytest.raises(ValueError):
            HeartbeatJitter(scale=1.5)


# ---------------------------------------------------------------------------
# Adaptive attacker
# ---------------------------------------------------------------------------
class TestAdaptiveOccupancy:
    def test_feature_matrix_shape(self):
        sim = simulate_lan(SMALL_LAN, n_days=1, rng=0)
        X = occupancy_window_features(sim.log, sim.devices, sim.duration_s)
        assert X.shape == (48, 6)
        assert np.all(X >= 0)

    def test_secondary_endpoint_feature_sees_cover_residual(self):
        # cover flows only visit endpoints[0]; real camera events spread
        # over both endpoints — the residual column must separate them
        cam = _camera()
        real = FlowLog([_event(cam, 100.0, endpoint=cam.profile.endpoints[1])])
        cover = FlowLog([_event(cam, 100.0, endpoint=cam.profile.endpoints[0])])
        X_real = occupancy_window_features(real, [cam], 1800.0)
        X_cover = occupancy_window_features(cover, [cam], 1800.0)
        assert X_real[0, 5] == 1.0
        assert X_cover[0, 5] == 0.0

    def test_degenerate_labels_fall_back_to_baseline(self):
        sim = simulate_lan(SMALL_LAN, n_days=1, rng=2)
        always = BinaryTrace(
            np.ones(len(sim.occupancy), dtype=int), sim.occupancy.period_s, 0.0
        )
        inferrer = AdaptiveOccupancyInferrer().fit(
            sim.log, sim.devices, always, sim.duration_s
        )
        trace = inferrer.infer(sim.log, sim.devices, sim.duration_s)
        assert len(trace) == 48

    def test_unfitted_inferrer_raises(self):
        sim = simulate_lan(SMALL_LAN, n_days=1, rng=0)
        with pytest.raises(RuntimeError):
            AdaptiveOccupancyInferrer().infer(sim.log, sim.devices, sim.duration_s)


class TestArmsRace:
    def test_unknown_dial_refused_before_any_lan(self, monkeypatch):
        # the second setting-0 dial would copy the first's outcome and never
        # reach make_shaper, so the names are checked up front
        from repro.core.registry import RegistryError
        from repro.netpriv import adaptive

        def simulate_lan(*_args, **_kwargs):
            raise AssertionError("a LAN was simulated")

        monkeypatch.setattr(adaptive, "simulate_lan", simulate_lan)
        with pytest.raises(RegistryError):
            evaluate_arms_race(
                [("cover", 0.0), ("nonsense", 0.0)], days=1, seed=0,
                lan_config=SMALL_LAN,
            )

    def test_adaptive_beats_naive_under_cover(self):
        [outcome] = evaluate_arms_race(
            [("cover", 0.5)], days=2, seed=0, lan_config=SMALL_LAN
        )
        assert outcome.adaptive.occupancy_mcc > outcome.naive.occupancy_mcc + 0.2
        assert outcome.adaptive.occupancy_mcc > 0.3
        assert outcome.cover_bytes > 0

    def test_undefended_lan_falls_to_both_attackers(self):
        [outcome] = evaluate_arms_race(
            [("cover", 0.0)], days=2, seed=0, lan_config=SMALL_LAN
        )
        assert outcome.naive.occupancy_mcc > 0.4
        assert outcome.adaptive.occupancy_mcc > 0.4
        assert outcome.cover_flows == 0

    def test_outcome_dict_roundtrips_scalars(self):
        [outcome] = evaluate_arms_race(
            [("jitter", 0.5)], days=1, seed=1, lan_config=SMALL_LAN
        )
        doc = outcome.as_dict()
        assert doc["defense"] == "jitter"
        assert doc["adaptive_advantage"] == pytest.approx(
            outcome.adaptive.occupancy_mcc - outcome.naive.occupancy_mcc
        )
        assert doc["shaped_digest"] == outcome.shaped_digest


# ---------------------------------------------------------------------------
# Seed determinism: shaped logs and attacker scores pin to their seed
# ---------------------------------------------------------------------------
class TestSeedDeterminism:
    @pytest.mark.parametrize("name", ["cover", "constant-rate", "merge", "jitter"])
    def test_shaper_digest_reproducible(self, name):
        sim = simulate_lan(SMALL_LAN, n_days=1, rng=5)
        shaper = make_shaper(name, 0.7)
        digests = []
        for _ in range(2):
            shaped, _ = shaper.shape(
                sim.log, sim.devices, sim.duration_s, rng=np.random.default_rng(9)
            )
            digests.append(flow_log_digest(shaped))
        assert digests[0] == digests[1]
        shaped, _ = shaper.shape(
            sim.log, sim.devices, sim.duration_s, rng=np.random.default_rng(10)
        )
        if name != "merge":  # merging is deterministic by design (no rng)
            assert flow_log_digest(shaped) != digests[0]

    def test_arms_race_reproducible_end_to_end(self):
        [a] = evaluate_arms_race([("cover", 0.5)], days=1, seed=42, lan_config=SMALL_LAN)
        [b] = evaluate_arms_race([("cover", 0.5)], days=1, seed=42, lan_config=SMALL_LAN)
        assert a.shaped_digest == b.shaped_digest
        assert a.naive == b.naive
        assert a.adaptive == b.adaptive

    def test_arms_race_seed_sensitivity(self):
        [a] = evaluate_arms_race([("cover", 0.5)], days=1, seed=42, lan_config=SMALL_LAN)
        [c] = evaluate_arms_race([("cover", 0.5)], days=1, seed=43, lan_config=SMALL_LAN)
        assert a.shaped_digest != c.shaped_digest
