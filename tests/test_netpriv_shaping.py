"""Tests for the traffic-shaping defense."""

import numpy as np
import pytest

from repro.attacks import score_occupancy_attack
from repro.netpriv import (
    LanConfig,
    TrafficShaper,
    occupancy_from_traffic,
    simulate_lan,
)


@pytest.fixture(scope="module")
def lan():
    return simulate_lan(LanConfig(), 4, rng=1)


@pytest.fixture(scope="module")
def shaped(lan):
    return TrafficShaper().shape(lan.log, lan.devices, lan.duration_s, rng=2)


class TestTrafficShaper:
    def test_blunts_occupancy_attack(self, lan, shaped):
        shaped_log, _ = shaped
        before = score_occupancy_attack(
            occupancy_from_traffic(lan.log, lan.devices, lan.duration_s),
            lan.occupancy,
        )["mcc"]
        after = score_occupancy_attack(
            occupancy_from_traffic(shaped_log, lan.devices, lan.duration_s),
            lan.occupancy,
        )["mcc"]
        assert before > 0.6  # the attack works unshaped
        assert after < before / 2.0  # shaping breaks it

    def test_no_real_flows_dropped(self, lan, shaped):
        shaped_log, report = shaped
        assert len(shaped_log) == len(lan.log) + report.cover_flows

    def test_cover_flows_mimic_device_endpoints(self, lan, shaped):
        shaped_log, _ = shaped
        endpoints_before = {
            (f.device_id, f.endpoint) for f in lan.log
        }
        endpoints_after = {
            (f.device_id, f.endpoint) for f in shaped_log
        }
        assert endpoints_after <= endpoints_before  # no new endpoints appear

    def test_cost_accounting(self, shaped):
        _, report = shaped
        assert report.cover_flows > 0
        assert report.cover_bytes > 0
        assert report.delayed_flows > 0
        assert 0.0 < report.mean_added_delay_s <= 120.0

    def test_delays_bounded(self, lan):
        shaped_log, report = TrafficShaper(max_delay_s=30.0).shape(
            lan.log, lan.devices, lan.duration_s, rng=3
        )
        assert report.mean_added_delay_s <= 30.0

    def test_zero_delay_config(self, lan):
        _, report = TrafficShaper(max_delay_s=0.0).shape(
            lan.log, lan.devices, lan.duration_s, rng=4
        )
        assert report.delayed_flows == 0

    def test_deterministic_given_rng(self, lan):
        a, _ = TrafficShaper().shape(lan.log, lan.devices, lan.duration_s, rng=7)
        b, _ = TrafficShaper().shape(lan.log, lan.devices, lan.duration_s, rng=7)
        assert [f.time_s for f in a] == [f.time_s for f in b]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrafficShaper(margin=0.5)
        with pytest.raises(ValueError):
            TrafficShaper(max_delay_s=-1.0)
