"""Scaling measured times to the reference host speed."""

import pytest

import hostspeed
import workloads
from workloads import Round


def test_a_slow_host_doubles_both_the_time_and_the_calibration():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.at_reference(3.0, ref) == pytest.approx(3.0)
    assert hostspeed.at_reference(6.0, 2 * ref) == pytest.approx(3.0)
    rounds = [
        Round(units=100, failed=0, seconds=1.0, calibration_s=ref),
        Round(units=100, failed=0, seconds=2.0, calibration_s=2 * ref),
        Round(units=100, failed=0, seconds=2.0, calibration_s=2 * ref),
    ]
    assert workloads.throughput(rounds, reference=False) == pytest.approx(50.0)
    assert workloads.throughput(rounds) == pytest.approx(100.0)

    assert hostspeed.calibrate() > 0
