"""Home LAN simulation: many devices, one gateway's worth of flow logs.

Sec. IV's setting: "a typical home today may have over 40 IoT devices
connected to its network".  The LAN simulator instantiates a device fleet,
ties event-driven traffic to a household occupancy schedule, and lets a
subset of devices be compromised at chosen times (their traffic then
follows a :mod:`repro.netpriv.threats` behaviour on top of their normal
grammar — compromised devices keep up appearances).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..home.occupancy import OccupancyConfig, simulate_occupancy
from ..timeseries import BinaryTrace, SECONDS_PER_DAY
from .devices import Device, DeviceType
from .flows import FlowLog


@dataclass(frozen=True)
class LanConfig:
    """Composition of the home network."""

    device_counts: dict[DeviceType, int] = field(
        default_factory=lambda: {
            DeviceType.CAMERA: 2,
            DeviceType.THERMOSTAT: 2,
            DeviceType.SMART_PLUG: 6,
            DeviceType.SMART_TV: 2,
            DeviceType.HUB: 1,
            DeviceType.DOORBELL: 1,
            DeviceType.LIGHT_BULB: 8,
            DeviceType.VOICE_ASSISTANT: 2,
        }
    )


@dataclass
class LanSimulation:
    """Everything the LAN produced over the horizon."""

    devices: list[Device]
    occupancy: BinaryTrace
    log: FlowLog
    duration_s: float


def simulate_lan(
    config: LanConfig,
    n_days: int,
    rng: np.random.Generator | int | None = None,
) -> LanSimulation:
    """Simulate the whole LAN for ``n_days``."""
    if n_days < 1:
        raise ValueError("n_days must be >= 1")
    rng = np.random.default_rng(rng)
    occupancy = simulate_occupancy(OccupancyConfig(), n_days, 60.0, rng)
    duration_s = n_days * SECONDS_PER_DAY

    devices: list[Device] = []
    for device_type, count in config.device_counts.items():
        for k in range(count):
            devices.append(
                Device.make(f"{device_type.value}-{k + 1}", device_type, rng)
            )

    # each device's flows in turn, drawn in device order, then one stable
    # sort: a tie keeps device order, then the order the grammar made it in
    log = FlowLog.concat(
        [device.simulate_flows(duration_s, occupancy, rng) for device in devices]
    ).sorted()
    return LanSimulation(
        devices=devices, occupancy=occupancy, log=log, duration_s=duration_s
    )
