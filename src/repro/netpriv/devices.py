"""IoT device traffic grammars.

Each device type has a characteristic traffic pattern — the basis of both
the fingerprinting attack and the smart-gateway defense in Sec. IV.  The
grammars are built from the behaviours commercial devices exhibit:

* periodic cloud *heartbeats* (small, metronomic, to a fixed endpoint);
* *event* bursts (motion detected, switch toggled) — often triggered by
  human activity, which is exactly why a passive observer can profile the
  occupants from traffic alone;
* *streaming* sessions (cameras upload continuously; TVs download in the
  evening);
* occasional *firmware checks* (rare, larger downloads).

Per-instance parameters are jittered so two cameras look similar but not
identical, as in real deployments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from ..timeseries import BinaryTrace, SECONDS_PER_DAY, SECONDS_PER_HOUR
from .flows import DIRECTION_CODES, Direction, Flow, FlowLog


class DeviceType(Enum):
    """Consumer IoT device categories with distinct traffic grammars."""

    CAMERA = "camera"
    THERMOSTAT = "thermostat"
    SMART_PLUG = "smart_plug"
    SMART_TV = "smart_tv"
    HUB = "hub"
    DOORBELL = "doorbell"
    LIGHT_BULB = "light_bulb"
    VOICE_ASSISTANT = "voice_assistant"


@dataclass(frozen=True)
class TrafficProfile:
    """Parameters of one device type's traffic grammar."""

    heartbeat_interval_s: float
    heartbeat_bytes_up: int
    heartbeat_bytes_down: int
    event_rate_per_occupied_hour: float
    event_rate_per_empty_hour: float
    event_bytes_up: tuple[int, int]
    event_bytes_down: tuple[int, int]
    stream_rate_bytes_per_s: float = 0.0  # continuous upstream (cameras)
    evening_stream_bytes_per_s: float = 0.0  # downstream sessions (TVs)
    endpoints: tuple[str, ...] = ("cloud.example.com",)

    def __post_init__(self) -> None:
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.event_rate_per_occupied_hour < 0 or self.event_rate_per_empty_hour < 0:
            raise ValueError("event rates cannot be negative")


#: The port every device grammar (and the cover traffic mimicking it)
#: talks to its cloud endpoints on.
CLOUD_PORT = 443
#: Mean firmware checks per device per day, each a large download.
_FIRMWARE_CHECKS_PER_DAY = 0.2
_FIRMWARE_BYTES_DOWN = 5_000_000


PROFILES: dict[DeviceType, TrafficProfile] = {
    DeviceType.CAMERA: TrafficProfile(
        heartbeat_interval_s=30.0,
        heartbeat_bytes_up=400,
        heartbeat_bytes_down=120,
        event_rate_per_occupied_hour=6.0,
        event_rate_per_empty_hour=0.3,
        event_bytes_up=(800_000, 6_000_000),
        event_bytes_down=(2_000, 10_000),
        stream_rate_bytes_per_s=25_000,
        endpoints=("stream.camcloud.com", "api.camcloud.com"),
    ),
    DeviceType.THERMOSTAT: TrafficProfile(
        heartbeat_interval_s=60.0,
        heartbeat_bytes_up=250,
        heartbeat_bytes_down=150,
        event_rate_per_occupied_hour=2.0,
        event_rate_per_empty_hour=0.5,
        event_bytes_up=(1_000, 6_000),
        event_bytes_down=(500, 3_000),
        endpoints=("api.thermocloud.com",),
    ),
    DeviceType.SMART_PLUG: TrafficProfile(
        heartbeat_interval_s=120.0,
        heartbeat_bytes_up=180,
        heartbeat_bytes_down=90,
        event_rate_per_occupied_hour=1.2,
        event_rate_per_empty_hour=0.05,
        event_bytes_up=(400, 2_000),
        event_bytes_down=(200, 1_000),
        endpoints=("plug.vendorcloud.com",),
    ),
    DeviceType.SMART_TV: TrafficProfile(
        heartbeat_interval_s=300.0,
        heartbeat_bytes_up=900,
        heartbeat_bytes_down=2_500,
        event_rate_per_occupied_hour=1.5,
        event_rate_per_empty_hour=0.0,
        event_bytes_up=(2_000, 20_000),
        event_bytes_down=(20_000, 200_000),
        evening_stream_bytes_per_s=600_000,
        endpoints=("cdn.tvstream.com", "ads.tvstream.com", "api.tvvendor.com"),
    ),
    DeviceType.HUB: TrafficProfile(
        heartbeat_interval_s=45.0,
        heartbeat_bytes_up=350,
        heartbeat_bytes_down=300,
        event_rate_per_occupied_hour=8.0,
        event_rate_per_empty_hour=2.0,
        event_bytes_up=(500, 5_000),
        event_bytes_down=(500, 5_000),
        endpoints=("hub.smartthings.example", "fw.smartthings.example"),
    ),
    DeviceType.DOORBELL: TrafficProfile(
        heartbeat_interval_s=40.0,
        heartbeat_bytes_up=300,
        heartbeat_bytes_down=100,
        event_rate_per_occupied_hour=0.8,
        event_rate_per_empty_hour=0.4,
        event_bytes_up=(500_000, 4_000_000),
        event_bytes_down=(2_000, 8_000),
        endpoints=("bell.ringcloud.example",),
    ),
    DeviceType.LIGHT_BULB: TrafficProfile(
        heartbeat_interval_s=180.0,
        heartbeat_bytes_up=120,
        heartbeat_bytes_down=80,
        event_rate_per_occupied_hour=2.5,
        event_rate_per_empty_hour=0.02,
        event_bytes_up=(200, 1_500),
        event_bytes_down=(150, 800),
        endpoints=("bulb.huecloud.example",),
    ),
    DeviceType.VOICE_ASSISTANT: TrafficProfile(
        heartbeat_interval_s=25.0,
        heartbeat_bytes_up=500,
        heartbeat_bytes_down=350,
        event_rate_per_occupied_hour=3.0,
        event_rate_per_empty_hour=0.0,
        event_bytes_up=(30_000, 300_000),
        event_bytes_down=(50_000, 500_000),
        endpoints=("assistant.voicecloud.example", "music.voicecloud.example"),
    ),
}


def is_event(flows: Flow | FlowLog) -> bool | np.ndarray:
    """Whether a flow looks like an event: big and short.

    Heartbeats are too small and streaming chunks too long; shapers, the
    passive occupancy attack and the adaptive attacker's features all
    count events by this one rule.  Given a :class:`FlowLog`, the rule
    reads its columns and returns one flag per flow.
    """
    return (flows.bytes_up + flows.bytes_down > 5_000) & (flows.duration_s < 200.0)


def event_devices(devices: list[Device]) -> list[Device]:
    """The devices whose event rate carries an occupancy signal: their
    occupied-home rate is more than twice their empty-home rate."""
    return [
        d
        for d in devices
        if d.profile.event_rate_per_occupied_hour
        > 2.0 * max(d.profile.event_rate_per_empty_hour, 0.05)
    ]


@dataclass(frozen=True)
class Device:
    """One device instance on the LAN."""

    device_id: str
    device_type: DeviceType
    profile: TrafficProfile

    @staticmethod
    def make(
        device_id: str,
        device_type: DeviceType,
        rng: np.random.Generator,
    ) -> "Device":
        """Instantiate a device with per-unit parameter jitter."""
        base = PROFILES[device_type]
        jitter = lambda v, f=0.15: type(v)(v * rng.uniform(1 - f, 1 + f))
        profile = replace(
            base,
            heartbeat_interval_s=float(jitter(base.heartbeat_interval_s, 0.1)),
            heartbeat_bytes_up=max(1, int(jitter(base.heartbeat_bytes_up))),
            heartbeat_bytes_down=max(1, int(jitter(base.heartbeat_bytes_down))),
            event_rate_per_occupied_hour=float(
                jitter(base.event_rate_per_occupied_hour, 0.3)
            ),
        )
        return Device(device_id, device_type, profile)

    def simulate_flows(
        self,
        duration_s: float,
        occupancy: BinaryTrace | None,
        rng: np.random.Generator,
    ) -> FlowLog:
        """Generate this device's flows over the horizon.

        The log holds them in the order the grammar generates them:
        heartbeats, events, upstream streaming, evening streaming, then
        firmware checks (:func:`~repro.netpriv.lan.simulate_lan` puts a
        LAN's flows in time order).  Every draw is the one the per-flow
        loop makes, in its order (``repro.netpriv._reference`` keeps that
        loop): heartbeat intervals are drawn in blocks that surely end
        below the horizon, and events and evening sessions one flow at a
        time.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        profile = self.profile
        endpoints = list(dict.fromkeys(profile.endpoints))
        code = [endpoints.index(e) for e in profile.endpoints]
        parts: list[FlowLog] = []

        def part(**columns) -> None:
            parts.append(
                FlowLog.from_columns(
                    [self.device_id], endpoints, device=0, port=CLOUD_PORT, **columns
                )
            )

        def occupied_at(t: float) -> bool:
            if occupancy is None:
                return True
            idx = min(int(t / occupancy.period_s), len(occupancy) - 1)
            return bool(occupancy.values[idx])

        # heartbeats: metronomic with small jitter
        interval = profile.heartbeat_interval_s
        beats = [np.zeros(0)]
        t = rng.uniform(0.0, interval)
        while t < duration_s:
            # the next k beats all lie below the horizon (k - 1 steps of
            # under 1.05 intervals from t), so the loop would draw all k
            # steps; cumsum adds them in the loop's order
            k = max(1, int((duration_s - t) / (interval * 1.05)))
            steps = interval * rng.uniform(0.95, 1.05, size=k)
            run = np.cumsum(np.concatenate(([t], steps)))
            beats.append(run[:k])
            t = float(run[k])
        part(
            time_s=np.concatenate(beats),
            endpoint=code[0],
            direction=DIRECTION_CODES[Direction.OUTBOUND],
            bytes_up=profile.heartbeat_bytes_up,
            bytes_down=profile.heartbeat_bytes_down,
            packets=4,
            duration_s=0.5,
        )

        # events: rate depends on occupancy (motion, toggles, voice)
        events: dict[str, list] = {
            name: []
            for name in (
                "time_s", "endpoint", "bytes_up", "bytes_down", "packets", "duration_s"
            )
        }
        hour = 0.0
        while hour * SECONDS_PER_HOUR < duration_s:
            t0 = hour * SECONDS_PER_HOUR
            rate = (
                profile.event_rate_per_occupied_hour
                if occupied_at(t0)
                else profile.event_rate_per_empty_hour
            )
            for _ in range(rng.poisson(rate)):
                et = t0 + rng.uniform(0.0, SECONDS_PER_HOUR)
                if et >= duration_s:
                    continue
                # one event's draws, in the order the loop makes them
                events["time_s"].append(et)
                events["endpoint"].append(code[int(rng.integers(len(code)))])
                events["bytes_up"].append(int(rng.integers(*profile.event_bytes_up)))
                events["bytes_down"].append(int(rng.integers(*profile.event_bytes_down)))
                events["packets"].append(int(rng.integers(10, 200)))
                events["duration_s"].append(rng.uniform(1.0, 30.0))
            hour += 1.0
        part(direction=DIRECTION_CODES[Direction.OUTBOUND], **events)

        # continuous upstream streaming (cameras): one flow per 5 minutes
        if profile.stream_rate_bytes_per_s > 0:
            chunk = 300.0
            starts = chunk * np.arange(int(duration_s // chunk) + 1)
            part(
                time_s=starts[starts < duration_s],
                endpoint=code[0],
                direction=DIRECTION_CODES[Direction.OUTBOUND],
                bytes_up=int(profile.stream_rate_bytes_per_s * chunk),
                bytes_down=int(profile.stream_rate_bytes_per_s * chunk * 0.02),
                packets=int(chunk * 10),
                duration_s=chunk,
            )

        # evening downstream streaming (TVs), only while occupied
        if profile.evening_stream_bytes_per_s > 0:
            sessions = []
            n_days = int(np.ceil(duration_s / SECONDS_PER_DAY))
            for day in range(n_days):
                if rng.uniform() > 0.75:
                    continue
                start = day * SECONDS_PER_DAY + rng.uniform(19.0, 21.0) * SECONDS_PER_HOUR
                length = rng.uniform(0.5, 3.0) * SECONDS_PER_HOUR
                t = start
                while t < min(start + length, duration_s):
                    if occupied_at(t):
                        sessions.append(t)
                    t += 300.0
            part(
                time_s=sessions,
                endpoint=code[0],
                direction=DIRECTION_CODES[Direction.INBOUND],
                bytes_up=int(profile.evening_stream_bytes_per_s * 300 * 0.01),
                bytes_down=int(profile.evening_stream_bytes_per_s * 300),
                packets=3000,
                duration_s=300.0,
            )

        # firmware checks
        n_days = max(1, int(np.ceil(duration_s / SECONDS_PER_DAY)))
        checks = rng.poisson(_FIRMWARE_CHECKS_PER_DAY * n_days)
        part(
            time_s=rng.uniform(0.0, duration_s, size=checks),
            endpoint=code[-1],
            direction=DIRECTION_CODES[Direction.OUTBOUND],
            bytes_up=2_000,
            bytes_down=_FIRMWARE_BYTES_DOWN,
            packets=4000,
            duration_s=60.0,
        )
        return FlowLog.concat(parts)
