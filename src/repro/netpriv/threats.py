"""Compromised-device behaviours and traffic-side privacy attacks.

Sec. IV enumerates what a compromised IoT device enables: joining DDoS
botnets (the Mirai/Krebs incident, ref. [31]), attacking other devices on
the trusted LAN, exfiltrating observed data, and passively profiling the
occupants.  Each behaviour here *adds* flows on top of the device's normal
grammar — compromised devices keep up appearances, which is what makes
detection a statistics problem rather than a signature lookup.

Also implemented: the passive observer's occupancy attack.  Even with all
payloads encrypted, event-driven devices (cameras, motion sensors, voice
assistants) emit bursts exactly when people are active, so flow timing
alone reveals when the home is occupied — IoT traffic is itself a smart
meter.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..timeseries import BinaryTrace, SECONDS_PER_HOUR
from .devices import Device, event_devices, is_event
from .flows import Direction, Flow, FlowLog


class CompromiseKind(Enum):
    """Attacker behaviours a compromised device can exhibit."""

    DDOS = "ddos"
    EXFILTRATION = "exfiltration"
    LATERAL_SCAN = "lateral_scan"
    PASSIVE_MONITOR = "passive_monitor"


@dataclass(frozen=True)
class Compromise:
    """A device compromised at ``start_s`` exhibiting ``kind`` behaviour."""

    device_id: str
    kind: CompromiseKind
    start_s: float

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("start_s cannot be negative")


def inject_compromise(
    log: FlowLog,
    compromise: Compromise,
    duration_s: float,
    lan_device_ids: list[str],
    rng: np.random.Generator | int | None = None,
) -> FlowLog:
    """Return a new log with the compromise's flows added.

    PASSIVE_MONITOR adds nothing — promiscuous sniffing is invisible at
    the flow level, which is precisely the paper's warning: "it is
    unlikely that users would ever detect or notice such passive
    monitoring".  The gateway's answer is least-privilege isolation, not
    detection (see :mod:`repro.netpriv.gateway`).
    """
    rng = np.random.default_rng(rng)
    extra: list[Flow] = []
    t0 = compromise.start_s
    if compromise.kind is CompromiseKind.DDOS:
        # sustained high-rate upstream to a single victim
        t = t0
        while t < duration_s:
            extra.append(
                Flow(
                    time_s=float(t),
                    device_id=compromise.device_id,
                    endpoint="victim.example.net",
                    port=80,
                    direction=Direction.OUTBOUND,
                    bytes_up=int(rng.integers(2_000_000, 8_000_000)),
                    bytes_down=int(rng.integers(0, 5_000)),
                    packets=int(rng.integers(5_000, 20_000)),
                    duration_s=30.0,
                )
            )
            t += rng.uniform(20.0, 60.0)
    elif compromise.kind is CompromiseKind.EXFILTRATION:
        # periodic medium uploads to a new endpoint, paced to look tame
        t = t0 + rng.uniform(0, 600)
        while t < duration_s:
            extra.append(
                Flow(
                    time_s=float(t),
                    device_id=compromise.device_id,
                    endpoint="cdn-telemetry.badhost.example",
                    port=443,
                    direction=Direction.OUTBOUND,
                    bytes_up=int(rng.integers(200_000, 1_000_000)),
                    bytes_down=int(rng.integers(500, 3_000)),
                    packets=int(rng.integers(200, 1_200)),
                    duration_s=float(rng.uniform(5.0, 30.0)),
                )
            )
            t += rng.uniform(900.0, 2700.0)
    elif compromise.kind is CompromiseKind.LATERAL_SCAN:
        # probing other devices on the trusted LAN
        t = t0
        while t < duration_s:
            target = lan_device_ids[int(rng.integers(len(lan_device_ids)))]
            if target != compromise.device_id:
                extra.append(
                    Flow(
                        time_s=float(t),
                        device_id=compromise.device_id,
                        endpoint=target,
                        port=int(rng.choice([22, 23, 80, 443, 8080])),
                        direction=Direction.LATERAL,
                        bytes_up=int(rng.integers(100, 2_000)),
                        bytes_down=int(rng.integers(0, 500)),
                        packets=int(rng.integers(3, 30)),
                        duration_s=1.0,
                    )
                )
            t += rng.uniform(5.0, 60.0)
    # PASSIVE_MONITOR: no flows
    out = FlowLog(list(log.flows) + extra)
    out.sort()
    return out


#: Pad on the profile-derived empty-home event count.
_BASELINE_MARGIN = 2.0


def occupancy_from_traffic(
    log: FlowLog,
    devices: list[Device],
    duration_s: float,
    window_s: float = 1800.0,
) -> BinaryTrace:
    """Passive observer's occupancy inference from flow timing alone.

    Counts event-sized flows (:func:`~repro.netpriv.devices.is_event`,
    larger than heartbeats) from event-driven devices per window; windows
    with activity above the empty-home baseline are "occupied", and so is
    every window from 23:00 to 06:00 (a night prior).  Works on fully
    encrypted traffic — only sizes and timing are used.

    The empty-home baseline is derived from the *device profiles*: the sum
    of the event devices' empty-home event rates, scaled to the window and
    padded by a factor of two.  This matches the module's threat model
    (the attacker lab-profiles device models before observing the victim,
    exactly as :class:`~repro.netpriv.fingerprint.DeviceFingerprinter`
    assumes) and — unlike a quantile of the observed counts — stays correct
    for a home that is occupied in most or all windows.  Overnight windows
    are no refuge for a data-driven baseline either: occupants are *home*
    at night, so event devices keep firing at occupied rates.
    """
    if window_s <= 0 or duration_s < window_s:
        raise ValueError("need at least one whole window")
    signalling = {d.device_id: d for d in event_devices(devices)}
    n_windows = int(duration_s // window_s)
    counts = np.zeros(n_windows)
    for flow in log:
        if flow.device_id not in signalling or not is_event(flow):
            continue
        w = int(flow.time_s // window_s)
        if 0 <= w < n_windows:
            counts[w] += 1
    empty_rate_per_hour = sum(
        d.profile.event_rate_per_empty_hour for d in signalling.values()
    )
    threshold = max(
        1.0, _BASELINE_MARGIN * empty_rate_per_hour * window_s / SECONDS_PER_HOUR
    )
    occupied = (counts > threshold).astype(int)
    hours = (np.arange(n_windows) * window_s % 86400.0) / SECONDS_PER_HOUR
    occupied[(hours >= 23.0) | (hours < 6.0)] = 1
    return BinaryTrace(occupied, window_s, 0.0)
