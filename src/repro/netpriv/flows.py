"""Flow-level network traffic records.

Sec. IV's threats and defenses all operate on *traffic patterns* — "their
frequency of transmission, the amount of data they transmit, and where
those transmissions are directed" — not payloads (IoT traffic is TLS
anyway).  A flow record captures exactly that: who talked to whom, when,
how much, in which direction.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum


class Direction(Enum):
    """Where the remote endpoint lives relative to the home LAN."""

    OUTBOUND = "outbound"  # device -> Internet
    INBOUND = "inbound"  # Internet -> device (cloud tunnel push)
    LATERAL = "lateral"  # device -> another LAN device


@dataclass(frozen=True)
class Flow:
    """One network flow as a gateway would summarize it."""

    time_s: float
    device_id: str
    endpoint: str  # remote host (domain or LAN device id)
    port: int
    direction: Direction
    bytes_up: int
    bytes_down: int
    packets: int
    duration_s: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.time_s):
            raise ValueError("flow time must be finite")
        if self.bytes_up < 0 or self.bytes_down < 0 or self.packets < 0:
            raise ValueError("byte/packet counts cannot be negative")
        if not self.duration_s >= 0:  # also refuses NaN
            raise ValueError("duration must be a non-negative number")


@dataclass
class FlowLog:
    """A time-ordered collection of flows (the gateway's view)."""

    flows: list[Flow] = field(default_factory=list)

    def add(self, flow: Flow) -> None:
        self.flows.append(flow)

    def extend(self, flows: list[Flow]) -> None:
        self.flows.extend(flows)

    def sort(self) -> None:
        self.flows.sort(key=lambda f: f.time_s)

    def __len__(self) -> int:
        return len(self.flows)

    def __iter__(self):
        return iter(self.flows)

    def in_window(self, t0_s: float, t1_s: float) -> "FlowLog":
        return FlowLog([f for f in self.flows if t0_s <= f.time_s < t1_s])


def flow_log_digest(log: FlowLog) -> str:
    """SHA-256 over every flow's full field tuple, in log order.

    The netpriv analogue of :func:`repro.fleet.engine.trace_digest`: two
    logs share a digest iff they are field-for-field identical, which is
    what the shaper/attacker determinism tests (and their golden pins)
    compare.  Floats hash via :func:`repr`, so bit-equal values are
    required — close is not equal.
    """
    h = hashlib.sha256()
    for f in log:
        h.update(
            repr(
                (
                    f.time_s,
                    f.device_id,
                    f.endpoint,
                    f.port,
                    f.direction.value,
                    f.bytes_up,
                    f.bytes_down,
                    f.packets,
                    f.duration_s,
                )
            ).encode()
        )
    return h.hexdigest()
