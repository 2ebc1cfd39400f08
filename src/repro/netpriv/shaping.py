"""Traffic shaping: defending against the passive flow-timing observer.

Extension beyond the paper's explicit proposals (flagged as such in
DESIGN.md): Sec. IV warns that a passive observer — a compromised device in
promiscuous mode, or the ISP side of the gateway — can profile occupants
from encrypted traffic *timing* alone (see
:func:`repro.netpriv.threats.occupancy_from_traffic`).  Isolation does not
help against an observer upstream of the gateway; the classical remedies
are gateway-side reshaping mechanisms, each a :class:`FlowShaper`:

* **adaptive cover traffic** (:class:`TrafficShaper`) — inject dummy
  event-sized flows for event-driven devices, topping each device up to a
  margin over its occupied-home rate, so silence no longer means absence;
* **constant-rate padding** (:class:`ConstantRatePadding`) — pad every
  event device toward one flat target rate around the clock, with no
  occupancy gating at all;
* **cross-device flow merging** (:class:`FlowMerging`) — tunnel a fraction
  of devices through one gateway pseudo-device, erasing per-device
  attribution and batching flows to quantum boundaries;
* **heartbeat jitter** (:class:`HeartbeatJitter`) — randomize heartbeat
  timing and sizes so the metronomic signatures fingerprinters key on
  blur.

Shaping costs bandwidth (cover flows) and latency (delays/batching),
giving each mechanism a measurable position on the paper's
privacy/functionality/cost axes.  Every shaper is dialable through the
``"netpriv"`` knob-mapping domain (:func:`make_shaper`, ``name@setting``),
which is what lets :mod:`repro.fleet.netpriv` sweep them on the same
grid/frontier machinery as the energy defenses.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..core.knob import knob_mapping, register_knob_mapping
from ..timeseries import SECONDS_PER_HOUR
from .devices import CLOUD_PORT, Device, event_devices, is_event
from .flows import DIRECTION_CODES, Direction, FlowLog

#: Knob-mapping domain netpriv shapers register under (vs. energy's
#: ``TraceDefense`` mappings — see :mod:`repro.core.knob`).
NETPRIV_KNOB_DOMAIN = "netpriv"


@dataclass
class ShapingReport:
    """Cost accounting for a shaping pass.

    ``delayed_flows`` / ``mean_added_delay_s`` cover every flow whose
    timestamp moved (batching holds and jitter shifts included — for
    jitter the mean is over *absolute* shifts); ``merged_flows`` counts
    flows re-attributed to the gateway tunnel by :class:`FlowMerging`.
    """

    cover_flows: int = 0
    cover_bytes: int = 0
    delayed_flows: int = 0
    mean_added_delay_s: float = 0.0
    merged_flows: int = 0


class FlowShaper:
    """A gateway-side reshaping mechanism over a LAN's flow log.

    Subclasses implement :meth:`shape`; all are deterministic given the
    ``rng``, which is what the seed-determinism tests (and the fleet's
    spawned seed streams) rely on.
    """

    def shape(
        self,
        log: FlowLog,
        devices: list[Device],
        duration_s: float,
        rng: np.random.Generator | int | None = None,
    ) -> tuple[FlowLog, ShapingReport]:
        """Return the shaped log and the shaping cost report."""
        raise NotImplementedError


class IdentityShaper(FlowShaper):
    """Setting 0 of every netpriv dial: pass the log through untouched."""

    def shape(
        self,
        log: FlowLog,
        devices: list[Device],
        duration_s: float,
        rng: np.random.Generator | int | None = None,
    ) -> tuple[FlowLog, ShapingReport]:
        return log, ShapingReport()


#: Hours of the day :class:`TrafficShaper` pads: overnight silence is
#: normal, so padding it would only cost bandwidth.
_SHAPE_START_HOUR = 6.0
_SHAPE_END_HOUR = 23.5


def _total_in_order(values: np.ndarray) -> float:
    """``values`` added left to right from 0.0, as a float loop adds them
    (``np.sum`` adds pairwise, which can round differently)."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def _written(column: np.ndarray, index: np.ndarray, values) -> np.ndarray:
    """A copy of ``column`` with ``values`` at ``index`` (a log's columns
    are shared, so they are never written in place)."""
    out = column.copy()
    out[index] = values
    return out


def _events_of(log: FlowLog, event_ids: dict[str, Device]) -> np.ndarray:
    """Positions of the flows that are events
    (:func:`~repro.netpriv.devices.is_event`) of a device in ``event_ids``."""
    of_event_device = np.array([d in event_ids for d in log.device_ids], dtype=bool)
    return np.flatnonzero(of_event_device[log.device] & is_event(log))


def _hourly_events(
    log: FlowLog,
    events: np.ndarray,
    times: np.ndarray,
    event_ids: dict[str, Device],
    n_hours: int,
) -> dict[str, np.ndarray]:
    """Each event device's count of ``log``'s ``events`` per hour of their
    ``times``; an event outside the log's ``n_hours`` is not counted."""
    hour = times // SECONDS_PER_HOUR
    inside = (hour >= 0) & (hour < n_hours)
    slot = log.device[events][inside] * n_hours + hour[inside].astype(np.intp)
    counts = np.bincount(slot, minlength=len(log.device_ids) * n_hours)
    by_device = counts.reshape(len(log.device_ids), n_hours).astype(float)
    return {
        device_id: by_device[log.device_ids.index(device_id)]
        if device_id in log.device_ids
        else np.zeros(n_hours)
        for device_id in event_ids
    }


def _cover_flows(
    devices: Iterable[Device],
    real_events: dict[str, np.ndarray],
    margin: float,
    hours: Sequence[int],
    duration_s: float,
    rng: np.random.Generator,
    report: ShapingReport,
    any_endpoint: bool,
) -> FlowLog:
    """Cover flows topping each event device up to ``margin`` times its
    occupied-home event rate in each of ``hours``, less its ``real_events``
    there, counted into ``report``.  A flow mimics the device's own event
    sizes and goes to its primary cloud endpoint or, with ``any_endpoint``,
    to one drawn from its endpoint set; every shaped digest pins the order
    of the draws."""
    columns: dict[str, list] = {
        name: []
        for name in (
            "time_s", "device", "endpoint", "bytes_up", "bytes_down", "packets",
            "duration_s",
        )
    }
    device_ids: list[str] = []
    endpoints: dict[str, int] = {}
    for device in devices:
        profile = device.profile
        target = margin * profile.event_rate_per_occupied_hour
        code = len(device_ids)
        device_ids.append(device.device_id)
        own = [endpoints.setdefault(e, len(endpoints)) for e in profile.endpoints]
        tally = real_events[device.device_id].tolist()
        for hour in hours:
            deficit = max(0.0, target - tally[hour])
            for _ in range(rng.poisson(deficit)):
                t = (hour + rng.uniform()) * SECONDS_PER_HOUR
                if t >= duration_s:
                    continue
                # one cover flow's draws, in the order the loop makes them
                bytes_up = int(rng.integers(*profile.event_bytes_up))
                bytes_down = int(rng.integers(*profile.event_bytes_down))
                columns["endpoint"].append(
                    own[int(rng.integers(len(own))) if any_endpoint else 0]
                )
                columns["packets"].append(int(rng.integers(10, 200)))
                columns["duration_s"].append(rng.uniform(1.0, 30.0))
                columns["time_s"].append(t)
                columns["device"].append(code)
                columns["bytes_up"].append(bytes_up)
                columns["bytes_down"].append(bytes_down)
                report.cover_flows += 1
                report.cover_bytes += bytes_up + bytes_down
    return FlowLog.from_columns(
        device_ids,
        list(endpoints),
        port=CLOUD_PORT,
        direction=DIRECTION_CODES[Direction.OUTBOUND],
        **columns,
    )


class TrafficShaper(FlowShaper):
    """Adaptive cover traffic plus randomized event delays.

    Only *event-driven* devices are shaped (heartbeats and streams are
    metronomic already and carry no occupancy signal).  Cover traffic is
    *adaptive*: from 06:00 to 23:30 each shaped device is topped up to
    ``margin`` times its occupied-home event rate every hour, counting the
    real events that already happened, so an empty home emits the same
    event statistics as a busy one (constant-rate padding alone leaves the
    real events' additive bump visible).  Real events are held for up to
    ``max_delay_s``.  Cover flows mimic each device's own event size
    distribution and go to the device's own cloud endpoint —
    indistinguishable at the flow level from the real thing.
    """

    def __init__(self, margin: float = 1.2, max_delay_s: float = 120.0) -> None:
        if margin < 1.0:
            raise ValueError("margin must be >= 1")
        if max_delay_s < 0:
            raise ValueError("delays cannot be negative")
        self.margin = float(margin)
        self.max_delay_s = float(max_delay_s)

    def shape(
        self,
        log: FlowLog,
        devices: list[Device],
        duration_s: float,
        rng: np.random.Generator | int | None = None,
    ) -> tuple[FlowLog, ShapingReport]:
        """Return the shaped log (delayed events + cover flows) and costs."""
        rng = np.random.default_rng(rng)
        report = ShapingReport()
        event_ids = {d.device_id: d for d in event_devices(devices)}
        n_hours = int(np.ceil(duration_s / SECONDS_PER_HOUR))

        # real events are bucketed by their *shaped* timestamps: a delayed
        # event that crosses an hour boundary must count against the hour
        # it now lands in, or the cover pass over-pads its origin hour and
        # exceeds the target in the next — an hour-edge artifact an
        # adaptive attacker can count
        events = _events_of(log, event_ids)
        shaped, times = log, log.time_s[events]
        if self.max_delay_s > 0:
            # one draw per event, in log order: the stream a scalar draw
            # per event consumes
            delays = rng.uniform(0.0, self.max_delay_s, size=len(events))
            times = np.minimum(times + delays, duration_s - 1e-3)
            shaped = log.replaced(time_s=_written(log.time_s, events, times))
            report.delayed_flows = len(events)
            if len(events):
                report.mean_added_delay_s = _total_in_order(delays) / len(events)
        real_events = _hourly_events(log, events, times, event_ids, n_hours)

        # adaptive cover traffic: top each device up to its occupied rate
        daytime = [
            hour
            for hour in range(n_hours)
            if _SHAPE_START_HOUR <= hour % 24 < _SHAPE_END_HOUR
        ]
        cover = _cover_flows(
            event_ids.values(), real_events, self.margin, daytime,
            duration_s, rng, report, any_endpoint=False,
        )
        return FlowLog.concat([shaped, cover]).sorted(), report


class ConstantRatePadding(FlowShaper):
    """Pad every event device toward one flat rate, around the clock.

    Unlike :class:`TrafficShaper`, there is no occupancy gating and no
    daytime shaping window: every hour of every day is topped up toward
    ``margin`` times the device's occupied-home event rate, and cover
    flows sample the device's *full* endpoint set the way real events do
    (closing the primary-endpoint residual adaptive attackers exploit in
    the cover shaper).  At ``margin >= 1`` the per-hour event process
    becomes statistically flat; below 1 the occupied hours still poke
    above the pad — the dialable middle of the frontier.
    """

    def __init__(self, margin: float) -> None:
        if margin <= 0:
            raise ValueError("margin must be positive")
        self.margin = float(margin)

    def shape(
        self,
        log: FlowLog,
        devices: list[Device],
        duration_s: float,
        rng: np.random.Generator | int | None = None,
    ) -> tuple[FlowLog, ShapingReport]:
        rng = np.random.default_rng(rng)
        report = ShapingReport()
        event_ids = {d.device_id: d for d in event_devices(devices)}
        n_hours = int(np.ceil(duration_s / SECONDS_PER_HOUR))
        events = _events_of(log, event_ids)
        real_events = _hourly_events(
            log, events, log.time_s[events], event_ids, n_hours
        )
        cover = _cover_flows(
            event_ids.values(), real_events, self.margin, range(n_hours),
            duration_s, rng, report, any_endpoint=True,
        )
        return FlowLog.concat([log, cover]).sorted(), report


class FlowMerging(FlowShaper):
    """Tunnel a fraction of devices through one gateway pseudo-device.

    The gateway relabels the merged devices' WAN flows to a single tunnel
    identity (``gateway`` → ``vpn.gateway.example``) and holds each one to
    the next ``quantum_s`` boundary, so per-device attribution — the
    substrate of fingerprinting and per-device baselining — disappears for
    the merged subset, at a bounded latency cost and zero cover bytes.
    The merged subset is the first ``round(fraction * n)`` of the sorted
    device ids: a pure function of the dial, so cells are comparable
    across seeds.  LATERAL flows stay untouched (they never cross the
    gateway).
    """

    TUNNEL_DEVICE = "gateway"
    TUNNEL_ENDPOINT = "vpn.gateway.example"

    def __init__(self, fraction: float, quantum_s: float = 300.0) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        if quantum_s <= 0:
            raise ValueError("quantum_s must be positive")
        self.fraction = float(fraction)
        self.quantum_s = float(quantum_s)

    def merged_ids(self, devices: list[Device]) -> set[str]:
        ids = sorted(d.device_id for d in devices)
        return set(ids[: int(round(self.fraction * len(ids)))])

    def shape(
        self,
        log: FlowLog,
        devices: list[Device],
        duration_s: float,
        rng: np.random.Generator | int | None = None,
    ) -> tuple[FlowLog, ShapingReport]:
        report = ShapingReport()
        merged = self.merged_ids(devices)
        of_merged = np.array([d in merged for d in log.device_ids], dtype=bool)
        tunneled = np.flatnonzero(
            of_merged[log.device]
            & (log.direction != DIRECTION_CODES[Direction.LATERAL])
        )
        times = log.time_s[tunneled]
        held = np.minimum(
            (np.floor(times / self.quantum_s) + 1.0) * self.quantum_s,
            duration_s - 1e-3,
        )
        delayed = held > times
        report.merged_flows = len(tunneled)
        report.delayed_flows = int(delayed.sum())
        if report.delayed_flows:
            report.mean_added_delay_s = (
                _total_in_order((held - times)[delayed]) / report.delayed_flows
            )
        device_ids = list(dict.fromkeys([*log.device_ids, self.TUNNEL_DEVICE]))
        endpoints = list(dict.fromkeys([*log.endpoints, self.TUNNEL_ENDPOINT]))
        columns = log.columns()
        shaped = FlowLog.from_columns(
            device_ids,
            endpoints,
            **{
                **columns,
                "time_s": _written(columns["time_s"], tunneled, held),
                "device": _written(
                    columns["device"], tunneled, device_ids.index(self.TUNNEL_DEVICE)
                ),
                "endpoint": _written(
                    columns["endpoint"], tunneled, endpoints.index(self.TUNNEL_ENDPOINT)
                ),
                "port": _written(columns["port"], tunneled, 443),
            },
        )
        return shaped.sorted(), report


class HeartbeatJitter(FlowShaper):
    """Randomize heartbeat timing and sizes to blur metronomic signatures.

    Each heartbeat-looking flow (small, sub-second, per the device's own
    profile) is shifted by up to ``scale`` of its heartbeat interval in
    either direction, and its byte counts scaled by up to ``scale`` —
    attacking the inter-arrival and size features fingerprinters weight
    most.  Event and streaming flows pass through untouched, so the
    occupancy side of the threat model is (deliberately) not covered:
    jitter is the cheap dial.
    """

    def __init__(self, scale: float) -> None:
        if not 0.0 < scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        self.scale = float(scale)

    def shape(
        self,
        log: FlowLog,
        devices: list[Device],
        duration_s: float,
        rng: np.random.Generator | int | None = None,
    ) -> tuple[FlowLog, ShapingReport]:
        rng = np.random.default_rng(rng)
        report = ShapingReport()
        profiles = {d.device_id: d.profile for d in devices}
        # per device code: the largest heartbeat and the heartbeat
        # interval; a device with no profile sends no heartbeats
        known = [profiles.get(d) for d in log.device_ids]
        largest = np.array(
            [-np.inf if p is None else p.heartbeat_bytes_up * 1.5 for p in known]
        )
        interval = np.array([0.0 if p is None else p.heartbeat_interval_s for p in known])
        beats = np.flatnonzero(
            (log.bytes_up <= largest[log.device]) & (log.duration_s < 1.0)
        )
        # one (shift, up, down) row per heartbeat: the stream three scalar
        # draws per heartbeat would consume, in the same order
        draws = rng.uniform(-self.scale, self.scale, size=(len(beats), 3))
        times = log.time_s[beats]
        jittered = np.clip(
            times + draws[:, 0] * interval[log.device[beats]], 0.0, duration_s - 1e-3
        )
        scaled = [
            np.maximum(1, (column[beats] * (1.0 + draws[:, k])).astype(np.int64))
            for k, column in ((1, log.bytes_up), (2, log.bytes_down))
        ]
        report.delayed_flows = len(beats)
        if len(beats):
            report.mean_added_delay_s = (
                _total_in_order(np.abs(jittered - times)) / len(beats)
            )
        shaped = log.replaced(
            time_s=_written(log.time_s, beats, jittered),
            bytes_up=_written(log.bytes_up, beats, scaled[0]),
            bytes_down=_written(log.bytes_down, beats, scaled[1]),
        )
        return shaped.sorted(), report


def make_shaper(name: str, setting: float) -> FlowShaper:
    """Build the named netpriv shaper dialed to a knob setting in [0, 1].

    Setting 0 is always :class:`IdentityShaper` — the knob fully open —
    anchoring every mechanism's frontier at the same unshaped point,
    exactly like :func:`repro.core.knob.knob_defense` on the energy side.
    A name with no netpriv knob mapping raises ``RegistryError`` at every
    setting, 0 included.
    """
    setting = float(setting)
    if not 0.0 <= setting <= 1.0:
        raise ValueError(f"knob setting must be in [0, 1], got {setting!r}")
    mapping = knob_mapping(name, NETPRIV_KNOB_DOMAIN)
    if setting == 0.0:
        return IdentityShaper()
    return mapping(setting)


# Netpriv knob mappings.  Each dials the shaper's natural strength axis so
# larger settings plausibly buy more privacy against the *naive* attacker;
# the adaptive arms race (repro.netpriv.adaptive) is what tests whether
# that privacy survives an attacker retrained on shaped traffic.
register_knob_mapping(
    # cover margin grows 1.0 -> 1.4 and the event-delay budget 0 -> 240 s
    "cover",
    lambda s: TrafficShaper(margin=1.0 + 0.4 * s, max_delay_s=240.0 * s),
    domain=NETPRIV_KNOB_DOMAIN,
)
register_knob_mapping(
    # flat target crosses the occupied rate at s ~ 0.67; full dial pads
    # every hour half again past it
    "constant-rate",
    lambda s: ConstantRatePadding(margin=1.5 * s),
    domain=NETPRIV_KNOB_DOMAIN,
)
register_knob_mapping(
    "merge",
    lambda s: FlowMerging(fraction=s),
    domain=NETPRIV_KNOB_DOMAIN,
)
register_knob_mapping(
    "jitter",
    lambda s: HeartbeatJitter(scale=0.8 * s),
    domain=NETPRIV_KNOB_DOMAIN,
)
