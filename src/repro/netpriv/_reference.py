"""Reference implementations of the netpriv simulation, shaping, feature
and digest loops.

These are the per-flow, per-record and per-window loops that the
production paths ran before they moved to whole-log columns, kept
verbatim as *reference semantics* (see ``docs/PERFORMANCE.md``):

* :func:`simulate_flows_loop` and :func:`simulate_lan_loop` —
  ``Device.simulate_flows`` and :func:`~repro.netpriv.lan.simulate_lan`,
  one :class:`Flow` per generated flow;
* :func:`windowed_device_flows` groups a log by device and window,
  :func:`flow_features` featurizes one window's flows, and
  :func:`device_window_features_loop` is the two together;
* :func:`occupancy_window_features_loop` and
  :func:`occupancy_from_traffic_loop` — the two occupancy attacks'
  per-flow window counts;
* :func:`cover_shape_loop` (with :func:`cover_flows_loop`),
  :func:`constant_rate_shape_loop`, :func:`jitter_shape_loop` and
  :func:`merge_shape_loop` — the four shapers' per-flow passes;
* :func:`flow_log_digest_loop` — the digest, one ``repr`` per record;
* :func:`learn_baselines_loop` and :func:`enforce_loop` —
  :class:`~repro.netpriv.gateway.SmartGateway`'s two passes over
  :func:`by_device_loop`'s per-device record lists and, in ``enforce``,
  a per-record least-privilege filter.

The contract is strict: with the same log, windows and seed, the
production paths must return bitwise-identical feature matrices under the
same device keys in the same order, logs with the same
:func:`~repro.netpriv.flows.flow_log_digest`, reports whose every field
has the same ``repr``, and generators left in the same state.
``tests/test_kernel_equivalence.py`` pins them; nothing outside the tests
imports this module.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np

from ..home.occupancy import OccupancyConfig, simulate_occupancy
from ..timeseries import BinaryTrace, SECONDS_PER_DAY, SECONDS_PER_HOUR
from .adaptive import _N_SUBBINS, _WINDOW_S
from .devices import (
    _FIRMWARE_BYTES_DOWN,
    _FIRMWARE_CHECKS_PER_DAY,
    CLOUD_PORT,
    Device,
    event_devices,
    is_event,
)
from .fingerprint import FEATURE_NAMES, device_window_features
from .flows import Direction, Flow, FlowLog
from .gateway import _ANOMALY_WINDOWS_TO_QUARANTINE, _ANOMALY_Z_THRESHOLD
from .gateway import _WINDOW_S as _GATEWAY_WINDOW_S
from .gateway import DeviceBaseline, GatewayReport, SmartGateway
from .lan import LanConfig, LanSimulation
from .shaping import (
    _SHAPE_END_HOUR,
    _SHAPE_START_HOUR,
    ConstantRatePadding,
    FlowMerging,
    HeartbeatJitter,
    ShapingReport,
    TrafficShaper,
)
from .threats import _BASELINE_MARGIN


def flow_features(log: "FlowLog | list", window_s: float) -> np.ndarray:
    """Feature vector for one device's flows within one window.

    Accepts a :class:`FlowLog` or a plain list of flows.  Returns a vector
    of ``len(FEATURE_NAMES)``; a window with no flows yields all zeros
    (itself informative — silence is a pattern).
    """
    flows = log.flows if isinstance(log, FlowLog) else log
    if not flows:
        return np.zeros(len(FEATURE_NAMES))
    times = np.asarray([f.time_s for f in flows])
    up = np.asarray([f.bytes_up for f in flows], dtype=float)
    down = np.asarray([f.bytes_down for f in flows], dtype=float)
    packets = np.asarray([max(f.packets, 1) for f in flows], dtype=float)
    durations = np.asarray([f.duration_s for f in flows])
    inter = np.diff(np.sort(times)) if len(times) > 1 else np.asarray([window_s])
    total = up + down
    return np.asarray(
        [
            len(flows) / (window_s / 3600.0),
            up.mean(),
            down.mean(),
            up.sum() / max(down.sum(), 1.0),
            float(np.percentile(up, 95)),
            float(np.median(inter)),
            float(np.percentile(inter, 75) - np.percentile(inter, 25)),
            len({f.endpoint for f in flows}),
            float(np.mean([f.direction is Direction.INBOUND for f in flows])),
            float(durations.mean()),
            float((total / packets).mean()),
            float(np.mean(total > 100_000)),
        ]
    )


def windowed_device_flows(
    log: FlowLog,
    duration_s: float,
    window_s: float,
    devices: "list[Device] | list[str] | None" = None,
) -> dict[str, list[list]]:
    """Group flows by device and window in one pass: device -> [flows]*n.

    A single O(F) sweep instead of per-(device, window) rescans — flow logs
    for a 40-device LAN run to hundreds of thousands of flows.

    ``devices`` (a list of :class:`Device` or of device-id strings) pre-seeds
    the grouping, so a device with zero in-range flows still gets its full
    run of empty windows — honouring :func:`flow_features`'s "silence is a
    pattern" contract instead of silently vanishing from the feature set.
    Devices present in the log but absent from ``devices`` are kept too.
    """
    if window_s <= 0 or duration_s < window_s:
        raise ValueError("need at least one whole window")
    n_windows = int(duration_s // window_s)
    grouped: dict[str, list[list]] = {}
    if devices is not None:
        for device in devices:
            device_id = device if isinstance(device, str) else device.device_id
            grouped[device_id] = [[] for _ in range(n_windows)]
    for flow in log:
        w = int(flow.time_s // window_s)
        if not 0 <= w < n_windows:
            continue
        if flow.device_id not in grouped:
            grouped[flow.device_id] = [[] for _ in range(n_windows)]
        grouped[flow.device_id][w].append(flow)
    return grouped


def device_window_features_loop(
    log: FlowLog,
    duration_s: float,
    window_s: float = 3600.0,
    devices: "list[Device] | list[str] | None" = None,
) -> dict[str, np.ndarray]:
    """Original ``device_window_features``: one :func:`flow_features` call
    per (device, window)."""
    grouped = windowed_device_flows(log, duration_s, window_s, devices)
    return {
        device_id: np.asarray([flow_features(flows, window_s) for flows in windows])
        for device_id, windows in grouped.items()
    }


def jitter_shape_loop(
    shaper: HeartbeatJitter,
    log: FlowLog,
    devices: list[Device],
    duration_s: float,
    rng: np.random.Generator | int | None = None,
) -> tuple[FlowLog, ShapingReport]:
    """Original ``HeartbeatJitter.shape``: three scalar draws and one
    ``np.clip`` per heartbeat."""
    rng = np.random.default_rng(rng)
    report = ShapingReport()
    profiles = {d.device_id: d.profile for d in devices}
    shaped: list[Flow] = []
    total_shift = 0.0
    for flow in log:
        profile = profiles.get(flow.device_id)
        is_heartbeat = (
            profile is not None
            and flow.bytes_up <= profile.heartbeat_bytes_up * 1.5
            and flow.duration_s < 1.0
        )
        if not is_heartbeat:
            shaped.append(flow)
            continue
        shift = float(
            rng.uniform(-shaper.scale, shaper.scale) * profile.heartbeat_interval_s
        )
        jittered = float(np.clip(flow.time_s + shift, 0.0, duration_s - 1e-3))
        scale_up = 1.0 + float(rng.uniform(-shaper.scale, shaper.scale))
        scale_down = 1.0 + float(rng.uniform(-shaper.scale, shaper.scale))
        shaped.append(
            Flow(
                time_s=jittered,
                device_id=flow.device_id,
                endpoint=flow.endpoint,
                port=flow.port,
                direction=flow.direction,
                bytes_up=max(1, int(flow.bytes_up * scale_up)),
                bytes_down=max(1, int(flow.bytes_down * scale_down)),
                packets=flow.packets,
                duration_s=flow.duration_s,
            )
        )
        report.delayed_flows += 1
        total_shift += abs(jittered - flow.time_s)
    if report.delayed_flows:
        report.mean_added_delay_s = total_shift / report.delayed_flows
    out = FlowLog(shaped)
    out.sort()
    return out, report


def merge_shape_loop(
    shaper: FlowMerging,
    log: FlowLog,
    devices: list[Device],
    duration_s: float,
    rng: np.random.Generator | int | None = None,
) -> tuple[FlowLog, ShapingReport]:
    """Original ``FlowMerging.shape``: a numpy-scalar ``np.floor`` per
    merged flow."""
    report = ShapingReport()
    merged = shaper.merged_ids(devices)
    shaped: list[Flow] = []
    total_delay = 0.0
    for flow in log:
        if flow.device_id in merged and flow.direction is not Direction.LATERAL:
            held = (np.floor(flow.time_s / shaper.quantum_s) + 1.0) * shaper.quantum_s
            held = min(float(held), duration_s - 1e-3)
            shaped.append(
                Flow(
                    time_s=held,
                    device_id=shaper.TUNNEL_DEVICE,
                    endpoint=shaper.TUNNEL_ENDPOINT,
                    port=443,
                    direction=flow.direction,
                    bytes_up=flow.bytes_up,
                    bytes_down=flow.bytes_down,
                    packets=flow.packets,
                    duration_s=flow.duration_s,
                )
            )
            report.merged_flows += 1
            if held > flow.time_s:
                report.delayed_flows += 1
                total_delay += held - flow.time_s
        else:
            shaped.append(flow)
    if report.delayed_flows:
        report.mean_added_delay_s = total_delay / report.delayed_flows
    out = FlowLog(shaped)
    out.sort()
    return out, report


def simulate_flows_loop(
    device: Device,
    duration_s: float,
    occupancy: BinaryTrace | None,
    rng: np.random.Generator,
) -> list[Flow]:
    """Original ``Device.simulate_flows``: one :class:`Flow` per generated
    flow, sorted by time."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    profile = device.profile
    flows: list[Flow] = []

    def occupied_at(t: float) -> bool:
        if occupancy is None:
            return True
        idx = min(int(t / occupancy.period_s), len(occupancy) - 1)
        return bool(occupancy.values[idx])

    # heartbeats: metronomic with small jitter
    t = rng.uniform(0.0, profile.heartbeat_interval_s)
    while t < duration_s:
        flows.append(
            Flow(
                time_s=t,
                device_id=device.device_id,
                endpoint=profile.endpoints[0],
                port=CLOUD_PORT,
                direction=Direction.OUTBOUND,
                bytes_up=profile.heartbeat_bytes_up,
                bytes_down=profile.heartbeat_bytes_down,
                packets=4,
                duration_s=0.5,
            )
        )
        t += profile.heartbeat_interval_s * rng.uniform(0.95, 1.05)

    # events: rate depends on occupancy (motion, toggles, voice)
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
            endpoint = profile.endpoints[int(rng.integers(len(profile.endpoints)))]
            flows.append(
                Flow(
                    time_s=float(et),
                    device_id=device.device_id,
                    endpoint=endpoint,
                    port=CLOUD_PORT,
                    direction=Direction.OUTBOUND,
                    bytes_up=int(rng.integers(*profile.event_bytes_up)),
                    bytes_down=int(rng.integers(*profile.event_bytes_down)),
                    packets=int(rng.integers(10, 200)),
                    duration_s=float(rng.uniform(1.0, 30.0)),
                )
            )
        hour += 1.0

    # continuous upstream streaming (cameras): one flow per 5 minutes
    if profile.stream_rate_bytes_per_s > 0:
        chunk = 300.0
        t = 0.0
        while t < duration_s:
            flows.append(
                Flow(
                    time_s=t,
                    device_id=device.device_id,
                    endpoint=profile.endpoints[0],
                    port=CLOUD_PORT,
                    direction=Direction.OUTBOUND,
                    bytes_up=int(profile.stream_rate_bytes_per_s * chunk),
                    bytes_down=int(profile.stream_rate_bytes_per_s * chunk * 0.02),
                    packets=int(chunk * 10),
                    duration_s=chunk,
                )
            )
            t += chunk

    # evening downstream streaming (TVs), only while occupied
    if profile.evening_stream_bytes_per_s > 0:
        n_days = int(np.ceil(duration_s / SECONDS_PER_DAY))
        for day in range(n_days):
            if rng.uniform() > 0.75:
                continue
            start = day * SECONDS_PER_DAY + rng.uniform(19.0, 21.0) * SECONDS_PER_HOUR
            length = rng.uniform(0.5, 3.0) * SECONDS_PER_HOUR
            t = start
            while t < min(start + length, duration_s):
                if occupied_at(t):
                    flows.append(
                        Flow(
                            time_s=float(t),
                            device_id=device.device_id,
                            endpoint=profile.endpoints[0],
                            port=CLOUD_PORT,
                            direction=Direction.INBOUND,
                            bytes_up=int(profile.evening_stream_bytes_per_s * 300 * 0.01),
                            bytes_down=int(profile.evening_stream_bytes_per_s * 300),
                            packets=3000,
                            duration_s=300.0,
                        )
                    )
                t += 300.0

    # firmware checks
    n_days = max(1, int(np.ceil(duration_s / SECONDS_PER_DAY)))
    for _ in range(rng.poisson(_FIRMWARE_CHECKS_PER_DAY * n_days)):
        t = rng.uniform(0.0, duration_s)
        flows.append(
            Flow(
                time_s=float(t),
                device_id=device.device_id,
                endpoint=profile.endpoints[-1],
                port=CLOUD_PORT,
                direction=Direction.OUTBOUND,
                bytes_up=2_000,
                bytes_down=_FIRMWARE_BYTES_DOWN,
                packets=4000,
                duration_s=60.0,
            )
        )
    flows.sort(key=lambda f: f.time_s)
    return flows


def simulate_lan_loop(
    config: LanConfig,
    n_days: int,
    rng: np.random.Generator | int | None = None,
) -> LanSimulation:
    """Original :func:`~repro.netpriv.lan.simulate_lan`: each device's
    sorted record list appended to the log, then the log sorted."""
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

    log = FlowLog()
    for device in devices:
        log.extend(simulate_flows_loop(device, duration_s, occupancy, rng))
    log.sort()
    return LanSimulation(
        devices=devices, occupancy=occupancy, log=log, duration_s=duration_s
    )


def cover_flows_loop(
    devices: Iterable[Device],
    real_events: dict[str, np.ndarray],
    margin: float,
    hours: Sequence[int],
    duration_s: float,
    rng: np.random.Generator,
    report: ShapingReport,
    any_endpoint: bool,
) -> list[Flow]:
    """Original ``shaping._cover_flows``: one :class:`Flow` per cover
    flow."""
    cover: list[Flow] = []
    for device in devices:
        profile = device.profile
        target = margin * profile.event_rate_per_occupied_hour
        for hour in hours:
            deficit = max(0.0, target - real_events[device.device_id][hour])
            for _ in range(rng.poisson(deficit)):
                t = (hour + rng.uniform()) * SECONDS_PER_HOUR
                if t >= duration_s:
                    continue
                bytes_up = int(rng.integers(*profile.event_bytes_up))
                bytes_down = int(rng.integers(*profile.event_bytes_down))
                endpoint = profile.endpoints[
                    int(rng.integers(len(profile.endpoints))) if any_endpoint else 0
                ]
                cover.append(
                    Flow(
                        time_s=float(t),
                        device_id=device.device_id,
                        endpoint=endpoint,
                        port=CLOUD_PORT,
                        direction=Direction.OUTBOUND,
                        bytes_up=bytes_up,
                        bytes_down=bytes_down,
                        packets=int(rng.integers(10, 200)),
                        duration_s=float(rng.uniform(1.0, 30.0)),
                    )
                )
                report.cover_flows += 1
                report.cover_bytes += bytes_up + bytes_down
    return cover


def cover_shape_loop(
    shaper: TrafficShaper,
    log: FlowLog,
    devices: list[Device],
    duration_s: float,
    rng: np.random.Generator | int | None = None,
) -> tuple[FlowLog, ShapingReport]:
    """Original ``TrafficShaper.shape``: a scalar delay draw and a
    ``replace`` per real event; an event whose shaped hour lies outside
    the log's hours is not tallied."""
    rng = np.random.default_rng(rng)
    report = ShapingReport()
    shaped: list[Flow] = []
    event_ids = {d.device_id: d for d in event_devices(devices)}

    n_hours = int(np.ceil(duration_s / SECONDS_PER_HOUR))
    real_events: dict[str, np.ndarray] = {
        device_id: np.zeros(n_hours) for device_id in event_ids
    }
    total_delay = 0.0
    for flow in log:
        event = flow.device_id in event_ids and is_event(flow)
        shaped_time = flow.time_s
        if event and shaper.max_delay_s > 0:
            delay = float(rng.uniform(0.0, shaper.max_delay_s))
            shaped_time = min(flow.time_s + delay, duration_s - 1e-3)
            shaped.append(replace(flow, time_s=shaped_time))
            report.delayed_flows += 1
            total_delay += delay
        else:
            shaped.append(flow)
        if event:
            hour = int(shaped_time // SECONDS_PER_HOUR)
            if 0 <= hour < n_hours:
                real_events[flow.device_id][hour] += 1

    # adaptive cover traffic: top each device up to its occupied rate
    daytime = [
        hour
        for hour in range(n_hours)
        if _SHAPE_START_HOUR <= hour % 24 < _SHAPE_END_HOUR
    ]
    shaped += cover_flows_loop(
        event_ids.values(), real_events, shaper.margin, daytime,
        duration_s, rng, report, any_endpoint=False,
    )
    if report.delayed_flows:
        report.mean_added_delay_s = total_delay / report.delayed_flows
    out = FlowLog(shaped)
    out.sort()
    return out, report


def constant_rate_shape_loop(
    shaper: ConstantRatePadding,
    log: FlowLog,
    devices: list[Device],
    duration_s: float,
    rng: np.random.Generator | int | None = None,
) -> tuple[FlowLog, ShapingReport]:
    """Original ``ConstantRatePadding.shape``: real events tallied one
    record at a time, skipping those outside the log's hours."""
    rng = np.random.default_rng(rng)
    report = ShapingReport()
    event_ids = {d.device_id: d for d in event_devices(devices)}
    n_hours = int(np.ceil(duration_s / SECONDS_PER_HOUR))
    real_events: dict[str, np.ndarray] = {
        device_id: np.zeros(n_hours) for device_id in event_ids
    }
    for flow in log:
        if flow.device_id in event_ids and is_event(flow):
            hour = int(flow.time_s // SECONDS_PER_HOUR)
            if 0 <= hour < n_hours:
                real_events[flow.device_id][hour] += 1

    shaped = log.flows + cover_flows_loop(
        event_ids.values(), real_events, shaper.margin, range(n_hours),
        duration_s, rng, report, any_endpoint=True,
    )
    out = FlowLog(shaped)
    out.sort()
    return out, report


def occupancy_window_features_loop(
    log: FlowLog, devices: list[Device], duration_s: float
) -> np.ndarray:
    """Original ``adaptive.occupancy_window_features``: one record at a
    time into per-window counters."""
    if duration_s < _WINDOW_S:
        raise ValueError("need at least one whole window")
    n_windows = int(duration_s // _WINDOW_S)
    subbin_s = _WINDOW_S / _N_SUBBINS
    primary = {d.device_id: d.profile.endpoints[0] for d in devices}

    counts = np.zeros(n_windows)
    bytes_up = np.zeros(n_windows)
    secondary = np.zeros(n_windows)
    subbins = np.zeros((n_windows, _N_SUBBINS))
    active: list[set[str]] = [set() for _ in range(n_windows)]
    for flow in log:
        if not is_event(flow):
            continue
        w = int(flow.time_s // _WINDOW_S)
        if not 0 <= w < n_windows:
            continue
        counts[w] += 1
        bytes_up[w] += flow.bytes_up
        active[w].add(flow.device_id)
        b = min(int((flow.time_s - w * _WINDOW_S) // subbin_s), _N_SUBBINS - 1)
        subbins[w, b] += 1
        p = primary.get(flow.device_id)
        if p is not None and flow.endpoint != p:
            secondary[w] += 1
    return np.column_stack(
        [
            counts,
            np.log1p(bytes_up),
            np.asarray([len(s) for s in active], dtype=float),
            subbins.max(axis=1),
            subbins.std(axis=1),
            secondary,
        ]
    )


def occupancy_from_traffic_loop(
    log: FlowLog,
    devices: list[Device],
    duration_s: float,
    window_s: float = 1800.0,
) -> BinaryTrace:
    """Original ``threats.occupancy_from_traffic``: event counts per
    window, one record at a time."""
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


def flow_log_digest_loop(log: FlowLog) -> str:
    """Original ``flow_log_digest``: one ``repr`` and one hash update per
    record."""
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


def by_device_loop(
    log: FlowLog, duration_s: float, window_s: float
) -> dict[str, list[Flow]]:
    """Original ``gateway._by_device``: each device's flows inside the
    log's whole windows, earliest window first and in log order within a
    window."""
    n_windows = int(duration_s // window_s)
    windowed = sorted(
        ((int(flow.time_s // window_s), flow) for flow in log), key=lambda pair: pair[0]
    )
    grouped: dict[str, list[Flow]] = {}
    for w, flow in windowed:
        if 0 <= w < n_windows:
            grouped.setdefault(flow.device_id, []).append(flow)
    return grouped


def learn_baselines_loop(
    gateway: SmartGateway,
    log: FlowLog,
    duration_s: float,
    device_types: dict[str, str] | None = None,
) -> None:
    """Original ``SmartGateway.learn_baselines``: endpoint sets from
    :func:`by_device_loop`'s record lists."""
    if int(duration_s // _GATEWAY_WINDOW_S) < 4:
        raise ValueError("need at least 4 windows of training traffic")
    matrices = device_window_features(log, duration_s, _GATEWAY_WINDOW_S)
    endpoints: dict[str, frozenset[str]] = {}
    for flows in by_device_loop(log, duration_s, _GATEWAY_WINDOW_S).values():
        endpoints[flows[0].device_id] = frozenset(f.endpoint for f in flows)
    for device_id, matrix in matrices.items():
        pool = matrix
        pooled_endpoints = endpoints[device_id]
        if device_types and device_id in device_types:
            siblings = [
                other
                for other, m in matrices.items()
                if device_types.get(other) == device_types[device_id]
            ]
            pool = np.vstack([matrices[s] for s in siblings])
            pooled_endpoints = frozenset().union(
                *(endpoints[s] for s in siblings)
            )
        gateway.baselines[device_id] = DeviceBaseline(
            mean=pool.mean(axis=0),
            std=np.maximum(pool.std(axis=0), 1e-6),
            endpoints=pooled_endpoints,
        )


def enforce_loop(
    gateway: SmartGateway, log: FlowLog, duration_s: float
) -> tuple[FlowLog, GatewayReport]:
    """Original ``SmartGateway.enforce``: first sightings from
    :func:`by_device_loop`, then one record at a time through the
    quarantine, lateral and endpoint checks."""
    if not gateway.baselines:
        raise RuntimeError("gateway has no baselines; call learn_baselines first")
    n_windows = int(np.ceil(duration_s / _GATEWAY_WINDOW_S))

    quarantined_at: dict[str, float] = {}
    anomaly_streak: dict[str, int] = {}
    report = GatewayReport()
    passed: list[Flow] = []

    # evaluate anomaly state window by window, then filter flows
    horizon_s = n_windows * _GATEWAY_WINDOW_S
    features = device_window_features(log, horizon_s, _GATEWAY_WINDOW_S)
    in_range = by_device_loop(log, horizon_s, _GATEWAY_WINDOW_S)
    for device_id, matrix in features.items():
        baseline = gateway.baselines.get(device_id)
        if baseline is None:
            # unknown device: quarantine on first sight (least privilege)
            quarantined_at[device_id] = float(in_range[device_id][0].time_s)
            continue
        for w, row in enumerate(matrix):
            score = baseline.threat_score(row)
            report.anomaly_scores.setdefault(device_id, []).append(score)
            if score > _ANOMALY_Z_THRESHOLD:
                anomaly_streak[device_id] = anomaly_streak.get(device_id, 0) + 1
                if anomaly_streak[device_id] >= _ANOMALY_WINDOWS_TO_QUARANTINE:
                    quarantined_at[device_id] = (w + 1) * _GATEWAY_WINDOW_S
                    break
            else:
                anomaly_streak[device_id] = 0

    for flow in log:
        device_id = flow.device_id
        q_time = quarantined_at.get(device_id)
        if q_time is not None and flow.time_s >= q_time:
            continue  # dropped: device is in quarantine
        if flow.direction is Direction.LATERAL:
            report.blocked_lateral += 1
            continue
        baseline = gateway.baselines.get(device_id)
        if baseline is not None and flow.endpoint not in baseline.endpoints:
            report.blocked_unknown_endpoint += 1
            continue
        report.allowed += 1
        passed.append(flow)

    report.quarantined_devices = quarantined_at
    return FlowLog(passed), report
