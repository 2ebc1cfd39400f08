"""Reference implementations of the netpriv feature and shaping loops.

These are the per-flow and per-window loops that
:func:`repro.netpriv.fingerprint.device_window_features`,
:meth:`HeartbeatJitter.shape` and :meth:`FlowMerging.shape` ran before
they moved to whole-log arrays, kept verbatim as *reference semantics*
(see ``docs/PERFORMANCE.md``): :func:`windowed_device_flows` groups a log
by device and window, :func:`flow_features` featurizes one window's
flows, and :func:`device_window_features_loop` is the two together.

The contract is strict: with the same log, windows and seed, the
production paths must return bitwise-identical feature matrices under the
same device keys in the same order, shaped logs with the same
:func:`~repro.netpriv.flows.flow_log_digest`, reports whose every field
has the same ``repr``, and generators left in the same state.
``tests/test_kernel_equivalence.py`` pins them; nothing outside the tests
imports this module.
"""

from __future__ import annotations

import numpy as np

from .devices import Device
from .fingerprint import FEATURE_NAMES
from .flows import Direction, Flow, FlowLog
from .shaping import FlowMerging, HeartbeatJitter, ShapingReport


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
