"""The smart gateway: classify, baseline, detect, and isolate.

Sec. IV's proposed defense: gateway routers that (i) classify devices by
their traffic patterns, (ii) monitor for departures from each device's
typical behaviour ("frequency of transmission, the amount of data they
transmit, and where those transmissions are directed"), and (iii) follow
the principle of least privilege — IoT devices get no lateral LAN access
and only their known cloud endpoints, and suspicious devices are
quarantined automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fingerprint import device_window_features
from .flows import DIRECTION_CODES, Direction, FlowLog

#: Baseline and enforcement window.
_WINDOW_S = 1800.0
#: A window whose threat score exceeds this many (floored) std is anomalous.
_ANOMALY_Z_THRESHOLD = 6.0
#: Consecutive anomalous windows that quarantine a device.
_ANOMALY_WINDOWS_TO_QUARANTINE = 2


def _in_range(log: FlowLog, duration_s: float, window_s: float) -> np.ndarray:
    """Positions of the flows inside the log's whole windows, earliest
    window first and in log order within a window: the flows whose
    features :func:`~repro.netpriv.fingerprint.device_window_features`
    takes."""
    window = log.time_s // window_s
    kept = np.flatnonzero((window >= 0) & (window < int(duration_s // window_s)))
    return kept[np.argsort(window[kept], kind="stable")]


# Minimum std per feature (aligned with fingerprint.FEATURE_NAMES): a
# device whose trusted period contained few events has near-zero training
# variance, and a raw z-score would flag its first legitimate firmware
# check.  The floors are set well below what the Sec. IV attack behaviours
# produce (a DDoS raises flow rate and upstream bytes by orders of
# magnitude), so sensitivity to real compromises is unaffected.
_FEATURE_STD_FLOORS = np.asarray(
    [
        4.0,  # flows_per_hour
        2_000.0,  # mean_bytes_up
        2_000.0,  # mean_bytes_down
        2.0,  # up_down_ratio
        20_000.0,  # bytes_up_p95
        30.0,  # interarrival_median_s
        90.0,  # interarrival_iqr_s
        1.0,  # distinct_endpoints
        0.15,  # inbound_fraction
        20.0,  # mean_duration_s
        400.0,  # mean_packet_size
        0.2,  # large_flow_fraction
    ]
)


# Feature indices (into fingerprint.FEATURE_NAMES) that indicate a *threat*
# when anomalously high: the Sec. IV compromises all add upstream volume,
# flow rate, or endpoint spread.  Downstream-heavy anomalies (a TV's first
# evening streaming session after a quiet training period) are legitimate
# behaviour a quarantine policy must tolerate.
_THREAT_FEATURES = (0, 1, 3, 4, 7)  # flows/h, bytes_up, ratio, up_p95, endpoints


@dataclass
class DeviceBaseline:
    """Per-device behavioural baseline learned during a trusted period."""

    mean: np.ndarray
    std: np.ndarray
    endpoints: frozenset[str]

    def z_scores(self, features: np.ndarray) -> np.ndarray:
        floor = np.maximum(0.25 * np.abs(self.mean), _FEATURE_STD_FLOORS)
        return np.abs(features - self.mean) / np.maximum(self.std, floor)

    def threat_score(self, features: np.ndarray) -> float:
        """Max z-score over the threat-indicating features only."""
        return float(self.z_scores(features)[list(_THREAT_FEATURES)].max())


@dataclass
class GatewayReport:
    """What the gateway did over an evaluation period."""

    blocked_lateral: int = 0
    blocked_unknown_endpoint: int = 0
    quarantined_devices: dict[str, float] = field(default_factory=dict)
    anomaly_scores: dict[str, list[float]] = field(default_factory=dict)
    allowed: int = 0

    def detected(self, device_id: str) -> bool:
        return device_id in self.quarantined_devices

    def detection_delay_s(self, device_id: str, compromise_start_s: float) -> float:
        if device_id not in self.quarantined_devices:
            raise KeyError(f"{device_id} was never quarantined")
        return self.quarantined_devices[device_id] - compromise_start_s


class SmartGateway:
    """Baseline-learning, least-privilege enforcing gateway.

    Lateral flows are always blocked, and a known device may reach only
    the endpoints its baseline saw.
    """

    def __init__(self) -> None:
        self.baselines: dict[str, DeviceBaseline] = {}

    # ------------------------------------------------------------------
    def learn_baselines(
        self,
        log: FlowLog,
        duration_s: float,
        device_types: dict[str, str] | None = None,
    ) -> None:
        """Learn per-device feature baselines from a trusted training log.

        When ``device_types`` maps device ids to a type label (obtained
        e.g. from the fingerprinting classifier, or vendor MAC prefixes),
        statistics are *pooled across same-type devices*: a TV that
        happened not to stream during its own training window still
        inherits the streaming variance its sibling exhibited, which is
        what keeps rare-but-legitimate behaviours out of quarantine.
        """
        if int(duration_s // _WINDOW_S) < 4:
            raise ValueError("need at least 4 windows of training traffic")
        matrices = device_window_features(log, duration_s, _WINDOW_S)
        kept = _in_range(log, duration_s, _WINDOW_S)
        n_endpoints = max(len(log.endpoints), 1)
        pairs = np.unique(log.device[kept] * n_endpoints + log.endpoint[kept])
        endpoints: dict[str, set[str]] = {}
        for device, endpoint in zip(*np.divmod(pairs, n_endpoints)):
            endpoints.setdefault(log.device_ids[device], set()).add(
                log.endpoints[endpoint]
            )
        for device_id, matrix in matrices.items():
            pool = matrix
            pooled_endpoints = frozenset(endpoints[device_id])
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
            self.baselines[device_id] = DeviceBaseline(
                mean=pool.mean(axis=0),
                std=np.maximum(pool.std(axis=0), 1e-6),
                endpoints=pooled_endpoints,
            )

    # ------------------------------------------------------------------
    def enforce(self, log: FlowLog, duration_s: float) -> tuple[FlowLog, GatewayReport]:
        """Filter a live log through least privilege + anomaly quarantine.

        Returns (the flows that actually left the gateway, report).
        Quarantine is sticky: once a device trips the anomaly detector for
        enough consecutive windows, all its subsequent traffic is dropped.
        """
        if not self.baselines:
            raise RuntimeError("gateway has no baselines; call learn_baselines first")
        n_windows = int(np.ceil(duration_s / _WINDOW_S))

        quarantined_at: dict[str, float] = {}
        anomaly_streak: dict[str, int] = {}
        report = GatewayReport()

        # evaluate anomaly state window by window, then filter flows
        horizon_s = n_windows * _WINDOW_S
        features = device_window_features(log, horizon_s, _WINDOW_S)
        kept = _in_range(log, horizon_s, _WINDOW_S)
        devices, first = np.unique(log.device[kept], return_index=True)
        first_seen = {
            log.device_ids[device]: float(log.time_s[kept[i]])
            for device, i in zip(devices.tolist(), first.tolist())
        }
        for device_id, matrix in features.items():
            baseline = self.baselines.get(device_id)
            if baseline is None:
                # unknown device: quarantine on first sight (least privilege)
                quarantined_at[device_id] = first_seen[device_id]
                continue
            for w, row in enumerate(matrix):
                score = baseline.threat_score(row)
                report.anomaly_scores.setdefault(device_id, []).append(score)
                if score > _ANOMALY_Z_THRESHOLD:
                    anomaly_streak[device_id] = anomaly_streak.get(device_id, 0) + 1
                    if anomaly_streak[device_id] >= _ANOMALY_WINDOWS_TO_QUARANTINE:
                        quarantined_at[device_id] = (w + 1) * _WINDOW_S
                        break
                else:
                    anomaly_streak[device_id] = 0

        # per device code: when its quarantine starts, and which endpoints
        # it may reach (a device with no baseline may reach any)
        since = np.array([quarantined_at.get(d, np.inf) for d in log.device_ids])
        allowed = np.ones((len(log.device_ids), len(log.endpoints)), dtype=bool)
        for code, device_id in enumerate(log.device_ids):
            baseline = self.baselines.get(device_id)
            if baseline is not None:
                allowed[code] = [e in baseline.endpoints for e in log.endpoints]
        live = log.time_s < since[log.device]  # the rest is dropped unseen
        lateral = live & (log.direction == DIRECTION_CODES[Direction.LATERAL])
        unknown = live & ~lateral & ~allowed[log.device, log.endpoint]
        passed = live & ~lateral & ~unknown
        report.blocked_lateral = int(lateral.sum())
        report.blocked_unknown_endpoint = int(unknown.sum())
        report.allowed = int(passed.sum())
        report.quarantined_devices = quarantined_at
        return log.take(np.flatnonzero(passed)), report
