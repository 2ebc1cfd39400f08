"""Device fingerprinting from flow features.

Sec. IV closes by calling for "smart gateway routers ... that classify
devices based on their typical traffic patterns".  The same capability in
an adversary's hands identifies what devices (and hence what activities) a
home contains.  This module implements the shared core: a per-device,
per-window feature extractor over flow logs, and a classifier harness on
top of the from-scratch ML substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ml import RandomForestClassifier, StandardScaler, accuracy, macro_f1
from .devices import Device
from .flows import Direction, FlowLog

FEATURE_NAMES = (
    "flows_per_hour",
    "mean_bytes_up",
    "mean_bytes_down",
    "up_down_ratio",
    "bytes_up_p95",
    "interarrival_median_s",
    "interarrival_iqr_s",
    "distinct_endpoints",
    "inbound_fraction",
    "mean_duration_s",
    "mean_packet_size",
    "large_flow_fraction",
)


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


def device_window_features(
    log: FlowLog,
    duration_s: float,
    window_s: float = 3600.0,
    devices: "list[Device] | list[str] | None" = None,
) -> dict[str, np.ndarray]:
    """Per-device feature matrices: device_id -> (n_windows, n_features).

    Pass ``devices`` to guarantee a row block (of all-zero feature vectors)
    for devices that never sent an in-range flow.
    """
    grouped = windowed_device_flows(log, duration_s, window_s, devices)
    return {
        device_id: np.asarray([flow_features(flows, window_s) for flows in windows])
        for device_id, windows in grouped.items()
    }


@dataclass(frozen=True)
class FingerprintReport:
    """Evaluation of the fingerprinting attack."""

    accuracy: float
    macro_f1: float
    n_train: int
    n_test: int
    classes: tuple[str, ...]


class DeviceFingerprinter:
    """Classify device *type* from traffic windows.

    Train on some devices' windows, test on *other physical devices* of the
    same types — the realistic setting where the attacker profiled device
    models in a lab and then observes a victim's LAN.
    """

    def __init__(self, rng: np.random.Generator | int | None = None) -> None:
        self._rng = np.random.default_rng(rng)
        self._scaler = StandardScaler()
        self._model: RandomForestClassifier | None = None
        self._n_train = 0

    def fit(self, features: dict[str, np.ndarray], devices: list[Device]) -> "DeviceFingerprinter":
        X, y = self._stack(features, devices)
        self._model = RandomForestClassifier(n_trees=20, max_depth=10, rng=self._rng)
        self._model.fit(self._scaler.fit_transform(X), y)
        self._n_train = len(X)
        return self

    def predict(self, windows: np.ndarray) -> np.ndarray:
        if self._model is None:
            raise RuntimeError("fingerprinter is not fitted")
        return self._model.predict(self._scaler.transform(windows))

    def predict_device(self, windows: np.ndarray) -> str:
        """Majority vote over a device's windows."""
        votes = self.predict(windows)
        values, counts = np.unique(votes, return_counts=True)
        return str(values[counts.argmax()])

    @staticmethod
    def _stack(
        features: dict[str, np.ndarray], devices: list[Device]
    ) -> tuple[np.ndarray, np.ndarray]:
        type_of = {d.device_id: d.device_type.value for d in devices}
        X_rows, y_rows = [], []
        for device_id, matrix in features.items():
            if device_id not in type_of:
                continue
            for row in matrix:
                X_rows.append(row)
                y_rows.append(type_of[device_id])
        if not X_rows:
            raise ValueError("no labeled windows")
        return np.asarray(X_rows), np.asarray(y_rows)

    def score(
        self, test_features: dict[str, np.ndarray], devices: list[Device]
    ) -> FingerprintReport:
        """Score the fitted model on held-out windows.

        Prediction draws nothing from the generator, so one fit can score
        any number of test sets exactly as a fresh fit per set would.
        """
        X_test, y_test = self._stack(test_features, devices)
        y_pred = self.predict(X_test)
        return FingerprintReport(
            accuracy=accuracy(y_test, y_pred),
            macro_f1=macro_f1(y_test, y_pred),
            n_train=self._n_train,
            n_test=len(X_test),
            classes=tuple(sorted(set(y_test.tolist()))),
        )

    def evaluate(
        self,
        train_features: dict[str, np.ndarray],
        test_features: dict[str, np.ndarray],
        devices: list[Device],
    ) -> FingerprintReport:
        """Fit on ``train_features``, then :meth:`score` ``test_features``."""
        return self.fit(train_features, devices).score(test_features, devices)
