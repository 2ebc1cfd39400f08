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
from .flows import DIRECTION_CODES, Direction, FlowLog

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


def device_window_features(
    log: FlowLog,
    duration_s: float,
    window_s: float = 3600.0,
    devices: "list[Device] | list[str] | None" = None,
) -> dict[str, np.ndarray]:
    """Per-device feature matrices: device_id -> (n_windows, n_features).

    Row ``w`` of a device's matrix describes its flows with
    ``w * window_s <= time_s < (w + 1) * window_s``; flows outside the
    ``duration_s // window_s`` whole windows are dropped.  A window with
    no flows is all zeros (silence is a pattern too).  Pass ``devices``
    (a list of :class:`Device` or of device-id strings) to guarantee a
    row block for devices that never sent an in-range flow; they come
    first, in that order, then every other device in the order its
    first in-range flow appears in the log.

    The whole log is featurized at once, from its columns: each flow
    gets a (device, window) segment.  Counts, byte means and sums and
    the fractions are segment sums, exact because byte and packet counts
    are integers.  The p95 and the inter-arrival median and IQR take one
    sort per column and numpy's linear-method arithmetic.  The two means
    whose float summation order matters are numpy's ``mean`` over each
    segment's flows in log order.  ``repro.netpriv._reference`` keeps
    the per-window loop this matches bit for bit.
    """
    if window_s <= 0 or duration_s < window_s:
        raise ValueError("need at least one whole window")
    n_windows = int(duration_s // window_s)
    index: dict[str, int] = {}
    for device in devices or ():
        device_id = device if isinstance(device, str) else device.device_id
        index.setdefault(device_id, len(index))

    times = log.time_s
    if not np.isfinite(times).all():
        raise ValueError("flow times must be finite")
    window = times // window_s
    kept = np.flatnonzero((window >= 0) & (window < n_windows))
    log, times, window = log.take(kept), times[kept], window[kept]
    # the devices not listed, in the order their first kept flow appears
    codes, first = np.unique(log.device, return_index=True)
    for code in codes[np.argsort(first)].tolist():
        index.setdefault(log.device_ids[code], len(index))
    remap = np.array([index.get(d, 0) for d in log.device_ids], dtype=np.intp)
    segment = remap[log.device] * n_windows + window.astype(np.intp)
    del window, remap
    n_segments = len(index) * n_windows
    counts = np.bincount(segment, minlength=n_segments)
    ends = np.cumsum(counts)
    starts = ends - counts
    rows = np.flatnonzero(counts)
    n = counts[rows]
    out = np.zeros((n_segments, len(FEATURE_NAMES)))

    def segment_sums(values: np.ndarray) -> np.ndarray:
        return np.bincount(segment, weights=values, minlength=n_segments)[rows]

    up = log.bytes_up.astype(float)
    down = log.bytes_down.astype(float)
    up_sum, down_sum = segment_sums(up), segment_sums(down)
    out[rows, 0] = n / (window_s / 3600.0)
    out[rows, 1] = up_sum / n
    out[rows, 2] = down_sum / n
    out[rows, 3] = up_sum / np.maximum(down_sum, 1.0)
    up_sorted = up[np.lexsort((up, segment))]
    out[rows, 4] = _segment_percentile(up_sorted, starts[rows], n, 95)
    total = up + down
    del up, down, up_sorted
    out[rows, 11] = segment_sums(total > 100_000) / n

    # inter-arrival gaps within each window; a lone flow's gap is the window
    by_time = np.lexsort((times, segment))
    sorted_times, sorted_segment = times[by_time], segment[by_time]
    same = sorted_segment[1:] == sorted_segment[:-1]
    lone = rows[n == 1]
    gaps = np.concatenate(
        [np.diff(sorted_times)[same], np.full(len(lone), float(window_s))]
    )
    gap_segment = np.concatenate([sorted_segment[1:][same], lone])
    del times, by_time, sorted_times, sorted_segment, same
    gaps = gaps[np.lexsort((gaps, gap_segment))]
    m = np.maximum(n - 1, 1)
    gap_starts = np.cumsum(m) - m
    lower, upper = gap_starts + (m - 1) // 2, gap_starts + m // 2
    # np.median: the middle value, or the mean of the two middle values
    median = np.where(lower == upper, gaps[lower], (gaps[lower] + gaps[upper]) / 2)
    out[rows, 5] = median
    out[rows, 6] = _segment_percentile(gaps, gap_starts, m, 75) - (
        _segment_percentile(gaps, gap_starts, m, 25)
    )
    del gaps, gap_segment

    n_endpoints = max(len(log.endpoints), 1)
    distinct = np.unique(segment * n_endpoints + log.endpoint) // n_endpoints
    out[:, 7] = np.bincount(distinct, minlength=n_segments)
    del distinct
    inbound = log.direction == DIRECTION_CODES[Direction.INBOUND]
    out[rows, 8] = segment_sums(inbound) / n
    del inbound

    # the two float means whose summation order matters: numpy's own 1-D
    # mean over each window's flows, in log order
    order = np.argsort(segment, kind="stable")
    durations = log.duration_s[order]
    per_packet = (total / np.maximum(log.packets, 1))[order]
    del order, total
    spans = zip(rows.tolist(), starts[rows].tolist(), ends[rows].tolist())
    for row, start, end in spans:
        out[row, 9] = durations[start:end].mean()
        out[row, 10] = per_packet[start:end].mean()
    by_device = out.reshape(len(index), n_windows, len(FEATURE_NAMES))
    return {device_id: by_device[code] for device_id, code in index.items()}


def _segment_percentile(
    values: np.ndarray, starts: np.ndarray, n: np.ndarray, q: float
) -> np.ndarray:
    """``np.percentile(values[s:s + k], q)`` of each sorted segment, with
    numpy's own linear-method arithmetic: the virtual index ``(k-1)*q``,
    the last value at or past the end (gamma then measured from index
    -1), and both branches of its ``_lerp``."""
    virtual = (n - 1) * np.true_divide(q, 100)
    previous = np.floor(virtual)
    above = virtual >= n - 1
    lo = np.where(above, n - 1, previous).astype(np.intp)
    hi = np.where(above, n - 1, previous + 1).astype(np.intp)
    gamma = virtual - np.where(above, -1.0, previous)
    a, b = values[starts + lo], values[starts + hi]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


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
