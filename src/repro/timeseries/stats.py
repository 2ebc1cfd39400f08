"""Per-window statistics and daily profiles of power traces.

NIOM's core observation (Sec. II-A of the paper) is that occupancy manifests
as *elevated* and *bursty* power: interactive appliances raise both the local
mean and the local variance.  The window features here are what every NIOM
variant consumes.
"""

from __future__ import annotations

import numpy as np

from .series import PowerTrace, TraceError


def window_features(trace: PowerTrace, window_s: float) -> np.ndarray:
    """Per-window NIOM feature matrix: (mean, std, range, edge count).

    The trace is cut into consecutive non-overlapping windows of span
    ``window_s``; each row of the returned ``(n_windows, 4)`` matrix describes
    one window.  These are the features used by the clustering/HMM NIOM
    detectors and by prior work (Chen et al., BuildSys'13; Kleiminger et al.,
    BuildSys'13).
    """
    block = int(round(window_s / trace.period_s))
    if block < 1:
        raise TraceError(f"window {window_s}s shorter than one period")
    n_windows = len(trace.values) // block
    if n_windows == 0:
        raise ValueError("trace shorter than one feature window")
    # Non-overlapping equal windows are just rows of a reshape.
    blocks = trace.values[: n_windows * block].reshape(n_windows, block)
    return block_features(blocks)


def block_features(blocks: np.ndarray) -> np.ndarray:
    """The NIOM feature rows of a ``(n_windows, block)`` array of windows.

    :func:`window_features` and the streamed NIOM both reduce through
    here.  Each reduction runs along a row, over the float64 values the
    per-window loop sees, so rows are bitwise identical to
    :func:`repro.timeseries._reference.window_features_loop` however the
    windows are grouped into calls.
    """
    means = blocks.mean(axis=1)
    stds = blocks.std(axis=1)
    ranges = blocks.max(axis=1) - blocks.min(axis=1)
    diffs = np.abs(np.diff(blocks, axis=1))
    thresholds = 2.0 * np.maximum(stds, 1.0)
    edge_counts = (diffs > thresholds[:, None]).sum(axis=1).astype(float)
    return np.stack([means, stds, ranges, edge_counts], axis=1)


def daily_profile(trace: PowerTrace, bins_per_day: int = 24) -> np.ndarray:
    """Average power by time-of-day bin across all days in the trace."""
    if bins_per_day < 1:
        raise ValueError("bins_per_day must be >= 1")
    hours = trace.hours_of_day()
    bin_idx = np.minimum((hours / 24.0 * bins_per_day).astype(int), bins_per_day - 1)
    sums = np.bincount(bin_idx, weights=trace.values, minlength=bins_per_day)
    counts = np.bincount(bin_idx, minlength=bins_per_day)
    profile = np.zeros(bins_per_day)
    nonzero = counts > 0
    profile[nonzero] = sums[nonzero] / counts[nonzero]
    return profile
