"""NIOM: Non-Intrusive Occupancy Monitoring from smart-meter data.

Sec. II-A of the paper: when a home is occupied, interactive appliance use
raises both the level and the burstiness of total power; when it is empty,
only background loads (fridge, freezer, HRV) remain.  A NIOM detector turns
a metered aggregate into a binary occupancy series, and the paper reports
70-90% accuracy for such detectors across a range of homes (refs. [1],
[14]).

Three detectors are provided, mirroring the families in the literature:

* :class:`ThresholdNIOM` — per-window mean/std thresholds calibrated from
  the night-time (certainly-occupied-but-idle) distribution;
* :class:`ClusterNIOM` — 2-means over window features, the unsupervised
  approach of Kleiminger et al.;
* :class:`HMMNIOM` — a two-state Gaussian HMM over window features, which
  adds temporal smoothing (occupancy persists).

All consume only the metered trace — never simulator ground truth — and
return a :class:`BinaryTrace` on the window clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ml import GaussianHMM, KMeans, StandardScaler
from ..timeseries import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    BinaryTrace,
    PowerTrace,
    window_features,
)

DEFAULT_WINDOW_S = 900.0  # 15-minute decision windows, as in ref. [1]
NIGHT_START_HOUR = 23.0
NIGHT_END_HOUR = 6.0


def _window_clock(window_s: float, period_s: float, duration_s: float) -> float:
    """Effective decision window: never finer than the trace itself.

    Defenses that coarsen the reporting interval can make the visible trace
    coarser than the detector's preferred window; the attacker then simply
    decides at the trace's own granularity.
    """
    window_s = max(window_s, period_s)
    if int(duration_s // window_s) < 4:
        raise ValueError("trace too short for occupancy detection")
    return window_s


def _apply_night_prior(
    occupied: np.ndarray, window_s: float, start_s: float
) -> np.ndarray:
    """Force late-night windows to occupied.

    The standard NIOM prior (Kleiminger et al.): residents sleep at home,
    so a power signal that looks idle overnight still means "occupied".
    The interesting detection problem — and the one the paper's figures
    evaluate (Fig. 1 spans 8am-11pm) — is the daytime one.
    """
    window_hours = (
        (start_s + np.arange(len(occupied)) * window_s) % SECONDS_PER_DAY
    ) / SECONDS_PER_HOUR
    night = (window_hours >= NIGHT_START_HOUR) | (window_hours < NIGHT_END_HOUR)
    out = occupied.copy()
    out[night] = 1
    return out


def _higher_power_group(features: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Occupied where a window's group (0 or 1) has the higher mean power."""
    mean_power = [
        features[groups == k, 0].mean() if (groups == k).any() else 0.0
        for k in (0, 1)
    ]
    return (groups == int(np.argmax(mean_power))).astype(int)


@dataclass(frozen=True)
class NIOMResult:
    """Detector output plus the per-window feature matrix used."""

    occupancy: BinaryTrace
    features: np.ndarray


class _NIOMDetector:
    """The frame every NIOM detector runs: a subclass sets ``window_s``
    and ``night_prior`` and writes ``label(features)``, its 0/1 call on
    each window."""

    def detect(self, metered: PowerTrace) -> NIOMResult:
        window_s = _window_clock(
            self.window_s, metered.period_s, metered.duration_s
        )
        features = window_features(metered, window_s)
        return self.decide(features, window_s, metered.start_s)

    def decide(
        self, features: np.ndarray, window_s: float, start_s: float
    ) -> NIOMResult:
        """Occupancy of the windows ``features`` describes (the streamed
        threshold NIOM decides through here too)."""
        occupied = self.label(features)
        if self.night_prior:
            occupied = _apply_night_prior(occupied, window_s, start_s)
        return NIOMResult(BinaryTrace(occupied, window_s, start_s), features)


class ThresholdNIOM(_NIOMDetector):
    """Threshold NIOM (Chen et al., BuildSys'13 style).

    Calibrates an "idle home" baseline from the globally quietest windows
    (lowest mean power), then flags a window as occupied if its mean power
    or its variability exceeds the baseline by a multiplicative margin.
    The quietest windows of any home are almost always unoccupied or
    asleep-idle periods, so this is a self-calibrating unsupervised attack.

    Parameters
    ----------
    window_s:
        Decision window span.
    baseline_quantile:
        Fraction of quietest windows treated as the idle baseline.
    mean_margin / std_margin:
        Multiplicative thresholds over the baseline mean/std.
    """

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        baseline_quantile: float = 0.15,
        mean_margin: float = 1.6,
        std_margin: float = 2.5,
        night_prior: bool = False,
    ) -> None:
        if not 0.0 < baseline_quantile < 0.5:
            raise ValueError("baseline_quantile must be in (0, 0.5)")
        if mean_margin <= 1.0 or std_margin <= 1.0:
            raise ValueError("margins must exceed 1.0")
        self.window_s = window_s
        self.baseline_quantile = baseline_quantile
        self.mean_margin = mean_margin
        self.std_margin = std_margin
        self.night_prior = night_prior

    def label(self, features: np.ndarray) -> np.ndarray:
        means = features[:, 0]
        stds = features[:, 1]
        n_base = max(3, int(len(means) * self.baseline_quantile))
        quiet = np.argsort(means)[:n_base]
        base_mean = float(np.median(means[quiet])) + 1.0
        base_std = float(np.median(stds[quiet])) + 1.0
        occupied = (means > self.mean_margin * base_mean) | (
            stds > self.std_margin * base_std
        )
        return occupied.astype(int)


class ClusterNIOM(_NIOMDetector):
    """Unsupervised 2-means NIOM (Kleiminger et al., BuildSys'13 style).

    Clusters window features into two groups and labels the cluster with
    the higher mean power "occupied".
    """

    window_s = DEFAULT_WINDOW_S
    night_prior = True

    def __init__(self, rng: np.random.Generator | int | None = None) -> None:
        self._rng = np.random.default_rng(rng)

    def label(self, features: np.ndarray) -> np.ndarray:
        scaled = StandardScaler().fit_transform(features)
        km = KMeans(2, rng=self._rng).fit(scaled)
        return _higher_power_group(features, km.predict(scaled))


class HMMNIOM(_NIOMDetector):
    """Two-state Gaussian HMM NIOM with temporal smoothing.

    Fits an unsupervised two-state HMM to window features; the state with
    the higher emission mean power is "occupied".  The learned sticky
    transitions encode that occupancy persists across windows, which
    suppresses single-window false flips that the memoryless detectors
    make.
    """

    window_s = DEFAULT_WINDOW_S
    night_prior = True

    def __init__(self, rng: np.random.Generator | int | None = None) -> None:
        self._rng = np.random.default_rng(rng)

    def label(self, features: np.ndarray) -> np.ndarray:
        scaled = StandardScaler().fit_transform(features)
        hmm = GaussianHMM(2, n_iter=30, rng=self._rng)
        hmm.fit(scaled)
        return _higher_power_group(features, hmm.decode(scaled))


def score_occupancy_attack(
    detected: BinaryTrace, truth: BinaryTrace
) -> dict[str, float]:
    """Accuracy/MCC of a detector output against ground truth.

    The truth series is resampled onto the detector's window clock by
    majority vote.
    """
    from ..ml import accuracy, mcc

    aligned = truth
    if abs(truth.period_s - detected.period_s) > 1e-9:
        aligned = truth.resample(detected.period_s)
    n = min(len(aligned), len(detected))
    if n == 0:
        raise ValueError("no overlapping samples to score")
    y_true = aligned.values[:n]
    y_pred = detected.values[:n]
    return {
        "accuracy": accuracy(y_true, y_pred),
        "mcc": mcc(y_true, y_pred),
        "detected_fraction": float(y_pred.mean()),
        "true_fraction": float(y_true.mean()),
    }
