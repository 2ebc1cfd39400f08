"""Non-physical obfuscation baselines: smoothing and coarsening.

Sec. III-B mentions smoothing alongside noise injection as studied
obfuscations.  These transforms need no hardware but are *not free*: they
directly distort what the utility sees (bad for grid analytics) and, unlike
CHPr/batteries, a real meter reports actual consumption, so these model a
privacy-aware meter/firmware rather than a physical defense.  They serve as
ablation baselines for the privacy/utility frontier.
"""

from __future__ import annotations

import math

import numpy as np

from ..timeseries import PowerTrace
from .base import DefenseOutcome, TraceDefense


class SmoothingDefense(TraceDefense):
    """Moving-average smoothing: removes bursts, keeps energy."""

    name = "smoothing"

    def __init__(self, window_s: float = 3600.0) -> None:
        if not (math.isfinite(window_s) and window_s > 0):
            raise ValueError("window must be positive")
        self.window_s = window_s

    def apply(self, true_load, rng=None) -> DefenseOutcome:
        window = max(1, int(self.window_s / true_load.period_s))
        kernel = np.ones(window) / window
        smoothed = np.convolve(true_load.values, kernel, mode="same")
        visible = true_load.with_values(smoothed)
        return DefenseOutcome(
            visible=visible,
            utility_distortion=self._distortion(visible, true_load),
        )


class CoarseningDefense(TraceDefense):
    """Report only coarse intervals (what an opt-out meter would send)."""

    name = "coarsening"

    def __init__(self, report_period_s: float = 3600.0) -> None:
        if not (math.isfinite(report_period_s) and report_period_s > 0):
            raise ValueError("period must be positive")
        self.report_period_s = report_period_s

    def apply(self, true_load, rng=None) -> DefenseOutcome:
        visible = true_load.resample(self.report_period_s, reducer="mean")
        reference = visible  # energy-preserving; distortion is within-interval
        upsampled = np.repeat(
            visible.values, int(self.report_period_s / true_load.period_s)
        )
        n = min(len(upsampled), len(true_load))
        distortion = float(np.abs(upsampled[:n] - true_load.values[:n]).mean())
        return DefenseOutcome(visible=visible, utility_distortion=distortion)


class NoiseInjectionDefense(TraceDefense):
    """Additive random noise (a virtual noise load), clipped at zero.

    Models a noise-injecting appliance/firmware; ``extra_energy_kwh``
    accounts for the mean added consumption when ``physical=True`` (a real
    load can only add power, so the noise is folded to be non-negative).
    """

    name = "noise"

    def __init__(self, std_w: float = 300.0, physical: bool = True) -> None:
        if not (math.isfinite(std_w) and std_w >= 0):
            raise ValueError("std cannot be negative")
        self.std_w = std_w
        self.physical = physical

    def apply(self, true_load, rng=None) -> DefenseOutcome:
        rng = np.random.default_rng(rng)
        noise = rng.normal(0.0, self.std_w, len(true_load))
        if self.physical:
            noise = np.abs(noise)  # a real load can only consume
        visible_values = np.maximum(true_load.values + noise, 0.0)
        visible = true_load.with_values(visible_values)
        extra_kwh = (
            float(noise.mean() * true_load.duration_s / 3.6e6) if self.physical else 0.0
        )
        return DefenseOutcome(
            visible=visible,
            extra_energy_kwh=max(extra_kwh, 0.0),
            utility_distortion=self._distortion(visible, true_load),
        )
