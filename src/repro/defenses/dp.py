"""Differential privacy for energy data releases (Sec. III-A).

The paper notes DP fits the *release* setting: a utility publishing
anonymized datasets, or answering aggregate queries, where individuals must
not be identifiable — while being the wrong tool against a cloud service
that already knows who you are.  Two mechanisms are provided:

* :class:`LaplaceReleaseDefense` — per-home trace release: coarsen to a
  reporting interval and add Laplace noise calibrated to a per-interval
  sensitivity.  High epsilon preserves analytics; low epsilon destroys the
  NIOM/NILM features (and the analytics with them) — the bluntness the
  paper criticizes, made measurable.
* :func:`dp_aggregate_consumption` — the setting where DP shines: a
  district-level average over many homes, where the noise needed to hide
  any one home is tiny relative to the aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..timeseries import PowerTrace
from .base import DefenseOutcome, TraceDefense


def laplace_noise(
    scale: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Zero-mean Laplace noise with the given scale (b parameter)."""
    if scale < 0:
        raise ValueError("scale cannot be negative")
    if scale == 0:
        return np.zeros(size)
    return rng.laplace(0.0, scale, size)


#: Reporting interval of a released trace; a coarser trace keeps its own.
_RELEASE_PERIOD_S = 900.0


@dataclass(frozen=True)
class DPConfig:
    """Release parameters.

    ``epsilon`` is the per-interval privacy budget; ``sensitivity_w`` is
    the maximum influence any protected activity can have on one reported
    15-minute interval (e.g. the largest appliance's power).  Laplace
    scale is sensitivity / epsilon.
    """

    epsilon: float = 1.0
    sensitivity_w: float = 2000.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if not (math.isfinite(self.sensitivity_w) and self.sensitivity_w > 0):
            raise ValueError("sensitivity must be positive")

    @property
    def noise_scale_w(self) -> float:
        return self.sensitivity_w / self.epsilon


class LaplaceReleaseDefense(TraceDefense):
    """Release a DP-noised, coarsened version of a home's trace."""

    name = "dp-laplace"

    def __init__(self, config: DPConfig | None = None) -> None:
        self.config = config or DPConfig()

    def apply(self, true_load, rng=None) -> DefenseOutcome:
        rng = np.random.default_rng(rng)
        cfg = self.config
        coarse = true_load
        if _RELEASE_PERIOD_S > true_load.period_s:
            coarse = true_load.resample(_RELEASE_PERIOD_S, reducer="mean")
        noised = coarse.values + laplace_noise(cfg.noise_scale_w, len(coarse), rng)
        visible = PowerTrace(
            np.maximum(noised, 0.0), coarse.period_s, coarse.start_s, coarse.unit
        )
        reference = (
            true_load.resample(_RELEASE_PERIOD_S, reducer="mean")
            if _RELEASE_PERIOD_S > true_load.period_s
            else true_load
        )
        return DefenseOutcome(
            visible=visible,
            utility_distortion=self._distortion(visible, reference),
        )


def dp_aggregate_consumption(
    homes: list[PowerTrace],
    epsilon: float,
    sensitivity_w: float,
    rng: np.random.Generator | int | None = None,
) -> PowerTrace:
    """DP release of the *average* consumption across many homes.

    Adding Laplace(sensitivity / (epsilon * n)) to the mean gives
    epsilon-DP with respect to any single home changing by up to
    ``sensitivity_w`` — and the error shrinks as 1/n, which is why
    grid-scale analytics survive DP while per-home analytics do not.
    """
    if not homes:
        raise ValueError("need at least one home")
    if epsilon <= 0 or sensitivity_w <= 0:
        raise ValueError("epsilon and sensitivity must be positive")
    rng = np.random.default_rng(rng)
    n = min(len(h) for h in homes)
    stack = np.vstack([h.values[:n] for h in homes])
    mean = stack.mean(axis=0)
    scale = sensitivity_w / (epsilon * len(homes))
    noised = mean + laplace_noise(scale, n, rng)
    first = homes[0]
    return PowerTrace(np.maximum(noised, 0.0), first.period_s, first.start_s, first.unit)
