"""Fixed-period time series used throughout the library.

Every simulator, attack, and defense in this package exchanges data as a
:class:`PowerTrace` (real-valued, e.g. watts) or a :class:`BinaryTrace`
(0/1-valued, e.g. occupancy).  A trace is a numpy array of samples taken at a
fixed period, annotated with the absolute start time of its first sample
(seconds since the simulation epoch).  Keeping the data model this small is
deliberate: attacks must not be able to peek at simulator internals, and a
plain (start, period, values) triple is exactly what a real smart meter or
cloud log exposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

SECONDS_PER_MINUTE = 60
SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400


class TraceError(ValueError):
    """Raised for structurally invalid traces or incompatible trace pairs."""


def _as_float_array(values: Sequence[float] | np.ndarray) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise TraceError(f"trace values must be 1-D, got shape {array.shape}")
    return array


@dataclass(frozen=True)
class PowerTrace:
    """A fixed-period, real-valued time series.

    Parameters
    ----------
    values:
        Samples, one per period.  Stored as a float64 numpy array.
    period_s:
        Sampling period in seconds (must be positive).
    start_s:
        Absolute time of the first sample, in seconds since the simulation
        epoch (midnight of day zero).
    unit:
        Informational unit label, ``"W"`` by default.
    """

    values: np.ndarray
    period_s: float
    start_s: float = 0.0
    unit: str = "W"

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_float_array(self.values))
        if self.period_s <= 0:
            raise TraceError(f"period_s must be positive, got {self.period_s}")
        if not np.all(np.isfinite(self.values)):
            raise TraceError("trace contains non-finite values")

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    @property
    def duration_s(self) -> float:
        """Total covered time span in seconds."""
        return len(self.values) * self.period_s

    @property
    def end_s(self) -> float:
        """Absolute time one period past the last sample."""
        return self.start_s + self.duration_s

    def times(self) -> np.ndarray:
        """Absolute sample times (left edge of each sampling interval)."""
        return self.start_s + np.arange(len(self.values)) * self.period_s

    def hours_of_day(self) -> np.ndarray:
        """Hour-of-day (fractional, in [0, 24)) for each sample."""
        return (self.times() % SECONDS_PER_DAY) / SECONDS_PER_HOUR

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_values(self, values: np.ndarray | Sequence[float]) -> "PowerTrace":
        """A copy of this trace with the same clock but new samples."""
        array = _as_float_array(values)
        if len(array) != len(self.values):
            raise TraceError(
                f"replacement length {len(array)} != trace length {len(self.values)}"
            )
        return PowerTrace(array, self.period_s, self.start_s, self.unit)

    def slice_time(self, t0_s: float, t1_s: float) -> "PowerTrace":
        """Sub-trace covering absolute time span ``[t0_s, t1_s)``."""
        if t1_s <= t0_s:
            raise TraceError(f"empty slice [{t0_s}, {t1_s})")
        i0 = max(0, int(math.ceil((t0_s - self.start_s) / self.period_s)))
        i1 = min(len(self.values), int(math.ceil((t1_s - self.start_s) / self.period_s)))
        if i1 <= i0:
            raise TraceError(f"slice [{t0_s}, {t1_s}) does not overlap trace")
        return PowerTrace(
            self.values[i0:i1],
            self.period_s,
            self.start_s + i0 * self.period_s,
            self.unit,
        )

    def day(self, day_index: int) -> "PowerTrace":
        """Sub-trace covering the ``day_index``-th epoch day."""
        t0 = day_index * SECONDS_PER_DAY
        return self.slice_time(t0, t0 + SECONDS_PER_DAY)

    def num_days(self) -> int:
        """Number of whole or partial epoch days this trace touches."""
        first = int(self.start_s // SECONDS_PER_DAY)
        last = int(math.ceil(self.end_s / SECONDS_PER_DAY))
        return last - first

    def resample(self, new_period_s: float, reducer: str = "mean") -> "PowerTrace":
        """Downsample to ``new_period_s`` by aggregating whole blocks.

        ``new_period_s`` must be an integer multiple of the current period;
        a trailing partial block is dropped.  ``reducer`` is one of ``mean``,
        ``sum``, ``max``, ``min``.
        """
        ratio = new_period_s / self.period_s
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise TraceError(
                f"new period {new_period_s} is not an integer multiple of {self.period_s}"
            )
        block = int(round(ratio))
        reducers: dict[str, Callable[[np.ndarray], np.ndarray]] = {
            "mean": lambda m: m.mean(axis=1),
            "sum": lambda m: m.sum(axis=1),
            "max": lambda m: m.max(axis=1),
            "min": lambda m: m.min(axis=1),
        }
        # Validate the reducer before the block == 1 fast path: a typo'd
        # reducer must raise even when no resampling is needed, instead of
        # silently returning the trace unchanged.
        if reducer not in reducers:
            raise TraceError(f"unknown reducer {reducer!r}")
        if block == 1:
            return self
        n_blocks = len(self.values) // block
        if n_blocks == 0:
            raise TraceError("trace shorter than one resampling block")
        blocks = self.values[: n_blocks * block].reshape(n_blocks, block)
        return PowerTrace(reducers[reducer](blocks), new_period_s, self.start_s, self.unit)

    def shift(self, delta_s: float) -> "PowerTrace":
        """The same samples relabelled ``delta_s`` seconds later."""
        return PowerTrace(self.values, self.period_s, self.start_s + delta_s, self.unit)

    # ------------------------------------------------------------------
    # Arithmetic (requires aligned clocks)
    # ------------------------------------------------------------------
    def _check_aligned(self, other: "PowerTrace") -> None:
        if (
            len(self.values) != len(other.values)
            or abs(self.period_s - other.period_s) > 1e-9
            or abs(self.start_s - other.start_s) > 1e-9
        ):
            raise TraceError("traces are not aligned (length/period/start differ)")

    def __add__(self, other: "PowerTrace") -> "PowerTrace":
        self._check_aligned(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "PowerTrace") -> "PowerTrace":
        self._check_aligned(other)
        return self.with_values(self.values - other.values)

    def scaled(self, factor: float) -> "PowerTrace":
        return self.with_values(self.values * factor)

    def clipped(self, low: float = 0.0) -> "PowerTrace":
        """Values raised to at least ``low``."""
        return self.with_values(np.clip(self.values, low, None))

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def energy_kwh(self) -> float:
        """Total energy assuming values are watts."""
        return float(self.values.sum() * self.period_s / SECONDS_PER_HOUR / 1000.0)

    def mean(self) -> float:
        return float(self.values.mean())

    def std(self) -> float:
        return float(self.values.std())

    def max(self) -> float:
        return float(self.values.max())

    def min(self) -> float:
        return float(self.values.min())

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def windows(self, window_s: float) -> Iterator["PowerTrace"]:
        """Yield consecutive non-overlapping sub-traces of span ``window_s``.

        A trailing partial window is dropped.
        """
        block = int(round(window_s / self.period_s))
        if block < 1:
            raise TraceError(f"window {window_s}s shorter than one period")
        for i in range(0, len(self.values) - block + 1, block):
            yield PowerTrace(
                self.values[i : i + block],
                self.period_s,
                self.start_s + i * self.period_s,
                self.unit,
            )


@dataclass(frozen=True)
class BinaryTrace:
    """A fixed-period 0/1 series (occupancy, device on/off, labels)."""

    values: np.ndarray
    period_s: float
    start_s: float = 0.0

    def __post_init__(self) -> None:
        array = np.asarray(self.values)
        if array.ndim != 1:
            raise TraceError(f"binary trace must be 1-D, got shape {array.shape}")
        array = array.astype(int)
        if not np.isin(array, (0, 1)).all():
            raise TraceError("binary trace values must be 0 or 1")
        object.__setattr__(self, "values", array)
        if self.period_s <= 0:
            raise TraceError(f"period_s must be positive, got {self.period_s}")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def duration_s(self) -> float:
        return len(self.values) * self.period_s

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def times(self) -> np.ndarray:
        return self.start_s + np.arange(len(self.values)) * self.period_s

    def fraction_true(self) -> float:
        """Fraction of samples equal to one."""
        return float(self.values.mean()) if len(self.values) else 0.0

    def resample(self, new_period_s: float) -> "BinaryTrace":
        """Downsample by block-majority (block mean >= 0.5)."""
        as_power = PowerTrace(self.values.astype(float), self.period_s, self.start_s)
        means = as_power.resample(new_period_s, reducer="mean")
        return BinaryTrace((means.values >= 0.5).astype(int), new_period_s, self.start_s)

    def slice_time(self, t0_s: float, t1_s: float) -> "BinaryTrace":
        as_power = PowerTrace(self.values.astype(float), self.period_s, self.start_s)
        part = as_power.slice_time(t0_s, t1_s)
        return BinaryTrace(part.values.astype(int), part.period_s, part.start_s)

    def align_to(self, trace: PowerTrace) -> "BinaryTrace":
        """Resample/trim this label series onto ``trace``'s clock."""
        if abs(self.start_s - trace.start_s) > 1e-9:
            raise TraceError("label series and trace start at different times")
        out = self
        if abs(self.period_s - trace.period_s) > 1e-9:
            out = self.resample(trace.period_s)
        if len(out) < len(trace):
            raise TraceError("label series shorter than trace")
        return BinaryTrace(out.values[: len(trace)], trace.period_s, trace.start_s)

    def intervals(self) -> list[tuple[float, float]]:
        """Absolute ``(start_s, end_s)`` spans where the series is one."""
        spans: list[tuple[float, float]] = []
        run_start: float | None = None
        times = self.times()
        for t, v in zip(times, self.values):
            if v and run_start is None:
                run_start = t
            elif not v and run_start is not None:
                spans.append((run_start, t))
                run_start = None
        if run_start is not None:
            spans.append((run_start, self.end_s))
        return spans


def zeros_like(trace: PowerTrace) -> PowerTrace:
    """An all-zero trace on the same clock as ``trace``."""
    return trace.with_values(np.zeros(len(trace)))


def constant(value: float, n_samples: int, period_s: float) -> PowerTrace:
    """A constant-valued trace in watts, starting at time 0."""
    return PowerTrace(np.full(n_samples, float(value)), period_s, 0.0, "W")
