"""Chunk sources feeding a :class:`~repro.stream.session.StreamSession`.

The streaming engine's data model is deliberately thin: a source owns a
:class:`StreamClock` (the fixed sampling grid a real meter feed arrives
on) and yields plain float64 sample chunks.  Keeping chunks as bare numpy
arrays — not :class:`~repro.timeseries.PowerTrace` objects — matters for
throughput: at chunk size 1 the per-push cost must be dominated by attack
state updates, not object construction.

One source type covers the evaluation workloads:
:class:`TraceReplaySource` replays any finished trace (simulator output
or a ``load_trace_csv`` import) as a live feed, the controlled setting
every streamed-vs-batch equivalence test uses.  A simulated home's feed
(:func:`simulated_meter_source`) also carries the occupancy ground truth
its NIOM output is scored against.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from ..timeseries import BinaryTrace, PowerTrace


@dataclass(frozen=True)
class StreamClock:
    """The sampling grid a stream's chunks arrive on.

    Matches the ``(period, start, unit)`` annotation of a
    :class:`~repro.timeseries.PowerTrace`: sample ``i`` of the stream
    covers absolute time ``start_s + i * period_s``.
    """

    period_s: float
    start_s: float = 0.0
    unit: str = "W"

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError(f"period_s must be positive, got {self.period_s}")

    @classmethod
    def of(cls, trace: PowerTrace) -> "StreamClock":
        return cls(trace.period_s, trace.start_s, trace.unit)

    def as_dict(self) -> dict:
        return asdict(self)


def iter_chunks(values: np.ndarray, chunk_samples: int) -> Iterator[np.ndarray]:
    """Split ``values`` into consecutive chunks of ``chunk_samples``.

    The final chunk may be shorter; every sample is yielded exactly once
    (a replayed stream must cover the trace, unlike the windowed views
    used by batch feature extraction which drop partial tails).
    """
    return (chunk for _, chunk in tagged_chunks(values, chunk_samples))


def tagged_chunks(
    values: np.ndarray, chunk_samples: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Like :func:`iter_chunks`, but each chunk carries the absolute
    sample index of its first sample — the coordinate a
    :class:`~repro.stream.guard.FeedGuard` judges ordering by, and the
    handle the fault injector reorders and delays."""
    if chunk_samples < 1:
        raise ValueError("chunk_samples must be >= 1")
    for i in range(0, len(values), chunk_samples):
        yield i, values[i : i + chunk_samples]


@dataclass(frozen=True)
class TraceReplaySource:
    """Replay a finished trace as a sequence of sample chunks.

    ``occupancy``, when given, is the trace's ground truth: the stream's
    NIOM output is scored against it after the fact
    (:func:`~repro.stream.session.run_stream`); the attacks never see it.
    """

    trace: PowerTrace
    occupancy: BinaryTrace | None = None

    @property
    def clock(self) -> StreamClock:
        return StreamClock.of(self.trace)

    def chunks(self, chunk_samples: int) -> Iterator[np.ndarray]:
        return iter_chunks(self.trace.values, chunk_samples)

    def __len__(self) -> int:
        return len(self.trace)


def simulated_meter_source(preset: str, days: int, seed: int) -> TraceReplaySource:
    """Simulate ``preset`` for ``days`` and replay its metered trace."""
    from ..home import make_preset, simulate_home

    sim = simulate_home(make_preset(preset, seed), days, rng=seed)
    return TraceReplaySource(sim.metered, sim.occupancy)
