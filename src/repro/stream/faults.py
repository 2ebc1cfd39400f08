"""Deterministic feed-fault injection for the streaming engine.

The :class:`~repro.stream.guard.FeedGuard`'s recovery paths — value
quarantine, gap handling, duplicate/late rejection, the max-gap
watchdog — only count as *working* if tests can produce the dirty feeds
they guard against.  This module degrades a tagged chunk stream
(``(at, chunk)`` pairs from :func:`~repro.stream.source.tagged_chunks`)
with four transport-fault kinds:

``dropout``
    the chunk never arrives (the guard sees a clock gap);
``corrupt``
    some samples are replaced with NaN / ``inf`` / negative power
    (exercises the value-quarantine policies);
``duplicate``
    the chunk is delivered twice with the same ``at`` (exercises
    duplicate rejection);
``stall``
    the chunk is held back and delivered ``stall_chunks`` chunks late
    (the guard first sees a gap at its position, then rejects the
    stale delivery).

Injection is **deterministic and seed-driven**, mirroring
:mod:`repro.fleet.faults`: whether a fault fires at ``chunk_index`` is a
pure function of ``sha256(seed, chunk_index, kind)``, so the same plan
degrades the same chunks on every run, which is what lets the chaos
tests pin byte-identical degraded outputs across two runs.  Corrupt
sample positions are drawn from the same digest, so even *which* samples
go bad is reproducible.

Activation can cross a process boundary through ``REPRO_STREAM_FAULTS``
(a JSON-encoded plan), the streaming twin of ``REPRO_FLEET_FAULTS``.
Each streamed fleet home's job and the single-feed ``repro stream`` CLI
read it and hand the plan to :func:`~repro.stream.session.run_stream`,
the one entry point that applies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..obs import SeededPlan

#: Environment hook; JSON of :meth:`StreamFaultPlan.to_json`.
STREAM_FAULTS_ENV = "REPRO_STREAM_FAULTS"

STREAM_FAULT_KINDS = ("dropout", "corrupt", "duplicate", "stall")

CORRUPT_KINDS = ("nan", "inf", "negative")


@dataclass(frozen=True)
class StreamFaultPlan(SeededPlan):
    """Which chunks to degrade, and how.

    Each fault kind has an independent rate in ``[0, 1]``; whether kind
    ``k`` fires at chunk ``i`` is drawn from ``sha256(seed:i:k)``.  A
    chunk can suffer several faults at once (a corrupt duplicate is a
    realistic transport pathology).  ``corrupt_fraction`` is the share
    of samples poisoned within a corrupted chunk (at least one), and
    ``corrupt_kind`` what they become.  ``stall_chunks`` is how many
    subsequent chunks overtake a stalled one.
    """

    ENV = STREAM_FAULTS_ENV

    seed: int = 0
    dropout_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    stall_rate: float = 0.0
    corrupt_fraction: float = 0.25
    corrupt_kind: str = "nan"
    stall_chunks: int = 2

    def __post_init__(self) -> None:
        for name in (
            "dropout_rate",
            "corrupt_rate",
            "duplicate_rate",
            "stall_rate",
            "corrupt_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if self.corrupt_kind not in CORRUPT_KINDS:
            raise ValueError(
                f"corrupt_kind must be one of {CORRUPT_KINDS}, "
                f"got {self.corrupt_kind!r}"
            )
        if self.stall_chunks < 1:
            raise ValueError("stall_chunks must be >= 1")

    def targets(self, chunk_index: int, kind: str) -> bool:
        """True when fault ``kind`` fires at ``chunk_index``."""
        if kind not in STREAM_FAULT_KINDS:
            raise ValueError(f"unknown stream fault kind {kind!r}")
        rate = getattr(self, f"{kind}_rate")
        if rate <= 0.0:
            return False
        return self.draw(chunk_index, kind) < rate

    def corrupt(self, chunk_index: int, values: np.ndarray) -> np.ndarray:
        """A poisoned copy of ``values`` (which samples, from the digest)."""
        n = len(values)
        if n == 0:
            return values
        n_bad = max(1, int(round(n * self.corrupt_fraction)))
        rng = np.random.default_rng(self.bits(chunk_index, "positions"))
        positions = rng.choice(n, size=min(n_bad, n), replace=False)
        out = values.copy()
        if self.corrupt_kind == "nan":
            out[positions] = np.nan
        elif self.corrupt_kind == "inf":
            out[positions] = np.inf
        else:
            out[positions] = -np.abs(out[positions]) - 1.0
        return out


def inject_stream_faults(
    feed: Iterable[tuple[int, np.ndarray]], plan: StreamFaultPlan
) -> Iterator[tuple[int, np.ndarray]]:
    """Degrade a tagged chunk feed according to ``plan``.

    Yields ``(at, chunk)`` pairs in delivery order — which, with stalls,
    is no longer clock order.  Stalled chunks still pending at the end
    of the feed are delivered last (a real buffer flushing on close);
    their lateness is the guard's problem, by design.
    """
    stalled: list[tuple[int, int, np.ndarray]] = []  # (due, at, chunk)
    delivered = 0
    for index, (at, chunk) in enumerate(feed):
        if plan.targets(index, "dropout"):
            continue
        if plan.targets(index, "corrupt"):
            chunk = plan.corrupt(index, chunk)
        if plan.targets(index, "stall"):
            stalled.append((delivered + plan.stall_chunks, at, chunk))
            continue
        delivered += 1
        yield at, chunk
        if plan.targets(index, "duplicate"):
            delivered += 1
            yield at, chunk
        due_now = [s for s in stalled if s[0] <= delivered]
        if due_now:
            stalled = [s for s in stalled if s[0] > delivered]
            for _, late_at, late_chunk in due_now:
                delivered += 1
                yield late_at, late_chunk
    for _, late_at, late_chunk in sorted(stalled):
        yield late_at, late_chunk
