"""Incremental edge detection and Hart pairing with exact seam contracts.

The batch :func:`repro.timeseries.detect_edges` looks both backward and
forward around each candidate: a step at sample ``i`` needs up to
``settle_samples`` of history for its pre-level median and up to
``settle_samples`` of *future* for its post-level median.  A streaming
detector therefore cannot decide a candidate the moment it arrives — it
must carry seam state across chunk boundaries:

* the trailing ``2 * settle_samples`` raw samples (enough history for the
  pre-window of any still-pending candidate);
* the candidates whose post-windows are not yet full (``index +
  settle_samples > samples seen``), finalized once enough future arrives
  or the stream closes (where the batch pass truncates too).

With that carry, :class:`StreamingEdgeDetector` emits **bitwise-identical
edges to the whole-trace pass for every chunking** — including chunk size
1 — because every median is computed over exactly the float64 values the
batch slice holds.  The equivalence is pinned by
``tests/test_stream.py`` across chunk sizes and seam-straddling cases.

:class:`StreamingHartPairer` carries the other seam state of Hart's
method: rising edges whose falling partner has not arrived yet stay in
the open set across pushes, and each push runs the greedy loop
:func:`repro.timeseries.pair_edges` runs, so it makes the same
decisions.  :class:`StreamingHart` chains the two into the one engine
the ``edges`` stream attack drives.
"""

from __future__ import annotations

import numpy as np

from ..obs import TELEMETRY
from ..timeseries import Edge
from ..timeseries.events import match_falls
from .source import StreamClock


class StreamingEdgeDetector:
    """Push-based edge detection, bitwise-equal to the batch pass.

    Parameters mirror :func:`repro.timeseries.detect_edges`.  Use
    :meth:`push` for each arriving chunk (returns the edges finalized by
    that chunk) and :meth:`finalize` at end-of-stream (returns the edges
    whose post-windows the stream's end truncates, exactly as the batch
    pass truncates windows at the end of the array).
    """

    def __init__(
        self, min_delta_w: float = 30.0, settle_samples: int = 1
    ) -> None:
        if min_delta_w <= 0:
            raise ValueError("min_delta_w must be positive")
        if settle_samples < 1:
            raise ValueError("settle_samples must be >= 1")
        self.min_delta_w = float(min_delta_w)
        self.settle_samples = int(settle_samples)
        self._clock = StreamClock(1.0)
        self._carry = np.empty(0)
        self._total = 0
        self._pending: list[int] = []
        self._edges: list[Edge] = []
        self._finalized = False

    # ------------------------------------------------------------------
    # Stream protocol
    # ------------------------------------------------------------------
    def open(self, clock: StreamClock) -> None:
        self._clock = clock

    def push(self, values: np.ndarray) -> list[Edge]:
        """Consume one chunk; return the edges it allowed us to finalize."""
        if self._finalized:
            raise RuntimeError("stream already finalized")
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("chunks must be 1-D sample arrays")
        if len(values) == 0:
            return []
        old_total = self._total
        work = (
            np.concatenate([self._carry, values])
            if len(self._carry)
            else values
        )
        base = old_total - len(self._carry)
        new_total = old_total + len(values)

        # scan the newly decidable candidate positions: a global index i is
        # a candidate when |v[i] - v[i-1]| crosses the threshold, decidable
        # once v[i] exists.  Previous pushes scanned up to old_total - 1.
        # The base + 1 floor also requires the predecessor v[i-1] to be
        # held in ``work`` — equivalent to the old max(1, old_total) on
        # every contiguous path, and the reason the first post-resync
        # sample (whose predecessor died with the discontinuity) can
        # never become a candidate.
        lo = max(base + 1, old_total)
        j0 = lo - base
        if j0 < len(work):
            diffs = np.abs(work[j0:] - work[j0 - 1 : len(work) - 1])
            for j in np.flatnonzero(diffs >= self.min_delta_w):
                self._pending.append(base + j0 + int(j))

        # finalize candidates whose post-window is now full
        emitted: list[Edge] = []
        still_pending: list[int] = []
        for gi in self._pending:
            if gi + self.settle_samples <= new_total:
                edge = self._finalize_candidate(gi, work, base, new_total)
                if edge is not None:
                    emitted.append(edge)
            else:
                still_pending.append(gi)
        self._pending = still_pending
        self._edges.extend(emitted)

        # clamp to what ``work`` actually holds: after a resync the wall
        # clock (new_total) runs ahead of the buffered history, and a
        # min(new_total, ...) bound would slice with a negative start —
        # silently shedding carry the pre-windows still need.  On every
        # contiguous path len(work) >= min(new_total, 2 * settle), so the
        # two bounds agree bitwise there.
        keep = min(len(work), 2 * self.settle_samples)
        self._carry = work[len(work) - keep :].copy() if keep else np.empty(0)
        self._total = new_total
        TELEMETRY.count("stream.edges.candidates", len(emitted))
        return emitted

    def finalize(self) -> list[Edge]:
        """Close the stream: decide pending candidates at the true end.

        The batch pass truncates a candidate's post-window at the array
        end (``hi = min(n, i + settle)``); the same truncation applies
        here, so the union of all :meth:`push` returns plus this call is
        the exact batch edge list.
        """
        if self._finalized:
            return []
        self._finalized = True
        base = self._total - len(self._carry)
        tail: list[Edge] = []
        for gi in self._pending:
            edge = self._finalize_candidate(gi, self._carry, base, self._total)
            if edge is not None:
                tail.append(edge)
        self._pending = []
        self._edges.extend(tail)
        return tail

    def resync(self, gap_samples: int = 0) -> None:
        """Reset seam state at a feed discontinuity.

        Pending candidates (whose settle windows would span the gap) and
        the carried history are discarded — their medians would mix pre-
        and post-gap power levels, producing edges no batch pass over
        either segment would emit.  ``gap_samples`` advances the sample
        counter so post-gap edge indices and times stay on the wall
        clock.  Already-finalized edges are kept.
        """
        if self._finalized:
            raise RuntimeError("stream already finalized")
        if gap_samples < 0:
            raise ValueError("gap_samples must be >= 0")
        self._pending = []
        self._carry = np.empty(0)
        self._total += int(gap_samples)

    @property
    def edges(self) -> list[Edge]:
        """Every edge finalized so far, in index order."""
        return list(self._edges)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _finalize_candidate(
        self, gi: int, work: np.ndarray, base: int, total: int
    ) -> Edge | None:
        s = self.settle_samples
        local = gi - base
        # clamp the pre-window at ``base`` — on the contiguous path the
        # carry always holds >= settle_samples of history (no-op there);
        # after a resync the history before the discontinuity is gone, so
        # the pre-median is honestly computed over what survives.
        lo = max(0, gi - s, base) - base
        hi = min(total, gi + s) - base
        if lo >= local or local >= hi:
            # no surviving pre- or post-window (only reachable if seam
            # bookkeeping sheds history): better no edge than a NaN edge
            return None
        pre = float(np.median(work[lo:local]))
        post = float(np.median(work[local:hi]))
        delta = post - pre
        if abs(delta) < self.min_delta_w:
            return None
        return Edge(
            index=gi,
            time_s=self._clock.start_s + gi * self._clock.period_s,
            delta_w=delta,
            pre_w=pre,
            post_w=post,
        )

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "min_delta_w": self.min_delta_w,
            "settle_samples": self.settle_samples,
            "clock": self._clock.as_dict(),
            "carry": self._carry.copy(),
            "total": self._total,
            "pending": list(self._pending),
            "edges": list(self._edges),
            "finalized": self._finalized,
        }

    def load_state(self, state: dict) -> None:
        if (
            state["min_delta_w"] != self.min_delta_w
            or state["settle_samples"] != self.settle_samples
        ):
            raise ValueError("state was saved with different parameters")
        self._clock = StreamClock(**state["clock"])
        self._carry = np.asarray(state["carry"], dtype=float).copy()
        self._total = int(state["total"])
        self._pending = list(state["pending"])
        self._edges = list(state["edges"])
        self._finalized = bool(state["finalized"])


class StreamingHartPairer:
    """Incremental rise/fall matching over a finalized edge stream.

    Runs :func:`repro.timeseries.pair_edges`' greedy rule
    (:func:`~repro.timeseries.events.match_falls`) over each push's
    edges: each falling edge matches the most recent unmatched rising
    edge within ``tolerance_w`` (and ``max_gap_s``, when set).  The open
    rising edges are the seam state — an appliance switched on in one
    chunk pairs with its off-edge chunks later, exactly as the batch pass
    pairs them over the whole trace.
    """

    def __init__(
        self, tolerance_w: float = 50.0, max_gap_s: float | None = None
    ) -> None:
        self.tolerance_w = float(tolerance_w)
        self.max_gap_s = max_gap_s
        self._open_rises: list[Edge] = []
        self._pairs: list[tuple[Edge, Edge]] = []

    def feed(self, edges: list[Edge]) -> list[tuple[Edge, Edge]]:
        """Consume newly finalized edges; return the pairs they closed."""
        closed = match_falls(
            edges, self._open_rises, self.tolerance_w, self.max_gap_s
        )
        self._pairs.extend(closed)
        return closed

    def finalize(self) -> list[tuple[Edge, Edge]]:
        """All pairs ordered by rise time (the batch output order)."""
        return sorted(self._pairs, key=lambda p: p[0].time_s)

    def resync(self, gap_samples: int = 0) -> None:
        """Drop the open rising edges at a feed discontinuity.

        An appliance that switched on before the gap may have switched
        off *inside* it; pairing its rise with a post-gap fall would
        fabricate a run-length no batch pass over a continuous trace
        could produce.  Completed pairs are kept.
        """
        del gap_samples  # pairing state carries no sample clock
        self._open_rises = []

    @property
    def open_rises(self) -> list[Edge]:
        """Rising edges still waiting for a falling partner."""
        return list(self._open_rises)

    def state_dict(self) -> dict:
        return {
            "tolerance_w": self.tolerance_w,
            "max_gap_s": self.max_gap_s,
            "open_rises": list(self._open_rises),
            "pairs": list(self._pairs),
        }

    def load_state(self, state: dict) -> None:
        if (
            state["tolerance_w"] != self.tolerance_w
            or state["max_gap_s"] != self.max_gap_s
        ):
            raise ValueError("state was saved with different parameters")
        self._open_rises = list(state["open_rises"])
        self._pairs = list(state["pairs"])


class StreamingHart:
    """Hart's method online: edge detection feeding rise/fall pairing.

    Each chunk's finalized edges go straight to the pairer, a resync
    resets both seams, and the state nests both engines' states.
    """

    def __init__(
        self,
        min_delta_w: float = 30.0,
        settle_samples: int = 1,
        tolerance_w: float = 50.0,
    ) -> None:
        self.detector = StreamingEdgeDetector(min_delta_w, settle_samples)
        self.pairer = StreamingHartPairer(tolerance_w)

    def open(self, clock: StreamClock) -> None:
        self.detector.open(clock)

    def push(self, values: np.ndarray) -> None:
        self.pairer.feed(self.detector.push(values))

    def finalize(self) -> list[tuple[Edge, Edge]]:
        """Close the stream; return every pair, ordered by rise time."""
        self.pairer.feed(self.detector.finalize())
        return self.pairer.finalize()

    def resync(self, gap_samples: int = 0) -> None:
        self.detector.resync(gap_samples)
        self.pairer.resync(gap_samples)

    def state_dict(self) -> dict:
        return {
            "detector": self.detector.state_dict(),
            "pairer": self.pairer.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        self.detector.load_state(state["detector"])
        self.pairer.load_state(state["pairer"])
