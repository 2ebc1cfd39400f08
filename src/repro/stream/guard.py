"""FeedGuard: admission control between a chunk source and a session.

Real meter feeds are dirty in ways PR 6's replay sources never are:
samples arrive as NaN/inf after collector hiccups, negative after CT
miswiring, chunks get duplicated by at-least-once transports, delivered
late after buffering, or simply never arrive.  :class:`FeedGuard` sits
between the source and the :class:`~repro.stream.session.StreamSession`
and turns that mess into the clean contiguous sample stream the attack
adapters' bitwise contracts assume.

The guard's coordinate system is the :class:`~repro.stream.source.StreamClock`
sample grid: every chunk carries an absolute index ``at`` of its first
sample (``None`` means "next expected"), and the guard keeps a cursor —
the next index it expects.  Comparing ``at`` to the cursor classifies the
chunk:

* ``at == cursor`` — in order; scrub values and deliver.
* ``at + len <= cursor`` — a duplicate (or fully late) chunk; rejected.
* ``at < cursor < at + len`` — a partial overlap; the already-delivered
  prefix is trimmed and the novel suffix delivered.
* ``at > cursor`` — a gap of ``at - cursor`` samples, handled by the
  configured gap policy (and checked against the max-gap watchdog).

**Clean-feed invariance** is the load-bearing property: when every chunk
arrives in order with finite non-negative values, the guard forwards the
*same array objects* untouched — no copy, no modification — so every
streamed-vs-batch bitwise equivalence pin holds with the guard in place.
The only clean-path cost is one ``isfinite``/sign scan per chunk
(measured in ``benchmarks/bench_stream_degradation.py``).

Duplicate rejection doubles as the resume mechanism: after a checkpoint
restore the cursor sits mid-stream, so replaying the feed from the start
makes the guard reject the already-consumed prefix and trim the chunk
that straddles the checkpoint — delivering exactly the unseen suffix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..obs import TELEMETRY

#: Allowed ``GuardPolicy.value_policy`` settings.
VALUE_POLICIES = ("drop", "hold-last", "zero-fill")

#: Allowed ``GuardPolicy.gap_policy`` settings.
GAP_POLICIES = ("hold", "fill", "resync")


class FeedDead(RuntimeError):
    """The max-gap watchdog declared the feed dead.

    Raised by :meth:`FeedGuard.push` when a gap exceeds
    ``GuardPolicy.max_gap_samples``.  The guard records the verdict in
    its stats; callers finalize what they have and report ``feed_dead``.
    """


@dataclass(frozen=True)
class GuardPolicy:
    """How a :class:`FeedGuard` treats bad values and clock gaps.

    ``value_policy`` handles non-finite / negative-power samples:

    * ``"drop"`` — remove them (the delivered chunk shrinks; the guard's
      wall clock still advances over the dropped samples);
    * ``"hold-last"`` — replace each with the most recent good value
      (0.0 before any good sample);
    * ``"zero-fill"`` — replace each with 0.0.

    ``gap_policy`` handles ``at > cursor``:

    * ``"hold"`` — deliver post-gap chunks contiguously (the attacks'
      sample clock falls behind the wall clock by the gap);
    * ``"fill"`` — synthesize the gap as held-last-value samples and
      deliver those first (wall-clock-true, but the filled plateau is
      invented data);
    * ``"resync"`` — explicitly reset every attack's seam state via
      :meth:`StreamSession.resync` and advance their sample counters by
      the gap, so nothing decodes across the discontinuity and post-gap
      timestamps stay wall-clock-true.

    ``max_gap_samples`` arms the watchdog: a gap strictly larger than
    this declares the feed dead (:class:`FeedDead`).  ``None`` disables
    it.  All defaults are off-path on a clean feed.
    """

    value_policy: str = "hold-last"
    gap_policy: str = "resync"
    max_gap_samples: int | None = None

    def __post_init__(self) -> None:
        if self.value_policy not in VALUE_POLICIES:
            raise ValueError(
                f"value_policy must be one of {VALUE_POLICIES}, "
                f"got {self.value_policy!r}"
            )
        if self.gap_policy not in GAP_POLICIES:
            raise ValueError(
                f"gap_policy must be one of {GAP_POLICIES}, "
                f"got {self.gap_policy!r}"
            )
        if self.max_gap_samples is not None and self.max_gap_samples < 1:
            raise ValueError("max_gap_samples must be >= 1 (or None)")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class GuardStats:
    """What the guard did to the feed, for reports and telemetry."""

    chunks: int = 0
    delivered_samples: int = 0
    quarantined_values: int = 0
    gaps: int = 0
    gap_samples: int = 0
    filled_samples: int = 0
    resyncs: int = 0
    rejected_chunks: int = 0
    rejected_samples: int = 0
    trimmed_samples: int = 0
    feed_dead: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


class FeedGuard:
    """Validate and scrub chunks before they reach a session.

    ``sink`` is anything with the session push protocol: ``push(values)``
    plus ``resync(gap_samples)`` (only required when the gap policy is
    ``"resync"``).  In practice it is a
    :class:`~repro.stream.session.StreamSession`.
    """

    def __init__(self, sink, policy: GuardPolicy | None = None) -> None:
        self.sink = sink
        self.policy = policy or GuardPolicy()
        self.stats = GuardStats()
        self._cursor = 0
        self._last_value = 0.0

    @property
    def position(self) -> int:
        """The absolute sample index the guard expects next."""
        return self._cursor

    def push(self, values: np.ndarray, at: int | None = None) -> int:
        """Admit one chunk; return the number of samples delivered.

        ``at`` is the absolute sample index of ``values[0]`` on the
        stream clock; ``None`` means the chunk is next-in-order.  Raises
        :class:`FeedDead` when a gap trips the max-gap watchdog (the
        chunk itself is *not* delivered — the feed is already declared
        dead at that point).
        """
        if self.stats.feed_dead:
            raise FeedDead("feed already declared dead")
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("chunks must be 1-D sample arrays")
        self.stats.chunks += 1
        n = len(values)
        if n == 0:
            return 0
        if at is None:
            at = self._cursor
        at = int(at)
        if at < 0:
            raise ValueError("chunk index must be >= 0")

        # -- duplicate / late ------------------------------------------
        if at < self._cursor:
            if at + n <= self._cursor:
                self.stats.rejected_chunks += 1
                self.stats.rejected_samples += n
                TELEMETRY.count("stream.rejected_chunks")
                return 0
            trim = self._cursor - at
            values = values[trim:]
            at = self._cursor
            n = len(values)
            self.stats.trimmed_samples += trim

        # -- gap --------------------------------------------------------
        if at > self._cursor:
            gap = at - self._cursor
            self.stats.gaps += 1
            self.stats.gap_samples += gap
            TELEMETRY.count("stream.gap_samples", gap)
            max_gap = self.policy.max_gap_samples
            if max_gap is not None and gap > max_gap:
                self.stats.feed_dead = True
                TELEMETRY.count("stream.feed_dead")
                raise FeedDead(
                    f"gap of {gap} samples exceeds max_gap_samples={max_gap}"
                )
            if self.policy.gap_policy == "resync":
                self.sink.resync(gap)
                self.stats.resyncs += 1
                TELEMETRY.count("stream.resyncs")
            elif self.policy.gap_policy == "fill":
                fill = np.full(gap, self._last_value)
                self.sink.push(fill)
                self.stats.filled_samples += gap
                self.stats.delivered_samples += gap
            # "hold": deliver contiguously; nothing to do.
            self._cursor = at

        # -- value scrub ------------------------------------------------
        # Wall clock advances over the pre-scrub length: a "drop" policy
        # shortens what the attacks see, never what the guard expects.
        self._cursor += n
        bad = ~np.isfinite(values) | (values < 0)
        n_bad = int(bad.sum())
        if n_bad:
            self.stats.quarantined_values += n_bad
            TELEMETRY.count("stream.quarantined_values", n_bad)
            if self.policy.value_policy == "drop":
                values = values[~bad]
            elif self.policy.value_policy == "zero-fill":
                values = np.where(bad, 0.0, values)
            else:  # hold-last: forward-fill from the last good sample
                ext = np.concatenate(([self._last_value], values))
                good = np.flatnonzero(np.isfinite(ext) & (ext >= 0))
                idx = np.zeros(len(ext), dtype=int)
                idx[good] = good
                np.maximum.accumulate(idx, out=idx)
                values = ext[idx][1:]
        # Clean path falls through with the original array object — the
        # bitwise streamed-vs-batch pins depend on that.

        if len(values):
            self._last_value = float(values[-1])
            self.sink.push(values)
            self.stats.delivered_samples += len(values)
        return len(values)

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "policy": self.policy.as_dict(),
            "cursor": self._cursor,
            "last_value": self._last_value,
            "stats": self.stats.as_dict(),
        }

    def load_state(self, state: dict) -> None:
        if state["policy"] != self.policy.as_dict():
            raise ValueError("state was saved with a different guard policy")
        self._cursor = int(state["cursor"])
        self._last_value = float(state["last_value"])
        self.stats = GuardStats(**state["stats"])
