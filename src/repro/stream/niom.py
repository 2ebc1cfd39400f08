"""Online NIOM: rolling-window occupancy statistics over a live feed.

:class:`StreamingThresholdNIOM` mirrors
:class:`repro.attacks.ThresholdNIOM` exactly.  The feature extraction is
incremental — each completed decision window's (mean, std, range, edge
count) row is computed the moment its last sample arrives, by the
reduction :func:`repro.timeseries.window_features` runs, so the
accumulated feature matrix is bitwise-identical to the batch one for
every chunking.  The calibration step (quietest-windows baseline) is
*global* in the batch attack — it ranks all windows — so the final
labels are produced at :meth:`finalize`, by the batch attack's own
:meth:`~repro.attacks.ThresholdNIOM.decide`.  While the stream is live,
:meth:`provisional_occupancy` applies the same decision to the windows
seen so far, which is what an online observer actually has.

Seam state carried across pushes: the partial window buffer (fewer than
``block`` samples) and the accumulated feature rows.
"""

from __future__ import annotations

import numpy as np

from ..attacks.niom import NIOMResult, ThresholdNIOM, _window_clock
from ..obs import TELEMETRY
from ..timeseries.stats import block_features
from .source import StreamClock


class StreamingThresholdNIOM:
    """Push-based :class:`~repro.attacks.ThresholdNIOM`.

    Parameters match the batch attack, which checks them.  ``open``
    fixes the window clock, ``push`` consumes sample chunks in O(chunk),
    ``finalize`` runs the batch attack's global quiet-baseline
    calibration and returns the same
    :class:`~repro.attacks.niom.NIOMResult` the batch attack returns.
    """

    def __init__(
        self,
        window_s: float = 900.0,
        baseline_quantile: float = 0.15,
        mean_margin: float = 1.6,
        std_margin: float = 2.5,
        night_prior: bool = False,
    ) -> None:
        self.detector = ThresholdNIOM(
            float(window_s), baseline_quantile, mean_margin, std_margin,
            night_prior,
        )
        self._clock = StreamClock(1.0)
        self._eff_window_s = self.detector.window_s
        self._block = 1
        self._buffer = np.empty(0)
        self._rows: list[np.ndarray] = []
        self._total = 0
        self._opened = False

    # ------------------------------------------------------------------
    # Stream protocol
    # ------------------------------------------------------------------
    def open(self, clock: StreamClock) -> None:
        self._clock = clock
        # Same clamp as the batch _window_clock: never decide finer than
        # the feed itself (a coarsened defense output stays decidable).
        self._eff_window_s = max(self.detector.window_s, clock.period_s)
        self._block = int(round(self._eff_window_s / clock.period_s))
        if self._block < 1:
            raise ValueError("window shorter than one sample period")
        self._opened = True

    def push(self, values: np.ndarray) -> int:
        """Consume a chunk; return the number of windows completed by it."""
        if not self._opened:
            raise RuntimeError("open() must be called before push()")
        values = np.asarray(values, dtype=float)
        if len(values) == 0:
            return 0
        self._total += len(values)
        work = (
            np.concatenate([self._buffer, values])
            if len(self._buffer)
            else values
        )
        n_complete = len(work) // self._block
        if n_complete:
            blocks = work[: n_complete * self._block]
            self._rows.extend(
                block_features(blocks.reshape(n_complete, self._block))
            )
        self._buffer = work[n_complete * self._block :].copy()
        TELEMETRY.count("stream.niom.windows", n_complete)
        return n_complete

    def finalize(self) -> NIOMResult:
        """Global calibration over all windows — the exact batch output."""
        window_s = _window_clock(
            self.detector.window_s,
            self._clock.period_s,
            self._total * self._clock.period_s,
        )
        return self.detector.decide(
            np.stack(self._rows), window_s, self._clock.start_s
        )

    def provisional_occupancy(self) -> np.ndarray | None:
        """Labels an online observer would hold *right now*.

        Applies the quiet-baseline calibration to the windows completed so
        far.  Returns ``None`` until at least four windows exist (the same
        floor the batch attack enforces for a whole trace).  Early labels
        may be revised by later, quieter windows shifting the baseline —
        that revision is inherent to self-calibrating NIOM, not a streaming
        artifact, and :meth:`finalize` always converges to the batch answer.
        """
        if len(self._rows) < 4:
            return None
        result = self.detector.decide(
            np.stack(self._rows), self._eff_window_s, self._clock.start_s
        )
        return result.occupancy.values

    def resync(self, gap_samples: int = 0) -> None:
        """Reset seam state at a feed discontinuity.

        The partial feature window is discarded — completing it with
        post-gap samples would compute window statistics over a block
        that never existed on the wall clock.  ``gap_samples`` advances
        the sample counter so :meth:`finalize`'s duration floor stays
        wall-clock-true; completed feature rows are kept (the window
        grid therefore resumes at the next sample, shifted by whatever
        the gap consumed — documented, not hidden).
        """
        if gap_samples < 0:
            raise ValueError("gap_samples must be >= 0")
        self._buffer = np.empty(0)
        self._total += int(gap_samples)

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    #: the detector parameters a saved state must match
    _PARAMS = (
        "window_s", "baseline_quantile", "mean_margin", "std_margin",
        "night_prior",
    )

    def state_dict(self) -> dict:
        return {
            **{key: getattr(self.detector, key) for key in self._PARAMS},
            "clock": self._clock.as_dict(),
            "buffer": self._buffer.copy(),
            "rows": [r.copy() for r in self._rows],
            "total": self._total,
            "opened": self._opened,
        }

    def load_state(self, state: dict) -> None:
        if any(state[k] != getattr(self.detector, k) for k in self._PARAMS):
            raise ValueError("state was saved with different parameters")
        self._clock = StreamClock(**state["clock"])
        self._opened = bool(state["opened"])
        if self._opened:
            self.open(self._clock)
        self._buffer = np.asarray(state["buffer"], dtype=float).copy()
        self._rows = [np.asarray(r, dtype=float).copy() for r in state["rows"]]
        self._total = int(state["total"])
