"""Edge/event detection on power traces.

NILM techniques in the edge-detection family (Hart's algorithm) and the
PowerPlay tracker both begin from the same primitive: detecting step changes
("edges") in an aggregate power signal.  This module provides it, and Hart's
pairing of rising with falling edges that the streamed edges attack runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import PowerTrace


@dataclass(frozen=True)
class Edge:
    """A detected step change in a power signal.

    Attributes
    ----------
    index:
        Sample index at which the new level begins.
    time_s:
        Absolute time of that sample.
    delta_w:
        Signed magnitude of the step (post-level minus pre-level).
    pre_w / post_w:
        Steady-state level estimates before and after the step.
    """

    index: int
    time_s: float
    delta_w: float
    pre_w: float
    post_w: float

    @property
    def is_rising(self) -> bool:
        return self.delta_w > 0


def detect_edges(
    trace: PowerTrace,
    min_delta_w: float = 30.0,
    settle_samples: int = 1,
) -> list[Edge]:
    """Detect step changes of at least ``min_delta_w`` watts.

    A sample-to-sample difference whose magnitude exceeds the threshold opens
    a candidate edge; the pre/post levels are estimated as medians over up to
    ``settle_samples`` samples on either side, which suppresses spurious edges
    from single-sample noise spikes.
    """
    if min_delta_w <= 0:
        raise ValueError("min_delta_w must be positive")
    if settle_samples < 1:
        raise ValueError("settle_samples must be >= 1")
    values = trace.values
    n = len(values)
    diffs = np.diff(values)
    candidates = np.flatnonzero(np.abs(diffs) >= min_delta_w) + 1
    if len(candidates) == 0:
        return []
    # Interior candidates have full settle windows on both sides, so their
    # pre/post medians are medians over fixed-length rows and can be
    # computed in one batched np.median over gathered windows.  Candidates
    # within settle_samples of either end fall back to the per-candidate
    # slices.  Both paths sort the same float64 values, so the result is
    # bitwise identical to repro.timeseries._reference.detect_edges_loop.
    pre = np.empty(len(candidates))
    post = np.empty(len(candidates))
    interior = (candidates >= settle_samples) & (candidates + settle_samples <= n)
    if interior.any() and settle_samples > 1:
        windows = np.lib.stride_tricks.sliding_window_view(values, settle_samples)
        inner = candidates[interior]
        pre[interior] = np.median(windows[inner - settle_samples], axis=1)
        post[interior] = np.median(windows[inner], axis=1)
    elif settle_samples == 1:
        # Median of one sample is that sample.
        pre[interior] = values[candidates[interior] - 1]
        post[interior] = values[candidates[interior]]
    for j in np.flatnonzero(~interior):
        idx = candidates[j]
        lo = max(0, idx - settle_samples)
        hi = min(n, idx + settle_samples)
        pre[j] = np.median(values[lo:idx])
        post[j] = np.median(values[idx:hi])
    deltas = post - pre
    edges: list[Edge] = []
    for j in np.flatnonzero(np.abs(deltas) >= min_delta_w):
        idx = candidates[j]
        edges.append(
            Edge(
                index=int(idx),
                time_s=trace.start_s + idx * trace.period_s,
                delta_w=float(deltas[j]),
                pre_w=float(pre[j]),
                post_w=float(post[j]),
            )
        )
    return edges


def pair_edges(
    edges: list[Edge],
    tolerance_w: float = 50.0,
    max_gap_s: float | None = None,
) -> list[tuple[Edge, Edge]]:
    """Greedily match rising edges to later falling edges of similar size.

    This is the heart of Hart's event-based NILM: an appliance cycle appears
    as a +P edge followed later by a -P edge.  Each falling edge is matched
    to the most recent unmatched rising edge within ``tolerance_w``.
    Returns (rise, fall) pairs ordered by rise time.
    """
    pairs = match_falls(edges, [], tolerance_w, max_gap_s)
    pairs.sort(key=lambda p: p[0].time_s)
    return pairs


def match_falls(
    edges: list[Edge],
    open_rises: list[Edge],
    tolerance_w: float,
    max_gap_s: float | None,
) -> list[tuple[Edge, Edge]]:
    """Hart's greedy rule over time-ordered ``edges``, resumable.

    ``open_rises`` holds the rising edges still waiting for a fall; it is
    updated in place, so :func:`pair_edges` (one call over a whole edge
    list) and the streamed pairer (one call per chunk's edges) make the
    same decisions.  Returns the (rise, fall) pairs closed, in fall order.
    """
    pairs: list[tuple[Edge, Edge]] = []
    for edge in edges:
        if edge.is_rising:
            open_rises.append(edge)
            continue
        best: Edge | None = None
        for rise in reversed(open_rises):
            if max_gap_s is not None and edge.time_s - rise.time_s > max_gap_s:
                # Edges arrive in time order, so scanning open rises from
                # newest to oldest the gap only grows: once one rise is too
                # old, every remaining one is too.  (Seam audit: this was a
                # `continue` inside the tolerance branch, which kept
                # scanning rises that could never qualify — same result,
                # wasted work.  Regression-pinned by
                # tests/test_stream.py::TestSeamAudit.)
                break
            if abs(rise.delta_w + edge.delta_w) <= tolerance_w:
                best = rise
                break
        if best is not None:
            open_rises.remove(best)
            pairs.append((best, edge))
    return pairs
