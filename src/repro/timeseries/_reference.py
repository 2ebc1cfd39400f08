"""Pre-vectorization reference implementations of timeseries hot paths.

These are the original per-window/per-candidate loop bodies of
:func:`repro.timeseries.stats.window_features` and
:func:`repro.timeseries.events.detect_edges`, kept verbatim as reference
semantics for the vectorized versions that replaced them (see
``docs/PERFORMANCE.md``).

The contract is bitwise: for any trace the vectorized functions must return
exactly the same feature matrices and edge lists as these loops.  The
per-row reductions (``mean``/``std``/``max``/``min``/``median``) operate on
the same contiguous blocks of the same float64 data in both formulations,
so numpy's pairwise summation order is unchanged and no tolerance is
needed.  ``tests/test_kernel_equivalence.py`` pins the production functions
to these; ``docs/PERFORMANCE.md`` section 3 records their speedups.
"""

from __future__ import annotations

import numpy as np

from .events import Edge
from .series import PowerTrace


def window_features_loop(trace: PowerTrace, window_s: float) -> np.ndarray:
    """Original per-window loop of :func:`repro.timeseries.stats.window_features`."""
    rows = []
    for window in trace.windows(window_s):
        values = window.values
        diffs = np.abs(np.diff(values)) if len(values) > 1 else np.zeros(1)
        rows.append(
            (
                float(values.mean()),
                float(values.std()),
                float(values.max() - values.min()),
                float((diffs > 2.0 * max(values.std(), 1.0)).sum()),
            )
        )
    if not rows:
        raise ValueError("trace shorter than one feature window")
    return np.asarray(rows)


def detect_edges_loop(
    trace: PowerTrace,
    min_delta_w: float = 30.0,
    settle_samples: int = 1,
) -> list[Edge]:
    """Original per-candidate loop of :func:`repro.timeseries.events.detect_edges`."""
    if min_delta_w <= 0:
        raise ValueError("min_delta_w must be positive")
    if settle_samples < 1:
        raise ValueError("settle_samples must be >= 1")
    values = trace.values
    edges: list[Edge] = []
    diffs = np.diff(values)
    candidates = np.flatnonzero(np.abs(diffs) >= min_delta_w) + 1
    for idx in candidates:
        lo = max(0, idx - settle_samples)
        hi = min(len(values), idx + settle_samples)
        pre = float(np.median(values[lo:idx]))
        post = float(np.median(values[idx:hi]))
        delta = post - pre
        if abs(delta) < min_delta_w:
            continue
        edges.append(
            Edge(
                index=int(idx),
                time_s=trace.start_s + idx * trace.period_s,
                delta_w=delta,
                pre_w=pre,
                post_w=post,
            )
        )
    return edges
