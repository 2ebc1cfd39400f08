"""Pre-vectorization reference for the PowerPlay pairing hot path.

This is the original nested rise x fall candidate loop of
``PowerPlayTracker._claim_cycles``, kept verbatim as reference semantics
for the vectorized :func:`repro.attacks.nilm.powerplay._pair_candidates`
(see ``docs/PERFORMANCE.md``).

The contract is exact: for the same edges, used mask and signature, the
vectorized version must return the same candidate list in the same order.
Scores are built from the same float64 operations in the same association,
and the ``(score, rise_index, fall_index)`` sort key is replicated with
``np.lexsort``, so no tolerance is needed.
``tests/test_kernel_equivalence.py`` pins the production function to this
one; ``docs/PERFORMANCE.md`` section 3 records its speedup.
"""

from __future__ import annotations

import numpy as np

from ...timeseries import Edge


def pair_candidates_loop(
    edges: list[Edge],
    used: np.ndarray,
    signature,
    target: float,
) -> list[tuple[float, int, int]]:
    """Original nested-loop candidate scoring of ``_claim_cycles``."""
    candidates: list[tuple[float, int, int]] = []
    rises = [
        (i, e)
        for i, e in enumerate(edges)
        if e.is_rising and not used[i] and signature.matches_magnitude(e.delta_w)
    ]
    falls = [
        (j, e)
        for j, e in enumerate(edges)
        if not e.is_rising and not used[j] and signature.matches_magnitude(e.delta_w)
    ]
    for i, rise in rises:
        for j, fall in falls:
            if fall.time_s <= rise.time_s:
                continue
            duration = fall.time_s - rise.time_s
            if duration < signature.min_duration_s:
                continue
            if duration > signature.max_duration_s:
                break  # falls are time-ordered; all later ones too long
            magnitude_error = (
                abs(abs(rise.delta_w) - target)
                + abs(abs(fall.delta_w) - target)
                + abs(rise.delta_w + fall.delta_w)
            )
            candidates.append((magnitude_error / target, i, j))
    candidates.sort()
    return candidates
