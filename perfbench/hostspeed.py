"""The host's momentary speed, to report rates at a fixed reference speed.

The 2-vCPU reference VM shares its cores: the same stream replay ran at
rates up to 50% apart on its two vCPUs within the same 8 seconds, spells of
10-60 s ran the whole box 20-50% faster, and a slow spell cut sweep
throughput by a fifth for minutes.  A fixed loop of interpreter work and
small numpy calls -- the mix of the program's hot paths -- is timed just
before and after each round on the vCPUs the round runs on (a stream
client's own vCPU; every vCPU in turn for a pool round), and the round's
time is scaled by ``REFERENCE_S / calibration``: the time it would have
taken at the speed where the loop takes ``REFERENCE_S``.  The loop touches
no program code, so a program change moves the scaled rate exactly as it
moves the raw one; only the host's speed cancels.

Over ten seeds of 20 s runs the scaled stream throughput spread 2.2%
(quartile distance / median) where the raw rate spread 12.7%.  Set-up
times are scaled by the median calibration of the run's rounds, which
sit in the same spell: when a later batch ran in a slower spell, the raw
stream set-up median rose 27% and the scaled one 11%.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Seconds :func:`calibrate` takes at the reference speed (its usual time
#: on the reference VM).
REFERENCE_S = 0.021


def _loop() -> float:
    start = time.perf_counter()
    x = np.arange(60.0)
    acc = 0.0
    for _ in range(3000):
        acc += float((np.diff(x) * 0.5).sum()) + sum(range(40))
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds the fixed loop takes on the vCPU this process runs on.

    The median of three runs, so one run that an interrupt or a brief
    burst elsewhere on the core slowed does not count.
    """
    return sorted(_loop() for _ in range(3))[1]


def calibrate_all() -> float:
    """Mean of :func:`calibrate` over every vCPU, pinned to each in turn."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(calibrate())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def at_reference(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured while the loop took ``calibration_s``, scaled
    to the reference speed."""
    return seconds * REFERENCE_S / calibration_s
