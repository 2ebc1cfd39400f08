"""Shared fleet fixtures: expensive reference runs computed once.

Several modules need the same ground truth — a clean serial run of the
standard 5-home determinism fleet (``test_fleet.py``) and of the 4-home
chaos fleet (``test_fleet_faults.py``).  Computing each once per
*session* instead of once per module keeps the reference runs from
inflating the tier-1 wall clock.

The spec constants live here, next to the fixtures that cache their
results, so a module can never drift from the reference it compares
against.
"""

import pytest

from repro.fleet import FleetSpec, run_fleet

#: the determinism fleet: two presets, two defenses, full detector set
FLEET_SPEC = FleetSpec(
    n_homes=5,
    days=1,
    seed=123,
    mix=("random", "home-a"),
    defenses=("dp-laplace", "smoothing"),
)

#: the chaos fleet: one defense, one detector keeps each job ~25ms so
#: fault paths (which re-run jobs) stay fast
CHAOS_SPEC = FleetSpec(
    n_homes=4,
    days=1,
    seed=9,
    mix=("random", "home-a"),
    defenses=("nill",),
    detectors=("threshold-15m",),
)


@pytest.fixture(scope="session")
def fleet_serial_result():
    """Clean serial run of :data:`FLEET_SPEC` — the bitwise ground truth."""
    return run_fleet(FLEET_SPEC, workers=1)


@pytest.fixture(scope="session")
def chaos_clean_digests():
    """Per-home digests from an uninjected serial run of :data:`CHAOS_SPEC`."""
    result = run_fleet(CHAOS_SPEC, workers=1)
    assert not result.failures
    return {h.index: h.trace_digest for h in result.homes}
