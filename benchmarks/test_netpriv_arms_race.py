"""Naive-vs-adaptive attacker benchmark across the netpriv defense dials.

The arms-race acceptance experiment: fan every registered netpriv traffic
defense over a dial grid (off / mid / full) with
:class:`repro.fleet.netpriv.NetprivSweepRunner`, score each cell with both
attacker generations, and demand two things of the result:

* **the arms race is real** — at the mid dial, the adaptive attacker
  (retrained on shaped traffic, :mod:`repro.netpriv.adaptive`) recovers
  materially more occupancy signal than the naive attacker on at least
  two defenses;
* **the frontier is sane** — turning any defense dial up never *raises*
  the adaptive attacker's occupancy MCC (running-min monotone check, the
  same gate ``repro netpriv --check-monotone`` runs).

Writes a machine-readable ``BENCH_netpriv_arms_race.json`` (override the
path with ``REPRO_BENCH_NETPRIV_OUT``).  No CI job runs it; run it
directly::

    PYTHONPATH=src python benchmarks/test_netpriv_arms_race.py

or through pytest (``python -m pytest benchmarks/test_netpriv_arms_race.py -s``,
also collected by ``--benchmark-only``), which additionally asserts the
acceptance floors above.
"""

from __future__ import annotations

import os

from bench_util import once
from repro.core.knob import knob_mapping_names
from repro.datasets import dump_json
from repro.fleet import NetprivGrid, NetprivSweepRunner

OUT_ENV = "REPRO_BENCH_NETPRIV_OUT"
DEFAULT_OUT = "BENCH_netpriv_arms_race.json"

#: dial positions: off (shared unshaped anchor), mid, full
SETTINGS = (0.0, 0.5, 1.0)
MID_SETTING = 0.5

#: acceptance floors asserted by the pytest entry point
MIN_DEFENSES_WITH_ADAPTIVE_WIN = 2
ADAPTIVE_WIN_MARGIN = 0.1  # occupancy-MCC gap that counts as a win
#: single-LAN MCC estimates wobble ~0.05 between dials even when a
#: defense has no real effect on the adaptive attacker (cover's series is
#: flat: the endpoint residual survives every dial position), so the
#: benchmark's monotone gate uses a wider tolerance than the CLI default
MONOTONE_TOLERANCE = 0.1

DAYS = 3
SEED = 0


def run_benchmarks(workers: int | None = None) -> dict:
    """Run the full defense × dial grid; returns the report document."""
    defenses = tuple(knob_mapping_names("netpriv"))
    grid = NetprivGrid(
        defenses=defenses,
        settings=SETTINGS,
        seeds=(SEED,),
        n_lans=1,
        days=DAYS,
        lan="default",
    )
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    result = NetprivSweepRunner(workers=workers, telemetry=True).run(grid)
    frontier = result.frontier()
    violations = frontier.monotone_violations(MONOTONE_TOLERANCE)

    mid_gaps = {
        p.defense: round(p.adaptive_advantage, 4)
        for p in frontier.points
        if p.setting == MID_SETTING
    }
    adaptive_wins = sorted(
        d for d, gap in mid_gaps.items() if gap > ADAPTIVE_WIN_MARGIN
    )
    doc = {
        "schema": "repro.bench_netpriv_arms_race/1",
        "grid": grid.as_dict(),
        "elapsed_s": round(result.elapsed_s, 2),
        "workers": result.workers_used,
        "ok": result.ok,
        "points": frontier.as_dict()["points"],
        "mid_dial_adaptive_gaps": mid_gaps,
        "adaptive_wins_at_mid_dial": adaptive_wins,
        "monotone_tolerance": MONOTONE_TOLERANCE,
        "monotone_violations": violations,
        "telemetry": (
            result.telemetry.as_dict() if result.telemetry is not None else None
        ),
    }
    return doc


def _write(doc: dict) -> str:
    out = os.environ.get(OUT_ENV, DEFAULT_OUT)
    dump_json(doc, out)
    return out


def _format(doc: dict) -> str:
    lines = [
        f"netpriv arms race: {len(doc['points'])} frontier points "
        f"in {doc['elapsed_s']}s on {doc['workers']} worker(s)"
    ]
    for point in doc["points"]:
        lines.append(
            f"  {point['defense']:<14s}@{point['setting']:<4g} "
            f"naive mcc {point['naive_mcc']['mean']:+.3f}  "
            f"adaptive mcc {point['adaptive_mcc']['mean']:+.3f}  "
            f"cover {point['cover_mb_per_day']['mean']:8.1f} MB/day  "
            f"delay {point['mean_added_delay_s']['mean']:6.1f} s"
        )
    lines.append(f"mid-dial adaptive gaps: {doc['mid_dial_adaptive_gaps']}")
    lines.append(
        f"adaptive wins at mid dial: {doc['adaptive_wins_at_mid_dial']} "
        f"(need >= {MIN_DEFENSES_WITH_ADAPTIVE_WIN})"
    )
    lines.append(
        "monotone violations: "
        + (", ".join(doc["monotone_violations"]) or "none")
    )
    return "\n".join(lines)


def test_bench_netpriv_arms_race(benchmark):
    """Acceptance: adaptive beats naive on >=2 defenses; frontier is sane."""
    doc = once(benchmark, run_benchmarks)
    out = _write(doc)
    print()
    print(_format(doc))
    print(f"report written to {out}")
    assert doc["ok"], "sweep lost LAN jobs; benchmark numbers incomplete"
    assert (
        len(doc["adaptive_wins_at_mid_dial"]) >= MIN_DEFENSES_WITH_ADAPTIVE_WIN
    ), (
        f"adaptive attacker must beat naive by > {ADAPTIVE_WIN_MARGIN} MCC on "
        f">= {MIN_DEFENSES_WITH_ADAPTIVE_WIN} defenses at the mid dial; "
        f"gaps: {doc['mid_dial_adaptive_gaps']}"
    )
    assert not doc["monotone_violations"], doc["monotone_violations"]


if __name__ == "__main__":
    document = run_benchmarks()
    path = _write(document)
    print(_format(document))
    print(f"report written to {path}")
