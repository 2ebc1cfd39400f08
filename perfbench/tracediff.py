"""Compare two traced runs layer by layer, ranked by self-time change.

Save the output of two traced runs of the same workload, seed and
``--seconds`` (one per commit), then compare them::

    python3 perfbench/run.py --workload sweep --trace 1 > before.txt
    python3 perfbench/run.py --workload sweep --trace 1 > after.txt
    python3 perfbench/tracediff.py before.txt after.txt

Time metrics (unit ``s``) come first, largest absolute change first, so a
change that claims a saving shows which layer it came from.  Counts and
ratios that changed follow.  Aggregates (``defenses.apply_s``,
``attacks.detect_s``) repeat their parts, so the rows do not sum.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict[str, dict]:
    """Per-layer metrics from the last line of a saved traced run."""
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty")
    result = json.loads(lines[-1])
    return result["metrics"]


def diff(before: dict[str, dict], after: dict[str, dict]) -> list[tuple]:
    """Rows ``(name, unit, before, after, change)``: times by |change|,
    then every other metric that changed."""
    rows = []
    for name in before.keys() & after.keys():
        a, b = before[name]["value"], after[name]["value"]
        rows.append((name, after[name]["unit"], a, b, b - a))
    times = sorted((r for r in rows if r[1] == "s"), key=lambda r: -abs(r[4]))
    others = sorted(
        (r for r in rows if r[1] != "s" and r[4] != 0), key=lambda r: r[0]
    )
    return times + others


def _percent(before: float, change: float) -> str:
    return f"{100.0 * change / before:+.1f}%" if before else "new"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (load(path) for path in argv)
    print(f"{'metric':<34} {'unit':<6} {'before':>12} {'after':>12} "
          f"{'change':>12} {'%':>8}")
    for name, unit, a, b, change in diff(before, after):
        print(f"{name:<34} {unit:<6} {a:>12.6g} {b:>12.6g} {change:>+12.6g} "
              f"{_percent(a, change):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
