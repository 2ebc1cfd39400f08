#!/usr/bin/env python
"""Append one perfbench run to the committed benchmark record.

Runs ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0``
in a checkout (by default this one; pass ``--checkout`` to measure another
one, such as a clone of the parent commit), with the workloads and run
length ``S`` that ``BENCHMARK.json`` declares, and appends one record to
``BENCH_perfbench.json`` at the root of this checkout.  A record is
perfbench's run line without its ``digests`` (workload, seed, seconds and
the machine facts, ``git_rev`` included) merged with its result line
(``correct``, ``attempted``, ``failed`` and ``metrics``).  The file is a
JSON list, written as ``repro.datasets.io.dump_json`` writes every export.

Run from the repository root, alternating the two sides of a comparison::

    python3 tools/bench_record.py --workload netpriv --seed 0 --checkout ../parent
    python3 tools/bench_record.py --workload netpriv --seed 0

Exit status 0 once the record is written; perfbench's own exit status
when it fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_perfbench.json"
BENCHMARK = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(ROOT / "src"))
from repro.datasets.io import dump_json  # noqa: E402

#: The result line's fields a record keeps.
RESULT_FIELDS = ("correct", "attempted", "failed", "metrics")


def parse_run(stdout: str) -> dict:
    """The record for one perfbench run, from its printed output.

    perfbench prints human-readable lines, then the run line and the
    result line, each one JSON object.
    """
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("perfbench printed no run and result lines")
    try:
        run, result = json.loads(lines[-2]), json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ValueError(f"perfbench's last two lines are not JSON: {exc}") from exc
    missing = [f for f in ("workload", "seed", "seconds", "machine") if f not in run]
    missing += [f for f in RESULT_FIELDS if f not in result]
    if missing:
        raise ValueError(f"perfbench output lacks {', '.join(missing)}")
    record = {k: v for k, v in run.items() if k != "digests"}
    record.update((k, result[k]) for k in RESULT_FIELDS)
    return record


def append_record(record: dict, path: Path = RECORD) -> list[dict]:
    """Append ``record`` to the JSON list at ``path``; returns the list."""
    records = json.loads(path.read_text()) if path.exists() else []
    if not isinstance(records, list):
        raise ValueError(f"{path} does not hold a JSON list")
    records.append(record)
    dump_json(records, path)
    return records


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    """perfbench's output for one untraced run in ``checkout``."""
    argv = [
        sys.executable, "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(done.returncode)
    return done.stdout


def main(argv=None) -> int:
    benchmark = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="the checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    stdout = run_perfbench(
        args.checkout, args.workload, args.seed, benchmark["run_seconds"]
    )
    record = parse_run(stdout)
    print("\n".join(stdout.splitlines()[:-2]))  # the human-readable lines
    records = append_record(record)
    metrics = record["metrics"]
    print(f"bench_record: {record['workload']} seed={record['seed']} "
          f"rev={record['machine']['git_rev'][:7]} "
          f"throughput={metrics['throughput']['value']:.4g} "
          f"correct={record['correct']} -> record {len(records)} of {RECORD.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
