"""The benchmark recorder, ``tools/bench_record.py``, on canned perfbench
output: it parses and appends records without running perfbench.

The tool is a standalone script, so it is loaded from its path here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.datasets.io import dump_json

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

RUN = {
    "digests": {"cover@1 seed=0 lan=0": "eb92118"},
    "machine": {"cpus": 2, "git_rev": "e684e38", "numpy": "2.4.6", "python": "3.11.7"},
    "samples": {"pushes": 0, "rounds": 5, "setups": 5},
    "seconds": 20.0,
    "seed": 0,
    "trace": 0,
    "unit": "job",
    "workload": "netpriv",
}
RESULT = {
    "correct": True,
    "attempted": 48,
    "failed": 0,
    "metrics": {
        "throughput": {"value": 1.72, "unit": "1/s"},
        "setup_s": {"value": 0.46, "unit": "s"},
        "peak_rss_mb": {"value": 89.8, "unit": "MiB"},
    },
}
OUTPUT = "\n".join([
    "# perfbench netpriv seed=0 trace=0 seconds=20.0",
    "throughput                                     1.72 1/s    n=5 rounds",
    "error_rate                                        0 ratio  n=48 jobs, 0 failed",
    json.dumps(RUN, sort_keys=True),
    json.dumps(RESULT),
]) + "\n"


def test_parse_keeps_run_and_result_without_digests():
    record = bench_record.parse_run(OUTPUT)
    assert "digests" not in record
    assert record["workload"] == "netpriv" and record["seed"] == 0
    assert record["seconds"] == 20.0
    assert record["machine"]["git_rev"] == "e684e38"
    for field in ("correct", "attempted", "failed", "metrics"):
        assert record[field] == RESULT[field]


def test_append_writes_a_dump_json_list(tmp_path):
    path = tmp_path / "BENCH_perfbench.json"
    record = bench_record.parse_run(OUTPUT)
    bench_record.append_record(record, path)
    records = bench_record.append_record(record, path)
    assert len(records) == 2
    assert path.read_text() == dump_json([record, record]) + "\n"


@pytest.mark.parametrize("stdout", [
    "",
    "# perfbench netpriv seed=0\nthroughput 1.7 1/s\n",
    OUTPUT.replace('"metrics"', '"figures"'),
], ids=["empty", "no-json", "no-metrics"])
def test_unparsable_output_is_refused(stdout):
    with pytest.raises(ValueError, match="perfbench"):
        bench_record.parse_run(stdout)


def test_append_refuses_a_non_list(tmp_path):
    path = tmp_path / "BENCH_perfbench.json"
    path.write_text("{}\n")
    with pytest.raises(ValueError, match="JSON list"):
        bench_record.append_record({}, path)


def test_committed_record_is_well_formed():
    records = json.loads((ROOT / "BENCH_perfbench.json").read_text())
    assert isinstance(records, list) and records
    for record in records:
        assert record["workload"] in ("sweep", "extend", "netpriv", "stream")
        assert "digests" not in record and record["machine"]["git_rev"]
        assert {"throughput", "setup_s", "peak_rss_mb"} <= set(record["metrics"])
