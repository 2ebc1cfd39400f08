"""The runner's own rules: percentiles, refused environments, provenance."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

RUN_PY = Path(run.__file__).resolve()


@pytest.mark.parametrize(
    "pct, too_few",
    [(50, 19), (95, 199), (99, 999)],
)
def test_no_percentile_without_ten_samples_beyond_it(pct, too_few):
    assert run.percentile(list(range(too_few)), pct) is None
    enough = list(range(too_few + 1))
    value = run.percentile(enough, pct)
    assert value is not None
    assert sum(1 for x in enough if x > value) >= 10


def test_percentile_matches_the_sample_median():
    assert run.percentile([float(x) for x in range(1, 22)], 50) == 11.0


def test_refused_variables_are_named():
    assert run.refused_env({}) == []
    env = {"REPRO_TELEMETRY": "1", "REPRO_PROFILE_DIR": "/x", "PATH": "/bin"}
    assert run.refused_env(env) == ["REPRO_TELEMETRY", "REPRO_PROFILE_DIR"]


@pytest.mark.parametrize("name", run.REFUSED_ENV)
def test_refuses_to_run_with_a_measurement_changing_variable(name, monkeypatch):
    monkeypatch.setenv(name, "1")
    out = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", "sweep", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert name in out.stderr


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copytree(RUN_PY.parent, tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_git_rev_follows_refs_and_packed_refs(tmp_path):
    assert run.git_rev(tmp_path) == "unknown"
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack\nabc123 refs/heads/main\n")
    assert run.git_rev(tmp_path) == "abc123"
    (git / "refs" / "heads" / "main").write_text("def456\n")
    assert run.git_rev(tmp_path) == "def456"
    (git / "HEAD").write_text("0123abcd\n")
    assert run.git_rev(tmp_path) == "0123abcd"



def test_benchmark_json_names_exactly_the_printed_per_layer_metrics():
    import json

    from layers import PER_LAYER_UNITS

    doc = json.loads((RUN_PY.parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER_UNITS
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
