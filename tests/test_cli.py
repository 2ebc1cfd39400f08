"""Tests for the command-line interface."""

import json
import re

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import load_trace_csv, save_trace_csv
from repro.timeseries import PowerTrace


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "nill" in out
        assert "threshold-15m" in out

    def test_simulate_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        assert main(["simulate", "--home", "home-a", "--days", "1",
                     "--seed", "3", "--out", str(out_path)]) == 0
        trace = load_trace_csv(out_path)
        assert len(trace) == 1440
        assert trace.period_s == pytest.approx(60.0)

    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--days", "1", "--seed", "9", "--out", str(a)])
        main(["simulate", "--days", "1", "--seed", "9", "--out", str(b)])
        assert np.allclose(load_trace_csv(a).values, load_trace_csv(b).values)

    def test_attack_reports_ensemble(self, capsys):
        assert main(["attack", "--home", "home-a", "--days", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "worst case" in out
        assert "threshold-15m" in out

    def test_attack_takes_no_trace(self, tmp_path):
        # the report is an MCC against ground truth, which a CSV lacks
        path = tmp_path / "x.csv"
        save_trace_csv(PowerTrace(np.full(1440, 300.0), 60.0), path)
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--trace", str(path)])
        assert exc.value.code == 2

    def test_defend_reports_tradeoff(self, capsys):
        assert main(["defend", "dp-laplace", "--home", "home-a",
                     "--days", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "attack mcc" in out
        assert "utility" in out

    def test_knob_sweep(self, capsys):
        assert main(["knob", "--days", "4", "--seed", "2", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 4  # header + 3 settings

    def test_knob_reports_all_columns(self, capsys):
        assert main(["knob", "--days", "2", "--seed", "5", "--steps", "2"]) == 0
        header, first, *_ = capsys.readouterr().out.splitlines()
        for column in ("knob", "attack_mcc", "utility", "extra_kwh"):
            assert column in header
        # one numeric row per setting, starting at the open dial
        assert float(first.split()[0]) == 0.0

    def test_knob_deterministic(self, capsys):
        assert main(["knob", "--days", "2", "--seed", "3", "--steps", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["knob", "--days", "2", "--seed", "3", "--steps", "2"]) == 0
        assert capsys.readouterr().out == first

    def test_info_lists_knob_mappings(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "knob mappings" in out
        assert "name@setting" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


SWEEP_ARGS = [
    "sweep", "--defenses", "nill,smoothing", "--settings", "0,1",
    "--homes", "2", "--days", "1", "--mix", "home-a,home-b",
]


class TestSupervisedPreflight:
    """Bad supervisor and gate flags, and malformed fault plans, exit 2
    before any job runs."""

    @pytest.fixture(autouse=True)
    def no_jobs(self, monkeypatch):
        from repro.fleet import FleetRunner

        def refuse(*_args, **_kwargs):
            pytest.fail("a job ran")

        monkeypatch.setattr(FleetRunner, "run_jobs", refuse)

    @pytest.mark.parametrize("argv,flag", [
        (["sweep", "--defenses", "nill", "--settings", "0,1", "--homes", "1",
          "--days", "1", "--mix", "home-a", "--tolerance", "-0.1"],
         "--tolerance"),
        (["netpriv", "--defenses", "cover", "--settings", "0,0.5",
          "--days", "1", "--tolerance", "-0.1"], "--tolerance"),
        (["fleet", "--homes", "1", "--days", "1", "--max-retries", "-1"],
         "--max-retries"),
        (["sweep", "--defenses", "nill", "--homes", "1", "--job-timeout", "0"],
         "--job-timeout"),
        (["netpriv", "--defenses", "cover", "--max-retries", "-2"],
         "--max-retries"),
        (["stream", "--homes", "1", "--job-timeout", "-5"], "--job-timeout"),
        (["sweep", "--defenses", "nill", "--homes", "1", "--check-monotone",
          "--tolerance", "nan"], "--tolerance"),
    ])
    def test_bad_flag_exits_2(self, argv, flag, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and flag in err[0]

    @pytest.mark.parametrize("env,doc,argv", [
        ("REPRO_FLEET_FAULTS", '{"kind": "error", "indicies": [1]}',
         ["fleet", "--homes", "1", "--days", "1"]),
        ("REPRO_FLEET_FAULTS", "{}", ["sweep", "--defenses", "nill"]),
        ("REPRO_STREAM_FAULTS", '{"seed": null}',
         ["stream", "--home", "home-a", "--days", "1"]),
        ("REPRO_STREAM_FAULTS", "[]", ["netpriv", "--defenses", "cover"]),
    ])
    def test_malformed_fault_plan_exits_2(self, env, doc, argv, monkeypatch,
                                          capsys):
        monkeypatch.setenv(env, doc)
        assert main(argv) == 2
        assert env in capsys.readouterr().err


class TestInputRefusal:
    """A bad population, day count or defense name exits 2 with one
    stderr line, before anything is simulated or any job runs."""

    @pytest.fixture(autouse=True)
    def nothing_runs(self, monkeypatch):
        from repro.fleet import FleetRunner

        def refuse(*_args, **_kwargs):
            pytest.fail("the command ran before refusing")

        monkeypatch.setattr(FleetRunner, "run_jobs", refuse)
        monkeypatch.setattr("repro.home.simulate_home", refuse)
        monkeypatch.setattr("repro.solar.simulate_generation", refuse)

    @pytest.mark.parametrize("argv", [
        ["fleet", "--homes", "0", "--days", "1"],
        ["fleet", "--homes", "1", "--days", "0"],
        ["fleet", "--homes", "1", "--days", "1", "--mix", "nosuch"],
        ["fleet", "--homes", "1", "--days", "1", "--defenses", "nosuch"],
        ["stream", "--homes", "2", "--days", "1", "--mix", "nosuch"],
        ["simulate", "--days", "0"],
        ["attack", "--days", "0"],
        ["knob", "--days", "0"],
        ["localize", "--days", "0"],
        ["stream", "--home", "home-a", "--days", "0"],
        ["defend", "nosuch"],
        ["stream", "--trace", "{missing}"],
        ["localize", "--trace", "{missing}"],
        ["stream", "--trace", "{malformed}"],
        ["localize", "--trace", "{malformed}"],
        ["knob", "--steps", "0", "--days", "1"],
        ["knob", "--steps", "-3", "--days", "1"],
        ["localize", "--trace", "{tiny}"],
        ["localize", "--trace", "{tiny}", "--method", "sunspot"],
        ["localize", "--trace", "{tiny}", "--method", "both"],
        ["localize", "--trace", "{coarse}"],
        ["localize", "--days", "5"],
        ["localize", "--days", "30", "--method", "sunspot"],
    ], ids=[
        "fleet-homes", "fleet-days", "fleet-mix", "fleet-defenses",
        "stream-fleet-mix", "simulate-days", "attack-days", "knob-days",
        "localize-days", "stream-days", "defend-unknown",
        "stream-trace-missing", "localize-trace-missing",
        "stream-trace-malformed", "localize-trace-malformed",
        "knob-steps-0", "knob-steps-negative",
        "localize-trace-short-weatherman", "localize-trace-short-sunspot",
        "localize-trace-short-both", "localize-trace-coarse-weatherman",
        "localize-days-short-weatherman", "localize-days-short-sunspot",
    ])
    def test_bad_input_exits_2(self, argv, tmp_path, capsys):
        malformed = tmp_path / "malformed.csv"
        malformed.write_text("time_s,power_w\n0,100\n60,x\n")
        # well-formed, but three minutes long
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("time_s,power_w\n0,100\n60,200\n120,150\n")
        # twelve days at a 2-hour period: Weatherman cannot make it hourly
        coarse = tmp_path / "coarse.csv"
        coarse.write_text("time_s,power_w\n" + "".join(
            f"{i * 7200},{100 * (i % 12)}\n" for i in range(12 * 12)
        ))
        paths = {
            "missing": tmp_path / "missing.csv",
            "malformed": malformed,
            "tiny": tiny,
            "coarse": coarse,
        }
        argv = [arg.format_map(paths) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1


class TestSweepCLI:
    def test_inline_grid_runs(self, capsys):
        assert main(SWEEP_ARGS) == 0
        out = capsys.readouterr().out
        assert "shard 1/1 runs 4/4 cells" in out
        assert "nill" in out and "smoothing" in out
        assert "ran 8/8 home-cells" in out

    def test_grid_file_runs(self, tmp_path, capsys):
        grid = tmp_path / "grid.toml"
        grid.write_text(
            'defenses = ["nill"]\nsettings = [0.0, 1.0]\n'
            'n_homes = 2\ndays = 1\nmix = ["home-a"]\n'
        )
        assert main(["sweep", "--grid", str(grid)]) == 0
        assert "2/2 cells" in capsys.readouterr().out

    def test_csv_json_round_trip(self, tmp_path, capsys):
        from repro.fleet import FrontierReport

        csv_path = tmp_path / "frontier.csv"
        json_path = tmp_path / "frontier.json"
        assert main(SWEEP_ARGS + ["--csv", str(csv_path),
                                  "--json", str(json_path)]) == 0
        report = FrontierReport.from_json(json_path)
        assert len(report.points) == 4
        lines = csv_path.read_text().splitlines()
        assert tuple(lines[0].split(",")) == FrontierReport.CSV_HEADER
        assert len(lines) == 1 + len(report.points)
        # CSV rows carry the same means the JSON round-tripped
        for line, point in zip(lines[1:], report.points):
            cells = line.split(",")
            assert cells[0] == point.defense
            assert float(cells[5]) == pytest.approx(point.mcc.mean)

    def test_telemetry_output(self, tmp_path, capsys):
        tel = tmp_path / "tel.json"
        assert main(SWEEP_ARGS + ["--telemetry", str(tel)]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        import json

        doc = json.loads(tel.read_text())
        assert "stage.job" in doc["timers"]

    def test_shard_validation(self, capsys):
        for bad in ("0/2", "3/2", "x/y", "2"):
            assert main(SWEEP_ARGS + ["--shard", bad]) == 2
            assert "shard" in capsys.readouterr().err

    def test_shards_split_cells(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(SWEEP_ARGS + ["--shard", "1/2", "--cache-dir", cache]) == 0
        assert "shard 1/2 runs 2/4 cells" in capsys.readouterr().out
        # the other shard plus the cache completes the grid
        assert main(SWEEP_ARGS + ["--cache-dir", cache]) == 0
        assert "ran 4/8 home-cells (4 cached)" in capsys.readouterr().out

    def test_bad_grid_file_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.toml"
        grid.write_text('defenses = ["nill"]\nsettings = [0.5]\nfrobs = 1\n')
        assert main(["sweep", "--grid", str(grid)]) == 2
        assert "unknown grid keys" in capsys.readouterr().err

    def test_malformed_grid_value_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.toml"
        grid.write_text('defenses = ["nill"]\nsettings = 0.5\n')
        assert main(["sweep", "--grid", str(grid)]) == 2
        err = capsys.readouterr().err
        assert "'settings'" in err and str(grid) in err

    def test_failed_home_counts(self, monkeypatch, capsys):
        """A failed home is neither cached nor a job per cell it owed."""
        from repro.fleet import FAULTS_ENV, FaultPlan

        monkeypatch.setenv(
            FAULTS_ENV, FaultPlan(kind="error", indices=(1,)).to_json()
        )
        assert main([
            "sweep", "--defenses", "nill", "--settings", "0,0.5,1",
            "--homes", "2", "--days", "1", "--mix", "home-a,home-b",
            "--max-retries", "0",
        ]) == 1
        out = capsys.readouterr().out
        cell_lines = [line for line in out.splitlines() if "  cell " in line]
        assert len(cell_lines) == 3
        for line in cell_lines:
            assert "1 homes (0 cached)  [1 FAILED]" in line
        assert "ran 6/6 home-cells (0 cached)" in out
        assert "WARNING: 3 home-cell(s) failed" in out

    def test_missing_grid_source_exits_2(self, capsys):
        assert main(["sweep"]) == 2
        assert "--grid FILE or --defenses" in capsys.readouterr().err

    def test_grid_and_inline_flags_conflict(self, tmp_path, capsys):
        grid = tmp_path / "grid.toml"
        grid.write_text('defenses = ["nill"]\nsettings = [0.5]\n')
        assert main(["sweep", "--grid", str(grid),
                     "--defenses", "nill"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unmapped_defense_exits_2(self, capsys):
        assert main(["sweep", "--defenses", "no-such", "--homes", "1"]) == 2
        assert "no knob mapping" in capsys.readouterr().err

    def test_bad_setting_exits_2(self, capsys):
        assert main(["sweep", "--defenses", "nill", "--settings", "0,2",
                     "--homes", "1"]) == 2
        assert "outside" in capsys.readouterr().err

    def test_check_monotone_passes_on_sane_grid(self, capsys):
        assert main(SWEEP_ARGS + ["--check-monotone"]) == 0
        assert "frontier monotonicity: ok" in capsys.readouterr().out


class TestExportDirectories:
    """An export into a missing directory creates it and writes the bytes
    the same export writes into an existing one."""

    ONE_HOME = ["--homes", "1", "--days", "1", "--mix", "home-a"]

    @pytest.fixture(scope="class")
    def claims_argv(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("claims")
        frontier = work / "frontier.json"
        assert main(["sweep", "--defenses", "nill", "--settings", "0,1",
                     *self.ONE_HOME, "--json", str(frontier)]) == 0
        claims = work / "claims.json"
        claims.write_text(json.dumps({"title": "t", "claims": [
            {"id": "ok", "metric": "mcc.mean", "op": "<=", "bound": 1.0},
        ]}))
        return ["claims", "--claims", str(claims),
                "--artifact", str(frontier)]

    @pytest.mark.parametrize("command,flag", [
        ("sweep", "--csv"), ("sweep", "--json"),
        ("fleet", "--csv"), ("fleet", "--json"),
        ("claims", "--md"), ("claims", "--json"),
    ])
    def test_export_creates_missing_directory(
        self, command, flag, claims_argv, tmp_path, capsys
    ):
        argv = {
            "sweep": ["sweep", "--defenses", "nill", "--settings", "0,1",
                      *self.ONE_HOME],
            "fleet": ["fleet", *self.ONE_HOME, "--defenses", "nill"],
            "claims": claims_argv,
        }[command]

        def export(path):
            assert main(argv + [flag, str(path)]) == 0
            # a fleet report records its own wall time
            return re.sub(rb'"elapsed_s": [^,\n]+', b"", path.read_bytes())

        assert export(tmp_path / "new" / "dir" / "out") == export(
            tmp_path / "out"
        )
