"""Netpriv grid/sweep machinery, its frontier report, and the CLI."""

import hashlib
import json

import numpy as np
import pytest

from repro.fleet import (
    NetprivFrontierPoint,
    NetprivFrontierReport,
    NetprivGrid,
    NetprivJobResult,
    NetprivSweepRunner,
    PopulationStats,
    SweepError,
    netpriv_lan_config,
    run_netpriv_job,
    shard_cells,
)
from repro.fleet.netpriv import NetprivJob


def _stats(value: float) -> PopulationStats:
    return PopulationStats.of([value])


def _point(defense: str, setting: float, adaptive_mcc: float, seed: int = 0):
    return NetprivFrontierPoint(
        defense=defense,
        setting=setting,
        seed=seed,
        n_lans=1,
        n_failed=0,
        naive_mcc=_stats(0.5),
        adaptive_mcc=_stats(adaptive_mcc),
        naive_fingerprint_acc=_stats(0.9),
        adaptive_fingerprint_acc=_stats(0.95),
        cover_mb_per_day=_stats(10.0),
        mean_added_delay_s=_stats(5.0),
    )


class TestNetprivGrid:
    def test_validation(self):
        with pytest.raises(SweepError):
            NetprivGrid(defenses=(), settings=(0.5,))
        with pytest.raises(SweepError):
            NetprivGrid(defenses=("cover",), settings=())
        with pytest.raises(SweepError):
            NetprivGrid(defenses=("nonsense",), settings=(0.5,))
        with pytest.raises(SweepError):
            NetprivGrid(defenses=("cover",), settings=(1.5,))
        with pytest.raises(SweepError):
            NetprivGrid(defenses=("cover", "cover"), settings=(0.5,))
        with pytest.raises(SweepError):
            NetprivGrid(defenses=("cover",), settings=(0.5,), n_lans=0)
        with pytest.raises(SweepError):
            NetprivGrid(defenses=("cover",), settings=(0.5,), lan="bogus")

    def test_cells_canonical_order(self):
        grid = NetprivGrid(
            defenses=("merge", "cover"), settings=(1.0, 0.0), seeds=(0, 1)
        )
        cells = grid.cells()
        assert [(c.defense, c.setting, c.seed) for c in cells] == [
            ("merge", 0.0, 0), ("merge", 0.0, 1),
            ("merge", 1.0, 0), ("merge", 1.0, 1),
            ("cover", 0.0, 0), ("cover", 0.0, 1),
            ("cover", 1.0, 0), ("cover", 1.0, 1),
        ]
        assert grid.n_cells == 8
        assert grid.n_jobs == 8

    def test_jobs_carry_grid_parameters(self):
        grid = NetprivGrid(
            defenses=("cover",), settings=(0.5,), n_lans=2, days=3, lan="small"
        )
        jobs = grid.jobs_for(grid.cells())
        assert len(jobs) == 2
        assert [j.index for j in jobs] == [0, 1]
        assert jobs[0].days == 3 and jobs[0].lan == "small"
        assert jobs[1].lan_index == 1
        assert "cover@0.5" in jobs[0].preset

    def test_shards_partition_cells(self):
        grid = NetprivGrid(defenses=("cover", "merge"), settings=(0.0, 0.5, 1.0))
        cells = grid.cells()
        parts = [shard_cells(cells, (i, 3)) for i in (1, 2, 3)]
        rejoined = [c for part in parts for c in part]
        assert sorted(rejoined, key=str) == sorted(cells, key=str)

    def test_lan_config_registry(self):
        small = netpriv_lan_config("small")
        assert small.total_devices() < netpriv_lan_config("default").total_devices()
        # factories, not shared instances
        assert netpriv_lan_config("small") is not small
        with pytest.raises(SweepError):
            netpriv_lan_config("bogus")


class TestRunNetprivJob:
    def test_job_result_addresses_its_cell(self):
        job = NetprivJob(
            index=4, preset="jitter@1 seed=2 lan=0", defense="jitter",
            setting=1.0, seed=2, lan_index=0, days=1, lan="small",
        )
        result = run_netpriv_job(job)
        assert result.index == 4
        assert (result.defense, result.setting, result.seed) == ("jitter", 1.0, 2)
        assert result.outcome.n_devices == 9

    def test_same_seed_same_lan_population_across_cells(self):
        # within one grid seed, cells must attack identical LANs so the
        # frontier isolates the defense dial
        base = dict(seed=5, lan_index=0, days=1, lan="small")
        a = run_netpriv_job(
            NetprivJob(index=0, preset="a", defense="merge", setting=0.0, **base)
        )
        b = run_netpriv_job(
            NetprivJob(index=1, preset="b", defense="jitter", setting=0.0, **base)
        )
        # setting 0 is the identity shaper for every defense: same seed
        # stream + same LAN -> byte-identical shaped victim logs
        assert a.outcome.shaped_digest == b.outcome.shaped_digest


class TestNetprivFrontierReport:
    def test_monotone_violation_detection(self):
        ok = NetprivFrontierReport(
            points=(
                _point("cover", 0.0, 0.8),
                _point("cover", 0.5, 0.5),
                _point("cover", 1.0, 0.52),  # within tolerance of running min
            )
        )
        assert ok.monotone_violations(tolerance=0.05) == []
        bad = NetprivFrontierReport(
            points=(_point("cover", 0.0, 0.3), _point("cover", 1.0, 0.8))
        )
        violations = bad.monotone_violations(tolerance=0.05)
        assert len(violations) == 1
        assert "cover@1" in violations[0]
        with pytest.raises(ValueError):
            ok.monotone_violations(tolerance=-1.0)

    def test_series_tracked_per_defense_and_seed(self):
        report = NetprivFrontierReport(
            points=(
                _point("cover", 0.0, 0.2, seed=0),
                _point("cover", 1.0, 0.8, seed=1),  # different seed: own series
            )
        )
        assert report.monotone_violations() == []

    def test_json_roundtrip(self, tmp_path):
        report = NetprivFrontierReport(
            points=(_point("cover", 0.0, 0.8), _point("cover", 1.0, 0.1))
        )
        path = tmp_path / "frontier.json"
        report.to_json(path)
        assert NetprivFrontierReport.from_json(path) == report

    def test_csv_export(self, tmp_path):
        report = NetprivFrontierReport(points=(_point("merge", 0.5, 0.4),))
        path = report.to_csv(tmp_path / "frontier.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["defense", "setting", "seed"]
        assert len(lines) == 2
        assert lines[1].startswith("merge,0.5,0,1,0")

    def test_format_table_lists_every_point(self):
        report = NetprivFrontierReport(
            points=(_point("cover", 0.0, 0.8), _point("jitter", 1.0, 0.7))
        )
        table = report.format_table()
        assert "cover" in table and "jitter" in table
        assert "adapt" in table.splitlines()[0]


#: sha256 of the bytes ``to_json(path)`` / ``to_csv(path)`` write for the
#: frontier of the ``cover`` x (0.0, 0.5) grid below
SERIAL_FRONTIER_JSON = (
    "59997b7edf1868a026218ea29e236518aed02a689cbc42106d31aa9fb89e5d6b"
)
SERIAL_FRONTIER_CSV = (
    "7997311eac5a404ae62f143b338ed4891e7ab1835ca85ea18c66f50abb05c672"
)


class TestNetprivSweep:
    def test_serial_sweep_end_to_end(self, tmp_path):
        grid = NetprivGrid(
            defenses=("cover",), settings=(0.0, 0.5), seeds=(0,), days=1
        )
        result = NetprivSweepRunner(workers=1).run(grid)
        assert result.ok
        assert len(result.results) == 2
        frontier = result.frontier()
        assert len(frontier.points) == 2
        # setting 0 is the unshaped anchor: naive attacker healthy there,
        # suppressed by cover at the dialed point; adaptive survives both
        by_setting = {p.setting: p for p in frontier.points}
        assert by_setting[0.0].naive_mcc.mean > by_setting[0.5].naive_mcc.mean
        assert by_setting[0.5].adaptive_advantage > 0.2
        frontier.to_json(tmp_path / "frontier.json")
        frontier.to_csv(tmp_path / "frontier.csv")
        digests = [
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("frontier.json", "frontier.csv")
        ]
        assert digests == [SERIAL_FRONTIER_JSON, SERIAL_FRONTIER_CSV]

    def test_failures_reported_not_raised(self, monkeypatch):
        import repro.fleet.netpriv as fn

        def boom(job):
            raise RuntimeError("lan exploded")

        grid = NetprivGrid(defenses=("jitter",), settings=(0.5,), days=1)
        runner = NetprivSweepRunner(workers=1, max_retries=0)
        jobs = grid.jobs_for(grid.cells())
        batch = runner.runner.run_jobs(jobs, boom)
        assert not batch.results
        assert len(batch.failures) == 1
        assert batch.failures[0].kind == "error"
        report = NetprivFrontierReport.from_results([], batch.failed_jobs)
        assert report.points == ()


class TestNetprivCli:
    def test_cli_smoke(self, tmp_path, capsys):
        from repro.cli import main

        csv = tmp_path / "frontier.csv"
        doc = tmp_path / "frontier.json"
        rc = main([
            "netpriv", "--defenses", "cover", "--settings", "0,0.5",
            "--days", "1", "--check-monotone", "--tolerance", "0.2",
            "--csv", str(csv), "--json", str(doc),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "frontier monotonicity: ok" in out
        assert csv.exists()
        payload = json.loads(doc.read_text())
        assert len(payload["points"]) == 2

    def test_cli_rejects_bad_grid(self, capsys):
        from repro.cli import main

        assert main(["netpriv", "--defenses", "bogus"]) == 2
        assert "netpriv:" in capsys.readouterr().err

    def test_cli_rejects_bad_shard(self, capsys):
        from repro.cli import main

        assert main(["netpriv", "--shard", "5/2"]) == 2
