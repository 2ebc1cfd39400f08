"""Netpriv grid/sweep machinery, its frontier report, and the CLI."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.fleet import (
    FAULTS_ENV,
    FaultPlan,
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
from repro.netpriv import DeviceType, LanConfig, evaluate_arms_race, simulate_lan
from repro.netpriv import adaptive


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
        default = netpriv_lan_config("default")
        assert sum(small.device_counts.values()) < sum(default.device_counts.values())
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
        [result] = run_netpriv_job(job).cells
        assert result.index == 4
        assert (result.defense, result.setting, result.seed) == ("jitter", 1.0, 2)
        assert result.outcome.n_devices == 9

    def test_same_seed_same_lan_population_across_cells(self):
        # within one grid seed, cells must attack identical LANs so the
        # frontier isolates the defense dial
        base = dict(seed=5, lan_index=0, days=1, lan="small")
        [a] = run_netpriv_job(
            NetprivJob(index=0, preset="a", defense="merge", setting=0.0, **base)
        ).cells
        [b] = run_netpriv_job(
            NetprivJob(index=1, preset="b", defense="jitter", setting=0.0, **base)
        ).cells
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


#: a four-device LAN: the multi-dial pin needs the sharing, not the size
TINY_LAN = LanConfig(
    device_counts={
        DeviceType.CAMERA: 1,
        DeviceType.SMART_PLUG: 1,
        DeviceType.LIGHT_BULB: 1,
        DeviceType.VOICE_ASSISTANT: 1,
    }
)

#: one dial of every shaper, and the unshaped anchor under two names
EVERY_SHAPER = (
    ("cover", 0.5),
    ("constant-rate", 0.5),
    ("merge", 0.5),
    ("jitter", 0.5),
    ("cover", 0.0),
    ("merge", 0.0),
)


class TestOneJobPerLan:
    """A job owes several dials of one (seed, LAN) and scores each one
    exactly as a job owing it alone would."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_multi_dial_call_equals_one_call_per_dial(self, seed):
        shared = dict(days=1, seed=seed, lan_config=TINY_LAN)
        together = evaluate_arms_race(EVERY_SHAPER, **shared)
        alone = [evaluate_arms_race([dial], **shared)[0] for dial in EVERY_SHAPER]
        assert together == alone
        assert [o.as_dict() for o in together] == [o.as_dict() for o in alone]

    def test_identity_dials_featurize_only_the_raw_logs(self, monkeypatch):
        calls = []
        featurize = adaptive.device_window_features

        def counted(log, *args, **kwargs):
            calls.append(log)
            return featurize(log, *args, **kwargs)

        monkeypatch.setattr(adaptive, "device_window_features", counted)
        dials = [("cover", 0.0), ("merge", 0.0), ("jitter", 0.0)]
        outcomes = evaluate_arms_race(dials, days=1, seed=0, lan_config=TINY_LAN)
        # the raw lab log (naive fit) and the raw victim log (test set),
        # not one pair of shaped logs per dial
        assert len(calls) == 2
        assert [o.defense for o in outcomes] == ["cover", "merge", "jitter"]
        assert all(replace(o, defense="cover") == outcomes[0] for o in outcomes)

    #: 2 seeds x 2 LANs: four (seed, LAN) groups of two cells each
    GRID = NetprivGrid(
        defenses=("cover",), settings=(0.0, 0.5), seeds=(0, 1), n_lans=2, days=1
    )
    RUNS = {
        "serial": dict(workers=1, backend="serial", telemetry=True),
        "1": dict(workers=1),
        "2": dict(workers=2),
        "3": dict(workers=3),
    }

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        out = {}
        for name, runner in self.RUNS.items():
            result = NetprivSweepRunner(**runner).run(self.GRID)
            path = tmp_path_factory.mktemp(f"netpriv-{name}")
            result.frontier().to_json(path / "frontier.json")
            result.frontier().to_csv(path / "frontier.csv")
            exports = [
                (path / export).read_bytes()
                for export in ("frontier.json", "frontier.csv")
            ]
            out[name] = (result, exports)
        return out

    @staticmethod
    def _rows(result):
        return [(r.index, r.preset, r.outcome) for r in result.results]

    def test_results_and_exports_independent_of_workers(self, runs):
        serial, serial_bytes = runs["serial"]
        jobs = self.GRID.jobs_for(self.GRID.cells())
        assert [(i, p) for i, p, _ in self._rows(serial)] == [
            (job.index, job.preset) for job in jobs
        ]
        for name in ("1", "2", "3"):
            result, exports = runs[name]
            assert result.ok
            assert self._rows(result) == self._rows(serial), name
            assert exports == serial_bytes, name

    def test_failed_job_fails_exactly_the_cells_it_owes(self, runs, monkeypatch):
        clean, _ = runs["serial"]
        jobs = self.GRID.jobs_for(self.GRID.cells())
        # cover@0.5 seed=0 lan=1, owed with cover@0 seed=0 lan=1 by one job
        poisoned = next(j for j in jobs if j.preset == "cover@0.5 seed=0 lan=1")
        monkeypatch.setenv(
            FAULTS_ENV, FaultPlan(kind="error", indices=(poisoned.index,)).to_json()
        )
        result = NetprivSweepRunner(workers=3, max_retries=0).run(self.GRID)
        lost = {"cover@0 seed=0 lan=1", "cover@0.5 seed=0 lan=1"}
        assert [f.preset for f in result.failures] == [
            job.preset for job in jobs if job.preset in lost
        ]
        assert {f.kind for f in result.failures} == {"error"}
        for failure, job in zip(result.failures, result.failed_jobs):
            assert (failure.index, failure.preset) == (job.index, job.preset)
        assert self._rows(result) == [
            row for row in self._rows(clean) if row[1] not in lost
        ]
        failed = {(p.setting, p.seed): p.n_failed for p in result.frontier().points}
        assert failed == {(0.0, 0): 1, (0.5, 0): 1, (0.0, 1): 0, (0.5, 1): 0}

    def test_telemetry_counts_each_lan_pair_once(self, runs):
        serial, _ = runs["serial"]
        telemetry = serial.telemetry
        assert serial.lan_jobs == 4
        assert telemetry.timers["stage.netpriv_job"].count == serial.lan_jobs
        flows = 0
        for seed in self.GRID.seeds:
            for lan_index in range(self.GRID.n_lans):
                spawned = np.random.SeedSequence(seed, spawn_key=(lan_index,))
                for stream in spawned.spawn(2):  # the lab, then the victim
                    lan = simulate_lan(
                        netpriv_lan_config(self.GRID.lan),
                        self.GRID.days,
                        np.random.default_rng(stream),
                    )
                    flows += len(lan.log)
        assert telemetry.counters["netpriv.flows"] == flows
        # each cell carries its own dial's share, not the LANs it shares
        for cell in serial.results:
            assert "netpriv.flows" not in cell.telemetry.counters
            assert cell.telemetry.timers["stage.shape"].count == 1


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

    def test_cli_counts_cell_lans_and_lan_jobs(self, capsys, monkeypatch):
        from repro.cli import main

        # one in-process job owes both cells; failing it fails both
        monkeypatch.setenv(FAULTS_ENV, FaultPlan(kind="error", indices=(1,)).to_json())
        rc = main([
            "netpriv", "--defenses", "cover", "--settings", "0,0.5",
            "--days", "1", "--max-retries", "0",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ran 2 cell-LAN(s) in 1 LAN job(s)" in out
        assert "WARNING: 2 cell-LAN(s) failed" in out
