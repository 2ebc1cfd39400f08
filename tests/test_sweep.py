"""Tests for the fleet knob-sweep engine (Sec. III-E at population scale).

The load-bearing guarantees:

* the cell order is canonical, so ``--shard i/n`` partitions the grid
  identically on every machine;
* a killed shard resumes through the fleet cache — re-running the full
  sweep over the same cache executes only the cells the shard skipped;
* the acceptance grid (3 defenses x 4 knob settings x 20 homes) produces
  a frontier whose attack MCC is non-increasing in the knob setting, per
  (defense, seed) series;
* frontier exports round-trip through CSV and JSON;
* sweep cells carry merged telemetry.
"""

import csv

import pytest

from repro.fleet import (
    FrontierReport,
    SweepCell,
    SweepError,
    SweepGrid,
    SweepRunner,
    load_grid,
    parse_shard,
    run_sweep,
    shard_cells,
)

# Small grid used by the plumbing tests: 2 defenses x 2 settings x 3 homes
SMALL = SweepGrid(
    defenses=("nill", "smoothing"),
    settings=(0.0, 1.0),
    n_homes=3,
    days=1,
    seeds=(0,),
    mix=("home-a", "home-b", "fig2"),
)


class TestGrid:
    def test_cell_order_is_canonical(self):
        cells = SMALL.cells()
        assert cells == [
            SweepCell("nill", 0.0, 0),
            SweepCell("nill", 1.0, 0),
            SweepCell("smoothing", 0.0, 0),
            SweepCell("smoothing", 1.0, 0),
        ]
        assert SMALL.n_cells == 4

    def test_settings_sorted_within_defense(self):
        grid = SweepGrid(
            defenses=("nill",), settings=(1.0, 0.0, 0.5), n_homes=1
        )
        assert [c.setting for c in grid.cells()] == [0.0, 0.5, 1.0]

    def test_cell_spec_carries_parametrized_defense(self):
        spec = SMALL.cell_spec(SweepCell("nill", 0.5, 7))
        assert spec.defenses == ("nill@0.5",)
        assert spec.seed == 7
        assert spec.n_homes == SMALL.n_homes

    def test_rejects_unmapped_defense(self):
        with pytest.raises(SweepError, match="no knob mapping"):
            SweepGrid(defenses=("zkp",), settings=(0.5,), n_homes=1)

    def test_rejects_out_of_range_setting(self):
        with pytest.raises(SweepError, match="outside"):
            SweepGrid(defenses=("nill",), settings=(1.5,), n_homes=1)

    def test_rejects_empty_axes(self):
        with pytest.raises(SweepError):
            SweepGrid(defenses=(), settings=(0.5,), n_homes=1)
        with pytest.raises(SweepError):
            SweepGrid(defenses=("nill",), settings=(), n_homes=1)
        with pytest.raises(SweepError):
            SweepGrid(defenses=("nill",), settings=(0.5,), n_homes=1, seeds=())

    def test_rejects_duplicates(self):
        with pytest.raises(SweepError, match="duplicate"):
            SweepGrid(defenses=("nill", "nill"), settings=(0.5,), n_homes=1)
        with pytest.raises(SweepError, match="duplicate"):
            SweepGrid(defenses=("nill",), settings=(0.5, 0.5), n_homes=1)

    def test_rejects_settings_sharing_a_label(self):
        # ``.6g`` rounds both to one ``nill@0.5`` cell: one cache key, one
        # dial, reported at two settings
        with pytest.raises(SweepError, match="0.5 and 0.5000001"):
            SweepGrid(
                defenses=("nill",), settings=(0.5, 0.5000001), n_homes=1,
                days=1, mix=("home-a",),
            )

    def test_rejects_bad_population(self):
        # population-shape errors surface at grid construction, not
        # mid-shard: FleetSpec validation runs once in __post_init__
        with pytest.raises(ValueError):
            SweepGrid(defenses=("nill",), settings=(0.5,), n_homes=0)
        with pytest.raises(ValueError):
            SweepGrid(
                defenses=("nill",), settings=(0.5,), n_homes=1,
                mix=("no-such-preset",),
            )


class TestSharding:
    def test_shards_partition_cells(self):
        cells = SMALL.cells()
        for n in (1, 2, 3, 4, 7):
            pieces = [shard_cells(cells, (i, n)) for i in range(1, n + 1)]
            merged = [c for piece in pieces for c in piece]
            assert sorted(merged, key=str) == sorted(cells, key=str)

    def test_round_robin_slicing(self):
        cells = SMALL.cells()
        assert shard_cells(cells, (1, 2)) == cells[0::2]
        assert shard_cells(cells, (2, 2)) == cells[1::2]

    def test_invalid_shards_rejected(self):
        for bad in ((0, 2), (3, 2), (1, 0), (-1, 2)):
            with pytest.raises(SweepError):
                shard_cells(SMALL.cells(), bad)

    def test_parse_shard(self):
        assert parse_shard("1/1") == (1, 1)
        assert parse_shard("3/8") == (3, 8)
        for bad in ("", "2", "0/2", "3/2", "a/b", "1/", "/2", "1/2/3"):
            with pytest.raises(SweepError):
                parse_shard(bad)


class TestResume:
    def test_killed_shard_resumes_via_cache(self, tmp_path):
        """A full re-run over a shard's cache only executes the rest.

        This is the resumability contract: shard 1/2 completes (stand-in
        for "the run was killed after some cells finished"), then the
        full sweep over the same cache_dir replays those homes from disk
        and executes only shard 2/2's jobs.
        """
        cache = tmp_path / "cache"
        first = run_sweep(SMALL, shard=(1, 2), cache_dir=cache)
        shard_jobs = sum(c.fleet.n_homes for c in first.cells)
        assert first.executed == shard_jobs

        full = run_sweep(SMALL, cache_dir=cache)
        total_jobs = SMALL.n_cells * SMALL.n_homes
        assert full.executed == total_jobs - shard_jobs
        assert full.n_cells == SMALL.n_cells

        # and a third pass is fully cached
        again = run_sweep(SMALL, cache_dir=cache)
        assert again.executed == 0

    def test_cached_and_fresh_frontiers_identical(self, tmp_path):
        cache = tmp_path / "cache"
        fresh = run_sweep(SMALL, cache_dir=cache).frontier()
        cached = run_sweep(SMALL, cache_dir=cache).frontier()
        assert fresh == cached

    def test_runner_reuse_accumulates_cache_stats(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path / "cache")
        runner.run(SMALL)
        runner.run(SMALL)
        stats = runner.runner.cache.stats
        assert stats.hits == SMALL.n_cells * SMALL.n_homes


class TestTelemetry:
    def test_cells_carry_merged_telemetry(self):
        result = run_sweep(SMALL, telemetry=True)
        timers = result.telemetry.timers
        # one home job per home: each is simulated (and its baseline
        # attacked) once, counted once, in the sweep's totals
        home_jobs = SMALL.n_homes * len(SMALL.seeds)
        assert timers["stage.job"].count == home_jobs
        assert timers["stage.simulate"].count == home_jobs
        # every cell carries the cost of its own defenses only...
        for cell_result in result.cells:
            own = cell_result.telemetry.timers
            assert "stage.simulate" not in own and "stage.job" not in own
            assert own["stage.defend"].count == SMALL.n_homes
            assert own["stage.attack"].count == SMALL.n_homes
        # ...and the cells' defend counts add up to the sweep's, which is
        # one per executed home-cell
        defended = sum(
            c.telemetry.timers["stage.defend"].count for c in result.cells
        )
        assert defended == timers["stage.defend"].count == result.executed
        assert result.executed == SMALL.n_cells * SMALL.n_homes
        # the baseline is attacked once per home job, beside the cells
        assert timers["stage.attack"].count == home_jobs + result.executed

    def test_telemetry_off_by_default(self):
        result = run_sweep(SMALL)
        assert result.telemetry is None


class TestGridFiles:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            'defenses = ["nill", "smoothing"]\n'
            "settings = [0.0, 1.0]\n"
            "n_homes = 3\n"
            "days = 1\n"
            "seeds = [0]\n"
            'mix = ["home-a", "home-b", "fig2"]\n'
        )
        assert load_grid(path) == SMALL

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "grid.json"
        import json

        path.write_text(json.dumps(SMALL.as_dict()))
        assert load_grid(path) == SMALL

    def test_bad_grid_files_rejected(self, tmp_path):
        cases = {
            "missing.toml": None,  # file does not exist
            "syntax.toml": "defenses = [",
            "syntax.json": "{",
            "unknown-key.toml": 'defenses = ["nill"]\nsettings = [0.5]\nfrobs = 3\n',
            "missing-keys.toml": 'n_homes = 3\n',
            "not-a-table.json": '[1, 2]',
            "bad-defense.toml": 'defenses = ["no-such"]\nsettings = [0.5]\n',
            "bad-ext.yaml": "defenses: [nill]\n",
        }
        # wrong value shapes: the error names the offending key and file
        shapes = {
            "scalar-axis.toml": ("settings", 'defenses = ["nill"]\nsettings = 0.5\n'),
            "string-axis.toml": ("defenses", 'defenses = "nill"\nsettings = [0.5]\n'),
            "list-homes.toml": (
                "n_homes", 'defenses = ["nill"]\nsettings = [0.5]\nn_homes = [3]\n'
            ),
            "null-seed.json": (
                "seeds", '{"defenses": ["nill"], "settings": [0.5], "seeds": [null]}'
            ),
            "bool-setting.toml": ("settings", 'defenses = ["nill"]\nsettings = [true]\n'),
            "bool-homes.json": (
                "n_homes", '{"defenses": ["nill"], "settings": [0.5], "n_homes": true}'
            ),
            "number-mix.toml": (
                "mix", 'defenses = ["nill"]\nsettings = [0.5]\nmix = [1]\n'
            ),
            "fractional-homes.toml": (
                "n_homes", 'defenses = ["nill"]\nsettings = [0.5]\nn_homes = 2.5\n'
            ),
            "fractional-days.json": (
                "days", '{"defenses": ["nill"], "settings": [0.5], "days": 1.5}'
            ),
        }
        for name, text in cases.items():
            path = tmp_path / name
            if text is not None:
                path.write_text(text)
            with pytest.raises(SweepError):
                load_grid(path)
        for name, (key, text) in shapes.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(SweepError, match=repr(key)) as info:
                load_grid(path)
            assert str(path) in str(info.value)


class TestFrontierExports:
    @pytest.fixture(scope="class")
    def frontier(self):
        return run_sweep(SMALL).frontier()

    def test_json_round_trip(self, frontier, tmp_path):
        path = tmp_path / "frontier.json"
        frontier.to_json(path)
        assert FrontierReport.from_json(path) == frontier

    def test_csv_round_trip(self, frontier, tmp_path):
        path = frontier.to_csv(tmp_path / "frontier.csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == FrontierReport.CSV_HEADER
        assert len(rows) == 1 + len(frontier.points)
        for row, point in zip(rows[1:], frontier.points):
            assert row[0] == point.defense
            assert float(row[1]) == point.setting
            assert float(row[5]) == pytest.approx(point.mcc.mean)
            assert float(row[13]) == pytest.approx(point.extra_kwh.mean)

    def test_table_covers_all_points(self, frontier):
        table = frontier.format_table()
        assert table.count("\n") == 1 + len(frontier.points)

    def test_monotone_tolerance_validated(self, frontier):
        with pytest.raises(ValueError):
            frontier.monotone_violations(-0.1)


class TestAcceptanceGrid:
    """The ISSUE's acceptance gate: >=3 defenses x >=4 settings x >=20 homes,
    frontier monotone (higher knob => attack MCC non-increasing)."""

    GRID = SweepGrid(
        defenses=("nill", "dp-laplace", "coarsening"),
        settings=(0.0, 0.33, 0.67, 1.0),
        n_homes=20,
        days=1,
        seeds=(0,),
        mix=("home-a", "home-b", "fig2", "random"),
    )

    @pytest.fixture(scope="class")
    def result(self):
        return run_sweep(self.GRID)

    def test_grid_meets_acceptance_shape(self):
        assert len(self.GRID.defenses) >= 3
        assert len(self.GRID.settings) >= 4
        assert self.GRID.n_homes >= 20

    def test_all_cells_succeed(self, result):
        assert result.ok
        assert result.n_cells == self.GRID.n_cells
        for cell_result in result.cells:
            assert cell_result.fleet.n_homes == self.GRID.n_homes

    def test_frontier_is_monotone(self, result):
        frontier = result.frontier()
        assert len(frontier.points) == self.GRID.n_cells
        assert frontier.monotone_violations(tolerance=0.05) == []

    def test_setting_zero_is_the_undefended_anchor(self, result):
        frontier = result.frontier()
        anchors = [p for p in frontier.points if p.setting == 0.0]
        assert len(anchors) == len(self.GRID.defenses)
        # all mechanisms share the identity anchor: same homes, no defense
        for point in anchors[1:]:
            assert point.mcc == anchors[0].mcc
        for point in anchors:
            assert point.distortion_w.max == 0.0
            assert point.extra_kwh.max == 0.0

    def test_full_knob_buys_privacy(self, result):
        """The dial's endpoints bracket the tradeoff, per mechanism."""
        frontier = result.frontier()
        by_defense: dict[str, dict[float, float]] = {}
        for p in frontier.points:
            by_defense.setdefault(p.defense, {})[p.setting] = p.mcc.mean
        for defense in ("nill", "dp-laplace"):
            series = by_defense[defense]
            assert series[1.0] < 0.65 * series[0.0]
