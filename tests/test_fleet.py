"""Tests for the fleet subsystem: seeding, determinism, caching, reports.

The load-bearing guarantees:

* per-home seeding is a pure function of (fleet seed, home index), so any
  home is reproducible in isolation;
* fleet results are bitwise-identical across worker counts and executor
  backends (the determinism the cache and any future sharding rely on);
* the on-disk cache round-trips results exactly and only recomputes
  changed cells.

The CI fast job re-runs this file with ``REPRO_FLEET_WORKERS`` set to 1
and 2 to catch pickling regressions early.
"""

import os
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from repro.fleet import (
    BACKENDS,
    DEFAULT_BACKEND,
    FleetReport,
    FleetRunner,
    FleetSpec,
    NetprivSweepRunner,
    SweepRunner,
    job_cache_key,
    resolve_backend,
    run_fleet,
    run_home_job,
)
from repro.fleet.spec import _home_seed
from repro.home import config_fingerprint, home_a, home_b
from tests.conftest import FLEET_SPEC as SPEC

# the CI fast job overrides the non-serial worker count to exercise
# pickling under different pool widths
_EXTRA_WORKERS = int(os.environ.get("REPRO_FLEET_WORKERS", "2"))
WORKER_COUNTS = sorted({1, _EXTRA_WORKERS})


@pytest.fixture(scope="module")
def serial_result(fleet_serial_result):
    return fleet_serial_result


class TestSeeding:
    def test_isolated_job_matches_spawned_job(self):
        jobs = SPEC.jobs()
        for i in range(SPEC.n_homes):
            solo = SPEC.job(i)
            assert job_cache_key(solo) == job_cache_key(jobs[i])
            assert solo.fingerprint == jobs[i].fingerprint

    def test_home_seed_equals_seedsequence_spawn(self):
        children = np.random.SeedSequence(123).spawn(4)
        for i, child in enumerate(children):
            iso = _home_seed(123, i)
            assert iso.entropy == child.entropy
            assert iso.spawn_key == child.spawn_key

    def test_homes_get_distinct_streams(self):
        keys = {job_cache_key(job) for job in SPEC.jobs()}
        assert len(keys) == SPEC.n_homes

    def test_mix_cycles_presets(self):
        presets = [job.preset for job in SPEC.jobs()]
        assert presets == ["random", "home-a", "random", "home-a", "random"]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FleetSpec(n_homes=0)
        with pytest.raises(ValueError):
            FleetSpec(n_homes=1, days=0)
        with pytest.raises(ValueError):
            FleetSpec(n_homes=1, mix=("no-such-preset",))
        with pytest.raises(ValueError):
            FleetSpec(n_homes=1, mix=())
        with pytest.raises(IndexError):
            FleetSpec(n_homes=2).job(2)

    @pytest.mark.parametrize(
        "name", ["nosuch", "nosuch@0", "nosuch@0.5", "nill@2", "nill@x"]
    )
    def test_unknown_defense_refused_before_dispatch(self, name, monkeypatch):
        def refuse(*_args, **_kwargs):
            pytest.fail("a job ran")

        monkeypatch.setattr(FleetRunner, "run_jobs", refuse)
        with pytest.raises(ValueError):
            run_fleet(FleetSpec(n_homes=1, days=1, defenses=("nill", name)))

    def test_fingerprint_distinguishes_configs(self):
        assert config_fingerprint(home_a()) != config_fingerprint(home_b())
        assert config_fingerprint(home_a()) == config_fingerprint(home_a())


class TestDeterminism:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bitwise_identical_across_workers(self, serial_result, workers):
        result = run_fleet(SPEC, workers=workers)
        # byte-identical per-home metered traces...
        assert [h.trace_digest for h in result.homes] == [
            h.trace_digest for h in serial_result.homes
        ]
        # ...and exactly equal population reports (floats compared ==)
        assert FleetReport.from_result(result).comparable(
            FleetReport.from_result(serial_result)
        )

    def test_same_spec_same_traces(self, serial_result):
        again = run_fleet(SPEC, workers=1)
        assert [h.trace_digest for h in again.homes] == [
            h.trace_digest for h in serial_result.homes
        ]

    def test_different_seed_different_traces(self, serial_result):
        other = run_fleet(
            FleetSpec(
                n_homes=SPEC.n_homes,
                days=SPEC.days,
                seed=SPEC.seed + 1,
                mix=SPEC.mix,
                defenses=SPEC.defenses,
            ),
            workers=1,
        )
        assert [h.trace_digest for h in other.homes] != [
            h.trace_digest for h in serial_result.homes
        ]

    def test_job_is_picklable_and_stable(self, serial_result):
        job = SPEC.job(0)
        clone = pickle.loads(pickle.dumps(job))
        [home] = run_home_job(clone).cells
        assert home.trace_digest == serial_result.homes[0].trace_digest

    @pytest.mark.parametrize("backend", ["serial"])
    def test_bitwise_identical_across_backends(self, serial_result, backend):
        """The executor-backend parity pin for the determinism fleet.

        The backend runs with ``workers > 1`` *and* telemetry enabled, so
        one assertion covers both backend-invariance and telemetry-
        invariance of every home digest and scored number.  (The
        ``process`` backend is the workers matrix above.)
        """
        result = run_fleet(
            SPEC, workers=_EXTRA_WORKERS, backend=backend, telemetry=True
        )
        assert result.ok
        assert [h.trace_digest for h in result.homes] == [
            h.trace_digest for h in serial_result.homes
        ]
        assert FleetReport.from_result(result).comparable(
            FleetReport.from_result(serial_result)
        )
        assert result.telemetry.counters.get(f"fleet.backend.{backend}") == 1


class TestCache:
    def test_round_trip_hits_and_equal_report(self, tmp_path, serial_result):
        cache_dir = tmp_path / "cache"
        first = run_fleet(SPEC, workers=1, cache_dir=cache_dir)
        assert first.cache_stats.hits == 0
        assert first.cache_stats.stores == SPEC.n_homes
        assert first.executed == SPEC.n_homes

        second = run_fleet(SPEC, workers=1, cache_dir=cache_dir)
        assert second.cache_stats.hit_rate == 1.0
        assert second.executed == 0
        assert all(h.from_cache for h in second.homes)
        assert FleetReport.from_result(second).comparable(
            FleetReport.from_result(first)
        )
        # cached results also match the uncached ground truth exactly
        assert FleetReport.from_result(second).comparable(
            FleetReport.from_result(serial_result)
        )

    def test_key_sensitive_to_everything_that_matters(self):
        base = SPEC.job(0)
        variants = [
            FleetSpec(n_homes=5, days=2, seed=123, mix=SPEC.mix,
                      defenses=SPEC.defenses).job(0),          # days
            FleetSpec(n_homes=5, days=1, seed=124, mix=SPEC.mix,
                      defenses=SPEC.defenses).job(0),          # seed
            FleetSpec(n_homes=5, days=1, seed=123, mix=SPEC.mix,
                      defenses=("nill",)).job(0),              # defense set
            FleetSpec(n_homes=5, days=1, seed=123, mix=SPEC.mix,
                      defenses=SPEC.defenses,
                      detectors=("hmm",)).job(0),              # detector set
            FleetSpec(n_homes=5, days=1, seed=123, mix=("home-b",),
                      defenses=SPEC.defenses).job(0),          # config
        ]
        base_key = job_cache_key(base)
        assert all(job_cache_key(v) != base_key for v in variants)

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_fleet(SPEC, workers=1, cache_dir=cache_dir)
        victim = next(cache_dir.glob("*/*.pkl"))
        victim.write_bytes(b"not a pickle")
        result = run_fleet(SPEC, workers=1, cache_dir=cache_dir)
        assert result.cache_stats.misses == 1
        assert result.cache_stats.hits == SPEC.n_homes - 1
        assert result.executed == 1

    def test_widening_fleet_only_pays_for_new_homes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_fleet(SPEC, workers=1, cache_dir=cache_dir)
        wider = FleetSpec(
            n_homes=SPEC.n_homes + 2,
            days=SPEC.days,
            seed=SPEC.seed,
            mix=SPEC.mix,
            defenses=SPEC.defenses,
        )
        result = run_fleet(wider, workers=1, cache_dir=cache_dir)
        assert result.cache_stats.hits == SPEC.n_homes
        assert result.executed == 2


class TestReportAndRunner:
    def test_report_shape(self, serial_result):
        report = FleetReport.from_result(serial_result)
        assert set(report.distributions) == {"baseline", "dp-laplace", "smoothing"}
        baseline = report.distributions["baseline"]
        assert baseline.worst_case_mcc.p10 <= baseline.worst_case_mcc.median
        assert baseline.worst_case_mcc.median <= baseline.worst_case_mcc.p90
        assert baseline.worst_case_mcc.min <= baseline.worst_case_mcc.max
        assert report.n_homes == SPEC.n_homes
        table = report.format_table()
        assert "dp-laplace" in table and "baseline" in table

    def test_report_exports(self, tmp_path, serial_result):
        import csv
        import json

        report = FleetReport.from_result(serial_result)
        csv_path = tmp_path / "report.csv"
        report.to_csv(csv_path)
        with csv_path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "defense"
        assert len(rows) == 1 + len(report.distributions)

        doc = json.loads(report.to_json(tmp_path / "report.json"))
        assert doc["n_homes"] == SPEC.n_homes
        assert {d["defense"] for d in doc["defenses"]} == set(report.distributions)

    def test_runner_validation(self):
        # the retired shmem/batched backends are refused like any typo
        for name in ("shmem", "batched"):
            with pytest.raises(ValueError, match="unknown backend"):
                FleetRunner(backend=name)

    def test_all_defenses_by_default(self):
        from repro.core import defense_names

        spec = FleetSpec(n_homes=1, days=1, seed=0)
        assert spec.resolved_defenses() == tuple(defense_names())


@dataclass(frozen=True)
class ToyJob:
    """A supervised job whose ``index`` repeats, as a sweep's seeds do."""

    index: int
    preset: str
    fail: bool = False
    attempt: int = 0


def toy_work(job: ToyJob) -> str:
    if job.fail:
        raise RuntimeError(f"{job.preset} failed")
    return job.preset


class TestRunJobs:
    #: (index, preset) pairs of two seeds' homes: index 0 appears twice
    JOBS = [ToyJob(0, "seed0"), ToyJob(0, "seed1"), ToyJob(1, "seed0")]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_repeated_indices_keep_every_result(self, workers):
        seen = []
        batch = FleetRunner(workers).run_jobs(
            self.JOBS, toy_work, on_result=lambda job, r: seen.append((job, r))
        )
        assert batch.ok
        assert batch.results == ["seed0", "seed1", "seed0"]
        assert sorted(seen, key=lambda pair: self.JOBS.index(pair[0])) == [
            (job, job.preset) for job in self.JOBS
        ]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_failure_routed_to_its_own_job(self, workers):
        jobs = list(self.JOBS)
        jobs[1] = ToyJob(0, "seed1", fail=True)
        batch = FleetRunner(
            workers, max_retries=0, retry_backoff_s=0.0
        ).run_jobs(jobs, toy_work)
        assert batch.results == ["seed0", "seed0"]
        assert batch.failed_jobs == (jobs[1],)
        assert [(f.index, f.preset) for f in batch.failures] == [(0, "seed1")]
        assert not batch.ok


class TestBackendAxis:
    def test_axis_is_pinned(self):
        assert BACKENDS == ("serial", "process")
        assert DEFAULT_BACKEND == "process"

    def test_resolve_accepts_every_backend(self):
        for name in BACKENDS:
            assert resolve_backend(name) == name

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("thread")

    def test_runner_validates_backend(self):
        # all three runners take the same backend= keyword and check it
        # when they are built
        for make in (FleetRunner, SweepRunner, NetprivSweepRunner):
            for name in BACKENDS:
                runner = make(backend=name)
                assert getattr(runner, "runner", runner).backend == name
            with pytest.raises(ValueError, match="unknown backend"):
                make(backend="bogus")


class TestCLIFleet:
    def test_cli_fleet_reports_and_caches(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        args = [
            "fleet", "--homes", "3", "--days", "1", "--seed", "5",
            "--workers", "1", "--defenses", "dp-laplace",
            "--cache-dir", str(cache_dir),
            "--csv", str(tmp_path / "r.csv"), "--json", str(tmp_path / "r.json"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "3 homes x 1 days" in out
        assert "dp-laplace" in out
        assert (tmp_path / "r.csv").exists()
        assert (tmp_path / "r.json").exists()

        assert main(args[: -4]) == 0  # re-run without exports
        out = capsys.readouterr().out
        assert "cache hit rate 100%" in out
        assert "ran 0/3 homes" in out
