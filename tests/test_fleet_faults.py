"""Chaos tests for the supervised fleet engine and its fault harness.

The recovery paths under test, each driven by deterministic fault
injection (:mod:`repro.fleet.faults`) rather than trusted on faith:

* a poison-pill job fails alone — the sweep returns N-1 results plus one
  structured :class:`HomeFailure`, and every survivor's ``trace_digest``
  is bit-identical to a clean serial run;
* a flaky job (fails first attempt, healthy after) succeeds on retry with
  an identical result;
* a worker crash mid-batch breaks the pool — the supervisor rebuilds it,
  requeues only the in-flight jobs, and produces no duplicates;
* a hung job hits its wall-clock timeout, its pool is torn down, and
  innocents complete;
* a pool that cannot be started or rebuilt leaves the remaining jobs to
  the in-process executor, under the same supervisor loop;
* corrupt cache entries (torn bytes, wrong type, stale envelope) read as
  misses, never as results;
* results stream into the cache as they complete, so a failed sweep
  resumes from what finished;
* in a knob sweep the home job is the unit of supervision: a poisoned
  home fails in every cell that owed it, its neighbours' results are
  untouched, and ``fail_fast`` aborts the whole shard;
* a netpriv grid's LAN jobs honour the same fault plan.

The CI chaos canary re-runs this file with 2 workers.
"""

import json
import os
import pickle

import pytest

from repro.fleet import (
    FAULTS_ENV,
    CACHE_FORMAT_VERSION,
    FaultInjected,
    FaultPlan,
    FleetReport,
    FleetRunner,
    FleetSpec,
    NetprivGrid,
    ResultCache,
    SweepGrid,
    SweepRunner,
    job_cache_key,
    run_fleet,
)
from repro.obs import FaultPlanError
from tests.conftest import CHAOS_SPEC as SPEC

POOL_WORKERS = max(2, int(os.environ.get("REPRO_FLEET_WORKERS", "2")))

FAST = {"retry_backoff_s": 0.01}


@pytest.fixture(scope="module")
def clean_digests(chaos_clean_digests):
    """Ground truth: per-home digests from an uninjected serial run."""
    return chaos_clean_digests


def surviving_digests(result):
    return {h.index: h.trace_digest for h in result.homes}


class TestFaultPlan:
    def test_kind_and_rate_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(kind="meteor")
        with pytest.raises(ValueError):
            FaultPlan(kind="error", rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(kind="hang", hang_s=0.0)

    def test_targets_indices_and_attempt_bound(self):
        plan = FaultPlan(kind="error", indices=(2,), max_attempt=0)
        assert plan.targets(2, 0)
        assert not plan.targets(2, 1)  # flaky: healthy after first attempt
        assert not plan.targets(1, 0)
        poison = FaultPlan(kind="error", indices=(2,))
        assert all(poison.targets(2, a) for a in range(5))

    def test_rate_draw_is_deterministic_and_seeded(self):
        plan = FaultPlan(kind="error", rate=0.5, seed=7)
        cells = [(i, a) for i in range(20) for a in range(3)]
        draws = [plan.targets(i, a) for i, a in cells]
        assert draws == [plan.targets(i, a) for i, a in cells]  # stable
        assert any(draws) and not all(draws)  # actually probabilistic
        other = FaultPlan(kind="error", rate=0.5, seed=8)
        assert draws != [other.targets(i, a) for i, a in cells]

    def test_env_round_trip(self, monkeypatch):
        plan = FaultPlan(
            kind="hang", indices=(1, 3), rate=0.25, seed=5,
            max_attempt=2, hang_s=9.0,
        )
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        assert FaultPlan.active() == plan

    def test_unset_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert FaultPlan.active() is None

    def test_malformed_env_raises_not_disarms(self, monkeypatch):
        # a chaos test whose faults silently never fire would pass vacuously
        for doc in (
            "{not json",
            '{"kind": "error", "indicies": [1]}',  # misspelled key
            "{}",  # no kind
            "[]",
            '{"kind": "error", "indices": 1}',
            '{"kind": "error", "seed": null}',
        ):
            monkeypatch.setenv(FAULTS_ENV, doc)
            with pytest.raises(FaultPlanError, match=FAULTS_ENV):
                FaultPlan.active()


class TestErrorIsolation:
    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_poison_pill_fails_alone(self, clean_digests, workers):
        result = run_fleet(
            SPEC, workers=workers,
            faults=FaultPlan(kind="error", indices=(2,)), **FAST,
        )
        assert [h.index for h in result.homes] == [0, 1, 3]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.index == 2
        assert failure.kind == "error"
        assert failure.attempts == 3  # first try + 2 default retries
        assert "FaultInjected" in failure.error
        # survivors byte-identical to the clean serial run
        assert surviving_digests(result) == {
            i: d for i, d in clean_digests.items() if i != 2
        }

    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_flaky_job_succeeds_on_retry(self, clean_digests, workers):
        # one flaky home, then every home flaky: each retry reproduces
        # its home exactly
        for indices in ((1,), tuple(range(SPEC.n_homes))):
            result = run_fleet(
                SPEC, workers=workers,
                faults=FaultPlan(kind="error", indices=indices, max_attempt=0),
                **FAST,
            )
            assert not result.failures
            assert surviving_digests(result) == clean_digests

    def test_max_retries_zero_fails_first_error(self):
        result = run_fleet(
            SPEC, workers=1, max_retries=0,
            faults=FaultPlan(kind="error", indices=(1,), max_attempt=0),
            **FAST,
        )
        assert [f.index for f in result.failures] == [1]
        assert result.failures[0].attempts == 1

    def test_fail_fast_aborts_remaining(self):
        result = run_fleet(
            SPEC, workers=POOL_WORKERS, max_retries=0, fail_fast=True,
            faults=FaultPlan(kind="error", indices=(0,)), **FAST,
        )
        kinds = {f.index: f.kind for f in result.failures}
        assert kinds[0] == "error"
        assert "aborted" in kinds.values()
        # every home is accounted for exactly once
        indices = sorted(
            [h.index for h in result.homes] + [f.index for f in result.failures]
        )
        assert indices == list(range(SPEC.n_homes))

    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_fail_fast_with_retries_aborts_the_rest(self, workers):
        # the backoff outlasts home 0's job, so home 0 is reported before
        # home 1 gives up; homes 2 and 3 may run meanwhile, unreported
        result = run_fleet(
            SPEC, workers=workers, max_retries=1, fail_fast=True,
            retry_backoff_s=0.5, faults=FaultPlan(kind="error", indices=(1,)),
        )
        assert [h.index for h in result.homes] == [0]
        assert {f.index: f.kind for f in result.failures} == {
            1: "error", 2: "aborted", 3: "aborted",
        }
        assert [job.index for job in result.failed_jobs] == [1, 2, 3]

    def test_fail_fast_aborts_jobs_finished_behind_the_culprit(self):
        # home 0 hangs until its timeout while the other homes finish on
        # the free worker; they were submitted after it, so fail-fast
        # must report them aborted, not done
        result = run_fleet(
            SPEC, workers=POOL_WORKERS, max_retries=0, fail_fast=True,
            job_timeout=1.0, faults=FaultPlan(kind="hang", indices=(0,)),
            **FAST,
        )
        assert not result.homes
        assert {f.index: f.kind for f in result.failures} == {
            0: "timeout", 1: "aborted", 2: "aborted", 3: "aborted",
        }


class TestCrashRecovery:
    def test_transient_crash_rebuilds_pool_no_duplicates(self, clean_digests):
        result = run_fleet(
            SPEC, workers=POOL_WORKERS,
            faults=FaultPlan(kind="crash", indices=(0,), max_attempt=0),
            **FAST,
        )
        assert not result.failures
        assert result.pool_rebuilds >= 1
        # no duplicate or missing homes, all byte-identical to serial
        assert [h.index for h in result.homes] == list(range(SPEC.n_homes))
        assert surviving_digests(result) == clean_digests

    def test_poison_crash_fails_alone_survivors_exact(self, clean_digests):
        result = run_fleet(
            SPEC, workers=POOL_WORKERS,
            faults=FaultPlan(kind="crash", indices=(1,)), **FAST,
        )
        assert [f.index for f in result.failures] == [1]
        assert result.failures[0].kind == "crash"
        assert result.pool_rebuilds >= 1
        assert surviving_digests(result) == {
            i: d for i, d in clean_digests.items() if i != 1
        }


class TestTimeouts:
    def test_hung_job_hits_timeout(self, clean_digests):
        # timeout is generous vs the ~25ms healthy job so slow CI boxes
        # never time out an innocent, yet tiny vs the 120s injected hang
        result = run_fleet(
            SPEC, workers=POOL_WORKERS, job_timeout=2.0, max_retries=1,
            faults=FaultPlan(kind="hang", indices=(2,), hang_s=120.0),
            **FAST,
        )
        assert [f.index for f in result.failures] == [2]
        failure = result.failures[0]
        assert failure.kind == "timeout"
        assert failure.attempts == 2
        assert surviving_digests(result) == {
            i: d for i, d in clean_digests.items() if i != 2
        }

    def test_transient_hang_recovers_on_retry(self, clean_digests):
        result = run_fleet(
            SPEC, workers=POOL_WORKERS, job_timeout=2.0,
            faults=FaultPlan(
                kind="hang", indices=(2,), max_attempt=0, hang_s=120.0
            ),
            **FAST,
        )
        assert not result.failures
        assert result.pool_rebuilds >= 1
        assert surviving_digests(result) == clean_digests


class TestPoolUnavailable:
    def test_pool_that_cannot_start_runs_in_process(
        self, clean_digests, monkeypatch
    ):
        monkeypatch.setattr(FleetRunner, "_new_pool", lambda self: None)
        result = run_fleet(SPEC, workers=POOL_WORKERS)
        assert not result.failures
        assert result.workers_used == 1
        assert surviving_digests(result) == clean_digests

    def test_pool_that_cannot_be_rebuilt_finishes_in_process(
        self, clean_digests, monkeypatch
    ):
        real = FleetRunner._new_pool
        calls = []

        def first_pool_only(self):
            calls.append(self)
            return real(self) if len(calls) == 1 else None

        monkeypatch.setattr(FleetRunner, "_new_pool", first_pool_only)
        result = run_fleet(
            SPEC, workers=POOL_WORKERS, job_timeout=1.0,
            faults=FaultPlan(kind="hang", indices=(0,), max_attempt=0),
            **FAST,
        )
        assert not result.failures
        assert result.pool_rebuilds == 1
        assert surviving_digests(result) == clean_digests


#: a 2-seed sweep over chaos-fleet-sized homes: each home job owes the
#: two cells of its seed
CHAOS_GRID = SweepGrid(
    defenses=("nill",),
    settings=(0.5, 1.0),
    n_homes=SPEC.n_homes,
    days=SPEC.days,
    seeds=(9, 10),
    mix=SPEC.mix,
    detectors=SPEC.detectors,
)


@pytest.fixture(scope="module")
def clean_sweep_homes():
    """Per-cell ``{index: HomeResult}`` of an uninjected serial sweep."""
    result = SweepRunner().run(CHAOS_GRID)
    assert result.ok
    return {
        c.cell: {h.index: h for h in c.fleet.homes} for c in result.cells
    }


def run_chaos_sweep(monkeypatch, plan, workers=POOL_WORKERS, **supervision):
    """Sweep :data:`CHAOS_GRID` with ``plan`` armed the way a user arms
    ``repro sweep``: through the environment."""
    monkeypatch.setenv(FAULTS_ENV, plan.to_json())
    return SweepRunner(workers, **supervision).run(CHAOS_GRID)


class TestSweepFailureRouting:
    @pytest.mark.parametrize("kind", ["error", "crash"])
    def test_poisoned_home_fails_in_every_cell(
        self, clean_sweep_homes, monkeypatch, kind
    ):
        result = run_chaos_sweep(
            monkeypatch, FaultPlan(kind=kind, indices=(2,))
        )
        assert result.n_cells == CHAOS_GRID.n_cells
        for cell_result in result.cells:
            fleet = cell_result.fleet
            [failure] = fleet.failures
            assert (failure.index, failure.kind) == (2, kind)
            assert failure.attempts == 3  # first try + 2 default retries
            # every survivor is the clean run's result, bit for bit
            clean = clean_sweep_homes[cell_result.cell]
            assert {h.index: h for h in fleet.homes} == {
                i: h for i, h in clean.items() if i != 2
            }

    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_fail_fast_aborts_the_shard(self, monkeypatch, workers):
        result = run_chaos_sweep(
            monkeypatch, FaultPlan(kind="error", indices=(0,)),
            workers=workers, max_retries=0, fail_fast=True,
        )
        assert not result.ok
        for cell_result in result.cells:
            fleet = cell_result.fleet
            # every home is accounted for exactly once, in every cell
            assert fleet.n_homes + fleet.n_failed == CHAOS_GRID.n_homes
            indices = sorted(
                [h.index for h in fleet.homes]
                + [f.index for f in fleet.failures]
            )
            assert indices == list(range(CHAOS_GRID.n_homes))
            if cell_result.cell.seed == CHAOS_GRID.seeds[0]:
                assert fleet.failures[0].kind == "error"
            else:
                # the first seed's poisoned home stopped the whole shard
                # before any of the second seed's home jobs ran
                assert not fleet.homes
                assert {f.kind for f in fleet.failures} == {"aborted"}


class TestNetprivFaults:
    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_poisoned_lan_job_fails(self, monkeypatch, workers):
        grid = NetprivGrid(
            defenses=("cover",), settings=(0.5,), days=1, lan="small"
        )
        [job] = grid.jobs_for(grid.cells())
        monkeypatch.setenv(
            FAULTS_ENV, FaultPlan(kind="error", indices=(0,)).to_json()
        )
        result = SweepRunner(workers, max_retries=0, **FAST).run(grid)
        assert result.results == []
        [failure] = result.failures
        assert (failure.preset, failure.kind) == (job.preset, "error")


class TestCacheRobustness:
    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_fleet(SPEC, workers=1, cache_dir=cache_dir)
        victim = next(cache_dir.glob("*/*.pkl"))
        victim.write_bytes(victim.read_bytes()[:10])
        result = run_fleet(SPEC, workers=1, cache_dir=cache_dir)
        assert result.cache_stats.misses == 1
        assert result.executed == 1

    def test_wrong_type_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = job_cache_key(SPEC.job(0))
        # loadable pickle of the wrong type, planted at the right path
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps("im-not-a-home-result"))
        assert cache.get(key) is None
        assert cache.stats.misses == 1

    def test_stale_envelope_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = job_cache_key(SPEC.job(0))
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            pickle.dumps({"format": CACHE_FORMAT_VERSION - 1, "result": "x"})
        )
        assert cache.get(key) is None

    def test_results_stream_into_cache_and_resume(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = run_fleet(
            SPEC, workers=POOL_WORKERS, cache_dir=cache_dir,
            faults=FaultPlan(kind="error", indices=(2,)), **FAST,
        )
        # survivors were cached even though the sweep had a failure
        assert first.cache_stats.stores == SPEC.n_homes - 1
        resumed = run_fleet(SPEC, workers=1, cache_dir=cache_dir)
        assert not resumed.failures
        assert resumed.cache_stats.hits == SPEC.n_homes - 1
        assert resumed.executed == 1  # only the previously failed home


class TestValidationAndReport:
    def test_spec_rejects_unknown_detectors(self):
        with pytest.raises(ValueError, match="unknown detectors"):
            FleetSpec(n_homes=1, detectors=("bogus",))

    def test_runner_rejects_bad_supervision_params(self):
        with pytest.raises(ValueError):
            FleetRunner(max_retries=-1)
        with pytest.raises(ValueError):
            FleetRunner(job_timeout=0.0)
        with pytest.raises(ValueError):
            FleetRunner(retry_backoff_s=-0.1)
        # NaN passes a `<= 0` or `< 0` check; it must not pass these
        with pytest.raises(ValueError):
            FleetRunner(job_timeout=float("nan"))
        with pytest.raises(ValueError):
            FleetRunner(retry_backoff_s=float("nan"))

    def test_report_carries_failures(self):
        result = run_fleet(
            SPEC, workers=1,
            faults=FaultPlan(kind="error", indices=(3,)), **FAST,
        )
        report = FleetReport.from_result(result)
        assert report.n_failed == 1
        doc = json.loads(report.to_json())
        assert doc["n_failed"] == 1
        assert doc["failures"][0]["index"] == 3
        assert doc["failures"][0]["kind"] == "error"

    def test_report_refuses_total_loss(self):
        result = run_fleet(
            FleetSpec(n_homes=1, days=1, seed=9, defenses=("nill",),
                      detectors=("threshold-15m",)),
            workers=1,
            faults=FaultPlan(kind="error", indices=(0,)), **FAST,
        )
        assert not result.homes
        with pytest.raises(ValueError, match="no successful homes"):
            FleetReport.from_result(result)

    def test_failure_csv_export(self, tmp_path):
        result = run_fleet(
            SPEC, workers=1,
            faults=FaultPlan(kind="error", indices=(2,)), **FAST,
        )
        report = FleetReport.from_result(result)
        written = report.to_csv(tmp_path / "report.csv")
        assert [p.name for p in written] == ["report.csv", "report.failures.csv"]
        lines = (tmp_path / "report.failures.csv").read_text().splitlines()
        assert lines[0].startswith("index,preset,kind,attempts")
        assert lines[1].split(",")[0] == "2"


class TestCLIFaults:
    def test_cli_reports_failures_and_exits_nonzero(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.setenv(
            FAULTS_ENV, FaultPlan(kind="error", indices=(1,)).to_json()
        )
        code = main([
            "fleet", "--homes", "3", "--days", "1", "--seed", "5",
            "--workers", "1", "--defenses", "nill", "--max-retries", "1",
            "--csv", str(tmp_path / "r.csv"), "--json", str(tmp_path / "r.json"),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED home 1" in out
        assert "1/3 home(s) failed" in out
        assert (tmp_path / "r.failures.csv").exists()
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["n_failed"] == 1

    def test_cli_fail_fast_flag(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv(
            FAULTS_ENV, FaultPlan(kind="error", indices=(0,)).to_json()
        )
        code = main([
            "fleet", "--homes", "2", "--days", "1", "--seed", "5",
            "--workers", "1", "--defenses", "nill",
            "--max-retries", "0", "--fail-fast",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED home 0" in out

    def test_cli_clean_run_still_exits_zero(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv(FAULTS_ENV, raising=False)
        code = main([
            "fleet", "--homes", "2", "--days", "1", "--seed", "5",
            "--workers", "1", "--defenses", "nill",
            "--job-timeout", "300", "--max-retries", "1",
        ])
        assert code == 0
