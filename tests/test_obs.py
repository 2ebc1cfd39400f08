"""Tests for the observability layer and its time-anchor bugfix riders.

Pins the contracts every perf PR will lean on:

* the telemetry registry is a no-op while disabled and exact while
  enabled; snapshots merge commutatively/associatively and subtract
  cleanly (the worker delta protocol);
* fleet runs with telemetry on and off produce bit-identical
  ``trace_digest``s — observation can never perturb results;
* per-home stage timers account for (nearly all of) per-job wall-clock;
* cache corruption is counted, not just silently eaten;
* the profiling-attack evening windows and the local hub's daily energy
  buckets are anchored at the trace's own clock (regressions for the
  absolute-``t=0`` anchoring bugs).
"""

import json
import pickle
import time

import numpy as np
import pytest

from repro.attacks.profiling import meal_profile
from repro.defenses.local import LocalAnalyticsHub
from repro.fleet import (
    FleetReport,
    FleetSpec,
    SweepGrid,
    SweepRunner,
    run_fleet,
)
from repro.fleet.engine import profile_name
from repro.obs import (
    TELEMETRY,
    Telemetry,
    TelemetrySnapshot,
    TimerStat,
    maybe_profile,
    merge_snapshots,
)
from repro.timeseries import PowerTrace, SECONDS_PER_DAY

SPEC = FleetSpec(n_homes=3, days=1, seed=42, defenses=("dp-laplace",))


# ---------------------------------------------------------------------------
# Registry mechanics
# ---------------------------------------------------------------------------
class TestTelemetryRegistry:
    def test_disabled_registry_records_nothing(self):
        reg = Telemetry(enabled=False)
        reg.count("x", 5)
        with reg.timer("t"):
            pass
        assert reg.snapshot().empty

    def test_enabled_registry_counts_and_times(self):
        reg = Telemetry(enabled=True)
        reg.count("events")
        reg.count("events", 2)
        reg.count("bytes", 0.5)
        with reg.timer("stage"):
            pass
        with reg.timer("stage"):
            pass
        snap = reg.snapshot()
        assert snap.counters == {"events": 3.0, "bytes": 0.5}
        assert snap.timers["stage"].count == 2
        assert snap.timers["stage"].total_s >= 0.0
        assert snap.timers["stage"].mean_s == pytest.approx(
            snap.timers["stage"].total_s / 2
        )

    def test_timer_records_on_exception(self):
        reg = Telemetry(enabled=True)
        with pytest.raises(RuntimeError):
            with reg.timer("boom"):
                raise RuntimeError("x")
        assert reg.snapshot().timers["boom"].count == 1

    def test_restore_round_trip(self):
        reg = Telemetry(enabled=True)
        reg.count("a")
        before = reg.snapshot()
        reg.count("a", 9)
        reg.count("b")
        with reg.timer("t"):
            pass
        delta = reg.snapshot().minus(before)
        assert delta.counters == {"a": 9.0, "b": 1.0}
        assert delta.timers["t"].count == 1
        reg.restore(before)
        assert reg.snapshot() == before

    def test_snapshot_is_picklable(self):
        snap = TelemetrySnapshot(
            counters={"a": 1.0}, timers={"t": TimerStat(2, 0.5)}
        )
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap

    def test_as_dict_shape(self):
        snap = TelemetrySnapshot(
            counters={"b": 2.0, "a": 1.0}, timers={"t": TimerStat(1, 2.0)}
        )
        doc = snap.as_dict()
        assert list(doc["counters"]) == ["a", "b"]
        assert doc["timers"]["t"] == {"count": 1, "total_s": 2.0, "mean_s": 2.0}


class TestSnapshotMerge:
    A = TelemetrySnapshot(counters={"x": 1.0}, timers={"t": TimerStat(1, 0.25)})
    B = TelemetrySnapshot(
        counters={"x": 2.0, "y": 5.0}, timers={"t": TimerStat(3, 0.75)}
    )
    C = TelemetrySnapshot(counters={"y": 1.0}, timers={"u": TimerStat(2, 1.0)})

    def test_merge_is_commutative(self):
        assert self.A.merged(self.B) == self.B.merged(self.A)

    def test_merge_is_associative(self):
        left = self.A.merged(self.B).merged(self.C)
        right = self.A.merged(self.B.merged(self.C))
        assert left == right

    def test_merge_identity(self):
        assert self.A.merged(TelemetrySnapshot()) == self.A

    def test_merge_order_determinism(self):
        # any completion order of job snapshots yields the same totals
        import itertools

        merges = {
            json.dumps(merge_snapshots(perm).as_dict(), sort_keys=True)
            for perm in itertools.permutations([self.A, self.B, self.C])
        }
        assert len(merges) == 1

    def test_minus_inverts_merge(self):
        assert self.A.merged(self.B).minus(self.B) == self.A


# ---------------------------------------------------------------------------
# Fleet integration
# ---------------------------------------------------------------------------
class TestFleetTelemetry:
    @pytest.fixture(scope="class")
    def pair(self):
        off = run_fleet(SPEC, workers=1)
        on = run_fleet(SPEC, workers=1, telemetry=True)
        return off, on

    def test_telemetry_off_by_default(self, pair):
        off, _ = pair
        assert off.telemetry is None
        assert all(h.telemetry is None for h in off.homes)

    def test_identical_digests_on_and_off(self, pair):
        off, on = pair
        assert [h.trace_digest for h in on.homes] == [
            h.trace_digest for h in off.homes
        ]
        assert FleetReport.from_result(on).comparable(
            FleetReport.from_result(off)
        )

    def test_per_home_snapshots_and_totals(self, pair):
        _, on = pair
        assert on.telemetry is not None
        assert all(h.telemetry is not None for h in on.homes)
        merged = merge_snapshots(h.telemetry for h in on.homes)
        for stage in ("stage.job", "stage.simulate", "stage.attack"):
            assert on.telemetry.timers[stage] == merged.timers[stage]
            assert merged.timers[stage].count >= SPEC.n_homes or stage != "stage.job"

    def test_stage_durations_cover_job_wall_clock(self, pair):
        _, on = pair
        for home in on.homes:
            timers = home.telemetry.timers
            job = timers["stage.job"].total_s
            stages = sum(
                timers[name].total_s
                for name in ("stage.simulate", "stage.defend", "stage.attack")
                if name in timers
            )
            # acceptance: per-home stage durations sum to within 10% of
            # the job's wall-clock (and can never exceed it)
            assert stages <= job + 1e-6
            assert stages >= 0.9 * job

    def test_registry_left_disabled_and_clean(self, pair):
        # the runner enables the ambient registry only for the duration
        # of the run and restores its baseline afterwards
        assert not TELEMETRY.enabled
        assert TELEMETRY.snapshot().empty

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_telemetry_matches_serial_digests(self, pair, workers):
        off, _ = pair
        result = run_fleet(SPEC, workers=workers, telemetry=True)
        assert [h.trace_digest for h in result.homes] == [
            h.trace_digest for h in off.homes
        ]
        assert result.telemetry is not None
        assert "stage.job" in result.telemetry.timers

    def test_report_telemetry_section(self, pair):
        _, on = pair
        report = FleetReport.from_result(on)
        section = report.telemetry
        assert section is not None
        assert section["homes_with_telemetry"] == SPEC.n_homes
        assert "stage.job" in section["per_home_stage_s"]
        stats = section["per_home_stage_s"]["stage.job"]
        assert stats["min"] <= stats["median"] <= stats["max"]
        assert "stage.job" in section["totals"]["timers"]
        # the whole section must be JSON-serializable for --telemetry
        json.dumps(report.as_dict())

    def test_overhead_below_25_percent(self):
        """Observation stays cheap: telemetry on costs < 25% of SPEC's run.

        Best of 5 alternating off/on runs, so drift hits both sides; single
        pairs have read up to +32% on a shared VM, best-of-5 within
        -10%..+3%.
        """
        best = {False: np.inf, True: np.inf}
        for _ in range(5):
            for telemetry in (False, True):
                t0 = time.perf_counter()
                run_fleet(SPEC, workers=1, telemetry=telemetry)
                best[telemetry] = min(best[telemetry], time.perf_counter() - t0)
        overhead = best[True] / best[False] - 1.0
        print(f"telemetry overhead: {overhead:+.1%}")
        assert overhead < 0.25, f"telemetry overhead {overhead:+.1%}"

    def test_retry_counters_from_fault_injection(self):
        from repro.fleet import FaultPlan

        flaky = FaultPlan(kind="error", indices=(0,), max_attempt=0)
        result = run_fleet(
            SPEC,
            workers=1,
            telemetry=True,
            faults=flaky,
            max_retries=2,
            retry_backoff_s=0.01,
        )
        assert result.ok
        assert result.telemetry.counters["fleet.retry"] >= 1
        assert result.telemetry.counters["fleet.attempt_failed.error"] >= 1
        assert result.telemetry.counters["fleet.backoff_wait_s"] > 0


class TestCacheTelemetry:
    def test_cached_results_carry_no_snapshot(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_fleet(SPEC, workers=1, cache_dir=cache_dir, telemetry=True)
        warm = run_fleet(SPEC, workers=1, cache_dir=cache_dir, telemetry=True)
        assert warm.cache_stats.hit_rate == 1.0
        assert all(h.telemetry is None for h in warm.homes)
        assert warm.telemetry.counters["cache.hit"] == SPEC.n_homes
        assert warm.telemetry.timers["cache.read"].count == SPEC.n_homes

    def test_cache_entries_identical_with_and_without_telemetry(self, tmp_path):
        plain = tmp_path / "plain"
        observed = tmp_path / "observed"
        run_fleet(SPEC, workers=1, cache_dir=plain)
        run_fleet(SPEC, workers=1, cache_dir=observed, telemetry=True)
        plain_entries = {p.name: p.read_bytes() for p in plain.glob("*/*.pkl")}
        observed_entries = {
            p.name: p.read_bytes() for p in observed.glob("*/*.pkl")
        }
        assert plain_entries == observed_entries

    def test_corrupt_entry_counted_not_fatal(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_fleet(SPEC, workers=1, cache_dir=cache_dir)
        victim = next(cache_dir.glob("*/*.pkl"))
        victim.write_bytes(b"definitely not a pickle")
        result = run_fleet(SPEC, workers=1, cache_dir=cache_dir, telemetry=True)
        assert result.ok
        assert result.cache_stats.corrupt == 1
        assert result.cache_stats.misses == 1
        assert result.cache_stats.hits == SPEC.n_homes - 1
        assert result.telemetry.counters["cache.corrupt_entry"] == 1

    def test_stale_format_counted_separately(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_fleet(SPEC, workers=1, cache_dir=cache_dir)
        victim = next(cache_dir.glob("*/*.pkl"))
        stale = {"format": -1, "result": None}
        victim.write_bytes(pickle.dumps(stale))
        result = run_fleet(SPEC, workers=1, cache_dir=cache_dir, telemetry=True)
        assert result.cache_stats.stale == 1
        assert result.cache_stats.corrupt == 0
        assert result.telemetry.counters["cache.stale_entry"] == 1


# ---------------------------------------------------------------------------
# Profiling hooks
# ---------------------------------------------------------------------------
class TestProfiling:
    def test_maybe_profile_disabled_writes_nothing(self, tmp_path):
        with maybe_profile("unit") as prof:
            assert prof is None
        assert list(tmp_path.iterdir()) == []

    def test_maybe_profile_dumps_pstats(self, tmp_path):
        import pstats

        with maybe_profile("unit", tmp_path) as prof:
            assert prof is not None
            sum(range(1000))
        dump = tmp_path / "unit.pstats"
        assert dump.exists()
        pstats.Stats(str(dump))  # parseable

    def test_fleet_profile_dir_one_dump_per_home(self, tmp_path):
        profile_dir = tmp_path / "prof"
        result = run_fleet(SPEC, workers=1, profile_dir=profile_dir)
        assert result.ok
        dumps = sorted(p.name for p in profile_dir.glob("*.pstats"))
        assert dumps == sorted(
            f"{profile_name(SPEC.job(i))}.pstats" for i in range(SPEC.n_homes)
        )
        assert all(name.startswith("home-") for name in dumps)

    def test_sweep_profile_dir_one_dump_per_home_job(self, tmp_path):
        """Preset homes fingerprint alike under every seed, and home
        indices repeat across seeds: the dump names must still differ."""
        grid = SweepGrid(
            defenses=("nill",), settings=(0.0, 1.0), n_homes=2, days=1,
            seeds=(0, 1), mix=("home-a", "home-b"),
            detectors=("threshold-15m",),
        )
        result = SweepRunner(profile_dir=tmp_path).run(grid)
        assert result.ok
        home_jobs = len(grid.seeds) * grid.n_homes
        assert len(list(tmp_path.glob("*.pstats"))) == home_jobs


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCLITelemetry:
    def test_fleet_telemetry_and_profile_flags(self, tmp_path, capsys):
        from repro.cli import main

        # both paths live in directories that do not exist yet: the CLI
        # must create them rather than crash after the sweep finished
        telemetry_path = tmp_path / "out" / "telemetry.json"
        profile_dir = tmp_path / "profiles"
        args = [
            "fleet", "--homes", "2", "--days", "1", "--seed", "5",
            "--workers", "1", "--defenses", "dp-laplace",
            "--telemetry", str(telemetry_path),
            "--profile", str(profile_dir),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "telemetry JSON written to" in out
        assert "telemetry:" in out
        doc = json.loads(telemetry_path.read_text())
        assert "stage.job" in doc["totals"]["timers"]
        assert "stage.job" in doc["per_home_stage_s"]
        assert doc["homes_with_telemetry"] == 2
        assert len(list(profile_dir.glob("*.pstats"))) == 2


# ---------------------------------------------------------------------------
# Time-anchor regressions (the satellite bugfixes)
# ---------------------------------------------------------------------------
def _pulse_trace(
    days: int,
    hour: float,
    duration_min: int,
    power: float,
    start_s: float = 0.0,
    period_s: float = 60.0,
) -> PowerTrace:
    values = np.zeros(int(days * SECONDS_PER_DAY / period_s))
    for d in range(days):
        i0 = int((d * SECONDS_PER_DAY + hour * 3600) / period_s)
        values[i0 : i0 + int(duration_min * 60 / period_s)] = power
    return PowerTrace(values, period_s, start_s)


class TestMealProfileAnchoring:
    def test_nonzero_start_trace_not_misread_as_eating_out(self):
        # cooking every evening at 18:30; the trace begins on epoch day 7.
        # The old epoch-anchored windows never overlapped the trace, every
        # slice raised, and the household was profiled as eating out daily.
        cooked_daily = _pulse_trace(
            5, 18.5, 10, 1400.0, start_s=7 * SECONDS_PER_DAY
        )
        profile = meal_profile(cooked_daily, None)
        assert profile.eats_out_days_fraction == 0.0

    def test_shifted_and_epoch_anchored_traces_agree(self):
        base = _pulse_trace(4, 18.0, 15, 1200.0)
        shifted = base.shift(3 * SECONDS_PER_DAY)
        assert (
            meal_profile(base, None).eats_out_days_fraction
            == meal_profile(shifted, None).eats_out_days_fraction
        )

    def test_no_evening_cooking_still_reads_as_eating_out(self):
        # breakfast-only microwave use, nonzero start: every evening empty
        breakfast = _pulse_trace(
            4, 7.5, 10, 1200.0, start_s=2 * SECONDS_PER_DAY
        )
        profile = meal_profile(breakfast, None)
        assert profile.eats_out_days_fraction == 1.0

    def test_mixed_cooked_and_skipped_evenings(self):
        period = 60.0
        days = 4
        values = np.zeros(int(days * SECONDS_PER_DAY / period))
        for d in (0, 2):  # cook only on days 0 and 2
            i0 = int((d * SECONDS_PER_DAY + 19 * 3600) / period)
            values[i0 : i0 + 10] = 1500.0
        trace = PowerTrace(values, period, start_s=10 * SECONDS_PER_DAY)
        profile = meal_profile(trace, None)
        assert profile.eats_out_days_fraction == pytest.approx(0.5)


class TestSharedPayloadDays:
    def test_partial_trailing_day_included(self):
        period = 60.0
        n = int(2.5 * SECONDS_PER_DAY / period)
        hub = LocalAnalyticsHub(PowerTrace(np.full(n, 1000.0), period))
        payload = hub.shared_payload()
        assert len(payload.daily_energy_kwh) == 3
        assert payload.daily_energy_kwh[0] == pytest.approx(24.0)
        assert payload.daily_energy_kwh[2] == pytest.approx(12.0)
        assert sum(payload.daily_energy_kwh) == pytest.approx(
            payload.total_energy_kwh
        )

    def test_nonzero_start_daily_buckets(self):
        period = 60.0
        n = int(3 * SECONDS_PER_DAY / period)
        hub = LocalAnalyticsHub(
            PowerTrace(np.full(n, 500.0), period, start_s=5 * SECONDS_PER_DAY)
        )
        payload = hub.shared_payload()
        assert len(payload.daily_energy_kwh) == 3
        assert sum(payload.daily_energy_kwh) == pytest.approx(
            payload.total_energy_kwh
        )

    def test_sub_day_trace_single_bucket(self):
        period = 60.0
        n = int(0.25 * SECONDS_PER_DAY / period)
        hub = LocalAnalyticsHub(PowerTrace(np.full(n, 800.0), period))
        payload = hub.shared_payload()
        assert len(payload.daily_energy_kwh) == 1
        assert payload.daily_energy_kwh[0] == pytest.approx(
            payload.total_energy_kwh
        )
