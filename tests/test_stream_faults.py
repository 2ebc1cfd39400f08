"""Chaos tests for the stream fault injector and the guarded pipeline.

The contract under test is **deterministic degradation**: a
:class:`~repro.stream.faults.StreamFaultPlan` is a pure function of
``(seed, chunk_index, kind)``, so the same plan poisons the same chunks
with the same bytes on every run — which is what lets these tests pin
byte-identical degraded outputs across two full passes, single-home and
fleet-wide.

Also covered: each fault kind exercises its matching guard recovery path
(dropout → gap, corrupt → value quarantine, duplicate/stall → rejection),
the ``REPRO_STREAM_FAULTS`` env round-trip, and the streamed fleet path
inheriting the batch supervisor's retry semantics.

The CI stream-chaos canary re-runs this file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet import FleetRunner, FleetSpec
from repro.fleet.faults import FaultPlan
from repro.obs import FaultPlanError
from repro.stream import (
    STREAM_FAULTS_ENV,
    GuardPolicy,
    StreamFaultPlan,
    TraceReplaySource,
    inject_stream_faults,
    run_stream,
    tagged_chunks,
)
from repro.timeseries import PowerTrace

SPEC = FleetSpec(
    n_homes=2,
    days=1,
    seed=11,
    mix=("home-a",),
    defenses=("nill",),
    detectors=("threshold-15m",),
)

MIXED = StreamFaultPlan(
    seed=7,
    dropout_rate=0.1,
    corrupt_rate=0.1,
    duplicate_rate=0.05,
    stall_rate=0.05,
)


def _trace(n: int = 1200, seed: int = 3) -> PowerTrace:
    rng = np.random.default_rng(seed)
    values = np.abs(rng.normal(250.0, 50.0, n))
    for start in range(80, n - 200, 240):
        values[start : start + 120] += 900.0
    return PowerTrace(values, period_s=60.0)


def _feed(n_chunks: int = 20, chunk: int = 10):
    values = np.arange(n_chunks * chunk, dtype=float)
    return list(tagged_chunks(values, chunk))


def _deliveries(plan, **feed_kwargs):
    return [
        (at, chunk.tobytes())
        for at, chunk in inject_stream_faults(_feed(**feed_kwargs), plan)
    ]


class TestStreamFaultPlan:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dropout_rate": 1.5},
            {"corrupt_rate": -0.1},
            {"duplicate_rate": 2.0},
            {"stall_rate": -1.0},
            {"corrupt_fraction": 1.01},
            {"corrupt_kind": "gamma-rays"},
            {"stall_chunks": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StreamFaultPlan(**kwargs)

    def test_targets_is_deterministic_and_seeded(self):
        plan = StreamFaultPlan(seed=3, dropout_rate=0.3)
        again = StreamFaultPlan(seed=3, dropout_rate=0.3)
        other = StreamFaultPlan(seed=4, dropout_rate=0.3)
        hits = [plan.targets(i, "dropout") for i in range(200)]
        assert hits == [again.targets(i, "dropout") for i in range(200)]
        assert hits != [other.targets(i, "dropout") for i in range(200)]
        assert 20 < sum(hits) < 90  # a rate, not a constant

    def test_targets_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            StreamFaultPlan().targets(0, "solar-flare")

    def test_zero_rate_never_fires(self):
        plan = StreamFaultPlan(seed=1)
        assert not any(plan.targets(i, k) for i in range(50)
                       for k in ("dropout", "corrupt", "duplicate", "stall"))

    def test_corrupt_positions_are_deterministic(self):
        plan = StreamFaultPlan(seed=5, corrupt_rate=1.0, corrupt_kind="nan")
        values = np.arange(40, dtype=float)
        a = plan.corrupt(3, values)
        b = plan.corrupt(3, values)
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.isnan(a).sum() == 10  # corrupt_fraction=0.25 of 40
        # a different chunk index poisons different positions
        c = plan.corrupt(4, values)
        assert not np.array_equal(np.isnan(a), np.isnan(c))

    @pytest.mark.parametrize("kind,check", [
        ("nan", lambda x: np.isnan(x)),
        ("inf", lambda x: np.isinf(x)),
        ("negative", lambda x: x < 0),
    ])
    def test_corrupt_kinds(self, kind, check):
        plan = StreamFaultPlan(seed=2, corrupt_rate=1.0, corrupt_kind=kind)
        out = plan.corrupt(0, np.full(20, 100.0))
        assert check(out).sum() == 5
        # the original is never mutated
        assert plan.corrupt.__name__ == "corrupt"

    def test_env_round_trip(self, monkeypatch):
        monkeypatch.setenv(STREAM_FAULTS_ENV, MIXED.to_json())
        assert StreamFaultPlan.active() == MIXED

    def test_unset_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(STREAM_FAULTS_ENV, raising=False)
        assert StreamFaultPlan.active() is None

    def test_malformed_env_raises_not_disarms(self, monkeypatch):
        for doc in (
            "{not json",
            '{"seed": 1, "dropout": 0.5}',  # misspelled key
            '{"seed": null}',
            "[]",
            '{"dropout_rate": "0.5"}',
        ):
            monkeypatch.setenv(STREAM_FAULTS_ENV, doc)
            with pytest.raises(FaultPlanError, match=STREAM_FAULTS_ENV):
                StreamFaultPlan.active()


class TestInjector:
    def test_injection_is_repeatable(self):
        assert _deliveries(MIXED) == _deliveries(MIXED)

    def test_dropout_skips_targeted_chunks(self):
        plan = StreamFaultPlan(seed=9, dropout_rate=0.4)
        delivered_at = {at for at, _ in _deliveries(plan)}
        expected = {
            at
            for i, (at, _) in enumerate(_feed())
            if not plan.targets(i, "dropout")
        }
        assert delivered_at == expected
        assert len(delivered_at) < 20

    def test_duplicate_delivers_same_chunk_twice(self):
        plan = StreamFaultPlan(seed=9, duplicate_rate=1.0)
        out = _deliveries(plan, n_chunks=3)
        assert [at for at, _ in out] == [0, 0, 10, 10, 20, 20]
        assert out[0] == out[1]

    def test_stall_delivers_late_not_never(self):
        plan = StreamFaultPlan(seed=9, stall_rate=0.3, stall_chunks=2)
        out = [at for at, _ in _deliveries(plan)]
        # every chunk still arrives exactly once...
        assert sorted(out) == [at for at, _ in _feed()]
        # ...but not in clock order
        assert out != sorted(out)

    def test_all_chunks_stalled_flush_at_end(self):
        plan = StreamFaultPlan(seed=9, stall_rate=1.0, stall_chunks=2)
        out = [at for at, _ in _deliveries(plan, n_chunks=4)]
        assert out == [0, 10, 20, 30]  # the closing flush, in clock order


class TestChaosEndToEnd:
    def _degraded(self, policy=None):
        return run_stream(
            TraceReplaySource(_trace()),
            attacks=("edges", "niom", "hmm"),
            chunk_samples=30,
            guard_policy=policy,
            fault_plan=MIXED,
        )

    def test_degraded_run_is_deterministic(self):
        a, b = self._degraded(), self._degraded()
        assert a.results == b.results
        assert a.guard == b.guard
        assert a.total_samples == b.total_samples

    def test_degradation_actually_happened(self):
        report = self._degraded()
        stats = report.guard
        assert stats["quarantined_values"] > 0
        assert stats["gap_samples"] > 0
        assert stats["rejected_chunks"] > 0
        # degraded but alive: no attack failures, no dead feed
        assert report.ok

    @pytest.mark.parametrize("value_policy", ["drop", "hold-last", "zero-fill"])
    @pytest.mark.parametrize("gap_policy", ["hold", "fill", "resync"])
    def test_every_policy_survives_chaos(self, value_policy, gap_policy):
        policy = GuardPolicy(
            value_policy=value_policy, gap_policy=gap_policy
        )
        report = self._degraded(policy)
        assert not report.failures
        assert report.results["hmm"]["n_labeled"] > 0

    def test_results_stay_finite_under_chaos(self):
        report = self._degraded()
        for name, result in report.results.items():
            for key, value in result.items():
                if isinstance(value, float):
                    assert np.isfinite(value), (name, key, value)


class TestFleetStreamChaos:
    def _run(self, **runner_kwargs):
        runner = FleetRunner(
            workers=1, retry_backoff_s=0.01, **runner_kwargs
        )
        return runner.run_streaming(SPEC, attacks=("edges", "niom"))

    def test_fleet_chaos_is_deterministic(self):
        a = self._run(stream_faults=MIXED)
        b = self._run(stream_faults=MIXED)
        assert a.ok and b.ok
        for ha, hb in zip(a.results, b.results):
            assert ha.results == hb.results
            assert ha.guard == hb.guard
            assert ha.trace_digest == hb.trace_digest
        # and the feeds really were degraded
        assert any(h.guard["gap_samples"] > 0 for h in a.results)

    def test_stream_telemetry_merges_fleet_wide(self):
        runner = FleetRunner(
            workers=1, retry_backoff_s=0.01,
            stream_faults=MIXED, telemetry=True,
        )
        result = runner.run_streaming(SPEC, attacks=("edges",))
        counters = result.telemetry.counters
        assert counters.get("stream.gap_samples", 0) > 0
        assert counters.get("stream.quarantined_values", 0) > 0

    def test_flaky_stream_job_succeeds_on_retry(self):
        clean = self._run()
        flaky = self._run(
            faults=FaultPlan(kind="error", indices=(1,), max_attempt=0),
            max_retries=2,
        )
        assert flaky.ok and not flaky.failures
        assert len(flaky.results) == len(clean.results)
        for fh, ch in zip(flaky.results, clean.results):
            assert fh.results == ch.results
            assert fh.trace_digest == ch.trace_digest

    def test_poison_stream_job_fails_alone(self):
        result = self._run(
            faults=FaultPlan(kind="error", indices=(1,), max_attempt=None),
            max_retries=1,
        )
        assert not result.ok
        assert [f.index for f in result.failures] == [1]
        assert result.failures[0].attempts == 2
        # the innocent home still completed, bit-identical to clean
        clean = self._run()
        (survivor,) = result.results
        assert survivor.index == 0
        assert survivor.results == clean.results[0].results

    def test_permanent_failures_counted_once(self):
        runner = FleetRunner(
            workers=1, retry_backoff_s=0.01, telemetry=True,
            faults=FaultPlan(kind="error", indices=(1,), max_attempt=None),
            max_retries=1,
        )
        result = runner.run_streaming(SPEC, attacks=("edges",))
        assert result.telemetry.counters["fleet.permanent_failure"] == 1
