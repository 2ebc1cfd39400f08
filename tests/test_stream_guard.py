"""Degraded-feed hardening: FeedGuard policies, attack quarantine,
checkpoint/resume, and the CLI health contract.

The load-bearing contracts (ISSUE 7 acceptance criteria):

* **clean-feed invariance** — a default-config guard on an uncorrupted
  replay forwards the same array objects untouched, so every bitwise
  streamed-vs-batch pin holds with the guard on-path;
* **kill/resume** — a checkpointed run killed mid-stream and resumed
  produces a report bitwise-identical (results, total_samples) to an
  uninterrupted run, at chunk size 1 and 60, and through the CLI with a
  real ``os._exit`` kill;
* **quarantine** — one crashing attack never takes the session down:
  the rest finalize, the failure is recorded, and the CLI exits nonzero.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.stream import (
    STREAM_ATTACKS,
    Checkpointer,
    FeedDead,
    FeedGuard,
    GuardPolicy,
    StreamClock,
    StreamSession,
    TraceReplaySource,
    has_checkpoint,
    load_checkpoint,
    make_stream_attack,
    run_stream,
    tagged_chunks,
)
from repro.stream.checkpoint import STREAM_CHECKPOINT_VERSION, checkpoint_path
from repro.timeseries import PowerTrace


class _Sink:
    """Records what the guard delivers (array identity preserved)."""

    def __init__(self):
        self.chunks: list[np.ndarray] = []
        self.resyncs: list[int] = []

    def push(self, values):
        self.chunks.append(values)

    def resync(self, gap_samples):
        self.resyncs.append(gap_samples)

    @property
    def delivered(self) -> np.ndarray:
        if not self.chunks:
            return np.empty(0)
        return np.concatenate(self.chunks)


def _trace(n: int = 1200, seed: int = 0) -> PowerTrace:
    rng = np.random.default_rng(seed)
    values = np.abs(rng.normal(200.0, 40.0, n))
    for start in range(100, n - 150, 180):
        values[start : start + 90] += rng.choice([0.0, 400.0, 1200.0])
    return PowerTrace(values, period_s=60.0)


class TestGuardPolicy:
    def test_defaults_valid(self):
        policy = GuardPolicy()
        assert policy.value_policy == "hold-last"
        assert policy.gap_policy == "resync"
        assert policy.max_gap_samples is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"value_policy": "nuke"},
            {"gap_policy": "panic"},
            {"max_gap_samples": 0},
            {"max_gap_samples": -3},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            GuardPolicy(**kwargs)


class TestValuePolicies:
    def test_clean_chunk_forwarded_by_identity(self):
        # The clean-feed invariance pin: no copy, no modification.
        sink = _Sink()
        guard = FeedGuard(sink)
        chunk = np.array([100.0, 200.0, 300.0])
        guard.push(chunk)
        assert sink.chunks[0] is chunk
        assert guard.stats.quarantined_values == 0

    def test_hold_last_forward_fills(self):
        sink = _Sink()
        guard = FeedGuard(sink, GuardPolicy(value_policy="hold-last"))
        guard.push(np.array([100.0, np.nan, np.inf, 120.0, -5.0]))
        assert np.array_equal(
            sink.delivered, [100.0, 100.0, 100.0, 120.0, 120.0]
        )
        assert guard.stats.quarantined_values == 3

    def test_hold_last_spans_chunk_boundary(self):
        sink = _Sink()
        guard = FeedGuard(sink, GuardPolicy(value_policy="hold-last"))
        guard.push(np.array([100.0, 140.0]))
        guard.push(np.array([np.nan, 150.0]))
        assert np.array_equal(sink.delivered, [100.0, 140.0, 140.0, 150.0])

    def test_hold_last_with_no_history_uses_zero(self):
        sink = _Sink()
        guard = FeedGuard(sink, GuardPolicy(value_policy="hold-last"))
        guard.push(np.array([np.nan, 75.0]))
        assert np.array_equal(sink.delivered, [0.0, 75.0])

    def test_zero_fill(self):
        sink = _Sink()
        guard = FeedGuard(sink, GuardPolicy(value_policy="zero-fill"))
        guard.push(np.array([np.nan, 50.0, -1.0]))
        assert np.array_equal(sink.delivered, [0.0, 50.0, 0.0])

    def test_drop_shortens_but_clock_advances(self):
        sink = _Sink()
        guard = FeedGuard(sink, GuardPolicy(value_policy="drop"))
        guard.push(np.array([np.nan, 50.0, np.inf]))
        assert np.array_equal(sink.delivered, [50.0])
        # wall clock covers all three: the next in-order chunk is at 3
        assert guard.position == 3
        guard.push(np.array([60.0]))
        assert guard.stats.gaps == 0

    def test_all_bad_chunk_under_drop_delivers_nothing(self):
        sink = _Sink()
        guard = FeedGuard(sink, GuardPolicy(value_policy="drop"))
        guard.push(np.array([np.nan, np.nan]))
        assert sink.chunks == []
        assert guard.position == 2


class TestOrdering:
    def test_duplicate_chunk_rejected(self):
        sink = _Sink()
        guard = FeedGuard(sink)
        chunk = np.array([1.0, 2.0, 3.0])
        guard.push(chunk, at=0)
        guard.push(chunk, at=0)
        assert np.array_equal(sink.delivered, chunk)
        assert guard.stats.rejected_chunks == 1
        assert guard.stats.rejected_samples == 3

    def test_straddling_chunk_trimmed_to_novel_suffix(self):
        sink = _Sink()
        guard = FeedGuard(sink)
        guard.push(np.array([1.0, 2.0, 3.0]), at=0)
        guard.push(np.array([30.0, 40.0, 50.0]), at=2)  # overlaps sample 2
        assert np.array_equal(sink.delivered, [1.0, 2.0, 3.0, 40.0, 50.0])
        assert guard.stats.trimmed_samples == 1

    def test_gap_resync_resets_sink(self):
        sink = _Sink()
        guard = FeedGuard(sink, GuardPolicy(gap_policy="resync"))
        guard.push(np.array([1.0, 2.0]), at=0)
        guard.push(np.array([9.0]), at=7)
        assert sink.resyncs == [5]
        assert guard.stats.gaps == 1
        assert guard.stats.gap_samples == 5
        assert guard.position == 8

    def test_gap_hold_delivers_contiguously(self):
        sink = _Sink()
        guard = FeedGuard(sink, GuardPolicy(gap_policy="hold"))
        guard.push(np.array([1.0]), at=0)
        guard.push(np.array([9.0]), at=5)
        assert sink.resyncs == []
        assert np.array_equal(sink.delivered, [1.0, 9.0])
        assert guard.position == 6  # wall clock, not sample count

    def test_gap_fill_synthesizes_last_value(self):
        sink = _Sink()
        guard = FeedGuard(sink, GuardPolicy(gap_policy="fill"))
        guard.push(np.array([1.0, 7.0]), at=0)
        guard.push(np.array([9.0]), at=5)
        assert np.array_equal(sink.delivered, [1.0, 7.0, 7.0, 7.0, 7.0, 9.0])
        assert guard.stats.filled_samples == 3

    def test_watchdog_declares_feed_dead(self):
        sink = _Sink()
        guard = FeedGuard(sink, GuardPolicy(max_gap_samples=3))
        guard.push(np.array([1.0]), at=0)
        with pytest.raises(FeedDead):
            guard.push(np.array([9.0]), at=10)
        assert guard.stats.feed_dead
        # a dead feed stays dead
        with pytest.raises(FeedDead):
            guard.push(np.array([2.0]), at=1)

    def test_gap_at_watchdog_boundary_survives(self):
        sink = _Sink()
        guard = FeedGuard(sink, GuardPolicy(max_gap_samples=5))
        guard.push(np.array([1.0]), at=0)
        guard.push(np.array([2.0]), at=6)  # gap of exactly 5: allowed
        assert not guard.stats.feed_dead

    def test_rejects_bad_input(self):
        guard = FeedGuard(_Sink())
        with pytest.raises(ValueError):
            guard.push(np.ones((2, 2)))
        with pytest.raises(ValueError):
            guard.push(np.ones(2), at=-1)

    def test_empty_chunk_is_a_noop(self):
        sink = _Sink()
        guard = FeedGuard(sink)
        assert guard.push(np.empty(0)) == 0
        assert guard.position == 0
        assert sink.chunks == []

    def test_state_round_trip(self):
        guard = FeedGuard(_Sink(), GuardPolicy(gap_policy="hold"))
        guard.push(np.array([1.0, np.nan, 3.0]))
        state = guard.state_dict()
        fresh = FeedGuard(_Sink(), GuardPolicy(gap_policy="hold"))
        fresh.load_state(state)
        assert fresh.position == guard.position
        assert fresh.stats.as_dict() == guard.stats.as_dict()

    def test_state_rejects_policy_mismatch(self):
        guard = FeedGuard(_Sink(), GuardPolicy(gap_policy="hold"))
        state = guard.state_dict()
        other = FeedGuard(_Sink(), GuardPolicy(gap_policy="fill"))
        with pytest.raises(ValueError):
            other.load_state(state)


class _BoomAttack:
    """Registered crasher: raises at a configurable protocol stage."""

    def __init__(self, stage: str = "push", after_samples: int = 0):
        self.params = {"stage": stage, "after_samples": after_samples}
        self.stage = stage
        self.after_samples = after_samples
        self._seen = 0

    def open(self, clock):
        pass

    def push(self, values):
        self._seen += len(values)
        if self.stage == "push" and self._seen > self.after_samples:
            raise RuntimeError("boom in push")

    def resync(self, gap_samples=0):
        if self.stage == "resync":
            raise RuntimeError("boom in resync")

    def finalize(self):
        if self.stage == "finalize":
            raise RuntimeError("boom in finalize")
        return {"seen": self._seen}

    def state_dict(self):
        return {"seen": self._seen}

    def load_state(self, state):
        self._seen = state["seen"]


@pytest.fixture
def boom_registry():
    STREAM_ATTACKS["boom"] = _BoomAttack
    try:
        yield
    finally:
        STREAM_ATTACKS.pop("boom", None)


class TestQuarantine:
    def test_crashing_push_is_isolated(self, boom_registry):
        trace = _trace(600)
        report = run_stream(
            TraceReplaySource(trace),
            attacks=("edges", "niom", "boom"),
            chunk_samples=60,
            attack_kwargs={"boom": {"after_samples": 120}},
        )
        assert not report.ok
        assert [f.name for f in report.failures] == ["boom"]
        failure = report.failures[0]
        assert failure.stage == "push"
        assert "boom in push" in failure.error
        assert failure.at_sample == 120
        # the survivors finalized with full batch-equivalent results
        assert set(report.results) == {"edges", "niom"}
        clean = run_stream(
            TraceReplaySource(trace),
            attacks=("edges", "niom"),
            chunk_samples=60,
        )
        assert report.results == clean.results

    def test_crashing_finalize_is_isolated(self, boom_registry):
        report = run_stream(
            TraceReplaySource(_trace(600)),
            attacks=("edges", "boom"),
            chunk_samples=60,
            attack_kwargs={"boom": {"stage": "finalize"}},
        )
        assert not report.ok
        assert report.failures[0].stage == "finalize"
        assert "boom" not in report.results
        assert "edges" in report.results

    def test_quarantined_attack_stops_consuming(self, boom_registry):
        trace = _trace(600)
        session = StreamSession(
            StreamClock.of(trace),
            {"edges": make_stream_attack("edges"), "boom": _BoomAttack()},
        )
        for _, chunk in tagged_chunks(trace.values, 60):
            session.push(chunk)
        assert session.failures[0].at_sample == 0
        report = session.finalize()
        assert report.stats["boom"].pushes == 0
        assert report.stats["edges"].pushes == 10

    def test_failures_survive_state_round_trip(self, boom_registry):
        trace = _trace(600)
        session = StreamSession(
            StreamClock.of(trace),
            {
                "edges": make_stream_attack("edges"),
                "boom": make_stream_attack("boom"),
            },
        )
        session.push(trace.values[:120])
        assert session.failures
        rebuilt = StreamSession.from_state(session.state_dict())
        assert rebuilt.failures == session.failures
        rebuilt.push(trace.values[120:240])  # quarantined attack skipped
        report = rebuilt.finalize()
        assert [f.name for f in report.failures] == ["boom"]


class TestRegistryName:
    def test_make_stream_attack_stamps_name(self):
        attack = make_stream_attack("edges")
        assert attack.registry_name == "edges"

    def test_state_dict_uses_stamped_name(self):
        class _SubEdge(STREAM_ATTACKS["edges"]):
            pass

        STREAM_ATTACKS["subedge"] = _SubEdge
        try:
            trace = _trace(300)
            session = StreamSession(
                StreamClock.of(trace),
                {"x": make_stream_attack("subedge")},
            )
            state = session.state_dict()
            # isinstance probing would have matched the "edges" base class
            assert state["attacks"]["x"]["registry"] == "subedge"
        finally:
            STREAM_ATTACKS.pop("subedge", None)

    def test_unregistered_attack_fails_loudly(self):
        trace = _trace(300)

        class _Rogue(_BoomAttack):
            pass

        session = StreamSession(StreamClock.of(trace), {"r": _Rogue()})
        with pytest.raises(KeyError):
            session.state_dict()


class TestCleanFeedInvariance:
    @pytest.mark.parametrize("chunk", [1, 7, 60])
    def test_guarded_run_matches_unguarded_session(self, chunk):
        trace = _trace(720)
        report = run_stream(
            TraceReplaySource(trace),
            attacks=("edges", "niom", "hmm"),
            chunk_samples=chunk,
        )
        session = StreamSession(
            StreamClock.of(trace),
            {n: make_stream_attack(n) for n in ("edges", "niom", "hmm")},
        )
        for _, part in tagged_chunks(trace.values, chunk):
            session.push(part)
        bare = session.finalize()
        assert report.results == bare.results
        assert report.total_samples == bare.total_samples
        stats = report.guard
        assert stats["quarantined_values"] == 0
        assert stats["gap_samples"] == 0
        assert stats["rejected_chunks"] == 0
        assert stats["trimmed_samples"] == 0
        assert report.ok


class TestResyncSeamSafety:
    """Post-resync pushes must not trip the seam index arithmetic."""

    @pytest.mark.parametrize("settle", [1, 3, 5])
    @pytest.mark.parametrize("chunk", [1, 7, 60])
    def test_resync_then_stream_stays_well_formed(self, settle, chunk):
        trace = _trace(600)
        det_attacks = {
            "edges": make_stream_attack("edges", settle_samples=settle),
            "niom": make_stream_attack("niom"),
            "hmm": make_stream_attack("hmm"),
            "fhmm": make_stream_attack("fhmm"),
        }
        session = StreamSession(StreamClock.of(trace), det_attacks)
        session.push(trace.values[:200])
        session.resync(37)
        for _, part in tagged_chunks(trace.values[200:], chunk):
            session.push(part)
        report = session.finalize()
        assert not report.failures
        # wall-clock-true duration: pushed samples plus the gap
        assert report.total_samples == 600 + 37

    def test_post_resync_edges_stay_finite(self):
        # Regression: the carry-trim bound used to go negative after a
        # resync (wall clock ahead of buffered history), shedding the
        # pre-windows and minting NaN-magnitude edges.
        trace = _trace(600)
        att = make_stream_attack("edges", settle_samples=3)
        att.open(StreamClock.of(trace))
        att.push(trace.values[:200])
        att.resync(37)
        for _, part in tagged_chunks(trace.values[200:], 1):
            att.push(part)
        att.finalize()
        det = att.detector
        # carry saturates at 2 * settle once enough history accumulates
        assert len(det._carry) == 2 * det.settle_samples
        for edge in det.edges:
            assert np.isfinite(edge.delta_w)
            assert np.isfinite(edge.pre_w)
            assert np.isfinite(edge.post_w)

    def test_post_resync_edge_indices_are_wall_clock(self):
        det = make_stream_attack("edges").detector
        det.open(StreamClock(60.0))
        det.push(np.full(50, 100.0))
        det.resync(10)
        det.push(np.full(5, 100.0))
        emitted = det.push(np.array([900.0] * 5))
        det.finalize()
        (edge,) = det.edges
        # 50 pre-gap + 10 gap + 5 flat: the step lands at index 65
        assert edge.index == 65


class TestCheckpoint:
    def _run_to(self, trace, chunks, upto, ckdir, every=300):
        session = StreamSession(
            StreamClock.of(trace),
            {n: make_stream_attack(n) for n in ("edges", "niom", "hmm")},
        )
        guard = FeedGuard(session)
        ck = Checkpointer(ckdir, every_samples=every)
        for at, part in chunks[:upto]:
            guard.push(part, at=at)
            ck.maybe_write(session, guard)
        return session, guard, ck

    @pytest.mark.parametrize("chunk", [1, 60])
    def test_kill_and_resume_is_bitwise_identical(self, tmp_path, chunk):
        trace = _trace(900)
        chunks = list(tagged_chunks(trace.values, chunk))
        # "killed" run: consume 40% of the feed, then vanish
        self._run_to(trace, chunks, int(len(chunks) * 0.4), tmp_path)
        assert has_checkpoint(tmp_path)
        session_state, guard_state = load_checkpoint(tmp_path)
        resumed = StreamSession.from_state(session_state)
        guard = FeedGuard(resumed)
        guard.load_state(guard_state)
        for at, part in chunks:  # replay from the start
            guard.push(part, at=at)
        resumed_report = resumed.finalize(guard=guard)

        reference = StreamSession(
            StreamClock.of(trace),
            {n: make_stream_attack(n) for n in ("edges", "niom", "hmm")},
        )
        ref_guard = FeedGuard(reference)
        for at, part in chunks:
            ref_guard.push(part, at=at)
        ref_report = reference.finalize(guard=ref_guard)

        assert resumed_report.results == ref_report.results
        assert resumed_report.total_samples == ref_report.total_samples

    def test_write_cadence(self, tmp_path):
        trace = _trace(900)
        chunks = list(tagged_chunks(trace.values, 60))
        _, _, ck = self._run_to(trace, chunks, len(chunks), tmp_path, every=300)
        # first write at the first offered position, then every >= 300
        assert ck.writes == 3

    def test_missing_checkpoint_raises(self, tmp_path):
        assert not has_checkpoint(tmp_path)
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path)

    def test_torn_checkpoint_raises(self, tmp_path):
        checkpoint_path(tmp_path).write_bytes(b"\x80\x04 torn")
        with pytest.raises(ValueError, match="unreadable"):
            load_checkpoint(tmp_path)

    def test_foreign_pickle_raises(self, tmp_path):
        checkpoint_path(tmp_path).write_bytes(pickle.dumps({"not": "ours"}))
        with pytest.raises(ValueError, match="not a stream checkpoint"):
            load_checkpoint(tmp_path)

    def test_stale_format_raises(self, tmp_path):
        envelope = {
            "format": STREAM_CHECKPOINT_VERSION + 1,
            "kind": "stream-checkpoint",
            "session": {},
            "guard": {},
        }
        checkpoint_path(tmp_path).write_bytes(pickle.dumps(envelope))
        with pytest.raises(ValueError, match="stale"):
            load_checkpoint(tmp_path)

    def test_array_format_raises(self, tmp_path):
        envelope = {"format": np.array([5, 5]), "result": None}
        checkpoint_path(tmp_path).write_bytes(pickle.dumps(envelope))
        with pytest.raises(ValueError, match="not a stream checkpoint"):
            load_checkpoint(tmp_path)

    def test_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(tmp_path, every_samples=0)


class TestDegenerateFeeds:
    def test_empty_chunks_through_session(self):
        trace = _trace(300)
        session = StreamSession(
            StreamClock.of(trace),
            {n: make_stream_attack(n) for n in ("edges", "niom")},
        )
        session.push(np.empty(0))
        session.push(trace.values)
        session.push(np.empty(0))
        report = session.finalize()
        assert report.total_samples == 300
        assert not report.failures

    def test_zero_length_trace_quarantines_niom_only(self):
        # NIOM's too-short finalize guard becomes a recorded failure,
        # not a session crash; edges finalizes an empty result.
        report = run_stream(
            TraceReplaySource(PowerTrace(np.empty(0), period_s=60.0)),
            attacks=("edges", "niom"),
            chunk_samples=60,
        )
        assert report.total_samples == 0
        assert "edges" in report.results
        assert report.results["edges"]["n_edges"] == 0
        assert [f.name for f in report.failures] == ["niom"]
        assert report.failures[0].stage == "finalize"

    @pytest.mark.parametrize("chunk", [1, 60])
    def test_single_sample_trace_every_attack(self, chunk):
        trace = PowerTrace(np.array([150.0]), period_s=60.0)
        report = run_stream(
            TraceReplaySource(trace),
            attacks=tuple(sorted(STREAM_ATTACKS)),
            chunk_samples=chunk,
        )
        assert report.total_samples == 1
        # niom cannot calibrate on one sample; everything else completes
        assert [f.name for f in report.failures] == ["niom"]
        for name in ("edges", "hmm", "fhmm"):
            assert name in report.results
        assert report.results["hmm"]["n_labeled"] == 1


class TestStreamCLIHealth:
    def test_crashing_attack_exits_nonzero(self, boom_registry, capsys):
        code = main(
            [
                "stream",
                "--home",
                "home-a",
                "--days",
                "1",
                "--attacks",
                "edges,boom",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED attack boom" in out

    def test_feed_dead_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setenv(
            "REPRO_STREAM_FAULTS",
            json.dumps({"seed": 5, "dropout_rate": 0.5}),
        )
        code = main(
            [
                "stream",
                "--home",
                "home-a",
                "--days",
                "1",
                "--attacks",
                "edges",
                "--max-gap",
                "30",
            ]
        )
        assert code == 1
        assert "FEED DEAD" in capsys.readouterr().out

    def test_resume_without_checkpoint_dir_is_usage_error(self):
        assert main(["stream", "--home", "home-a", "--resume"]) == 2

    def test_cli_kill_and_resume_bitwise(self, tmp_path):
        """The acceptance pin: a real os._exit kill, then --resume."""
        ref_json = tmp_path / "ref.json"
        res_json = tmp_path / "res.json"
        ckdir = tmp_path / "ck"
        base = [
            "stream",
            "--home",
            "home-a",
            "--days",
            "1",
            "--seed",
            "7",
            "--attacks",
            "edges,niom,hmm",
            "--chunk",
            "60",
        ]
        assert main(base + ["--json", str(ref_json)]) == 0

        env = dict(os.environ)
        env["REPRO_STREAM_KILL_AFTER"] = "700"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in sys.path if p] or [""]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli"]
            + base
            + ["--checkpoint", str(ckdir), "--checkpoint-every", "300"],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 137
        assert has_checkpoint(ckdir)

        assert (
            main(
                base
                + [
                    "--checkpoint",
                    str(ckdir),
                    "--resume",
                    "--json",
                    str(res_json),
                ]
            )
            == 0
        )
        ref = json.loads(ref_json.read_text())
        res = json.loads(res_json.read_text())
        assert res["results"] == ref["results"]
        assert res["total_samples"] == ref["total_samples"]
        assert res["niom_score"] == ref["niom_score"]
