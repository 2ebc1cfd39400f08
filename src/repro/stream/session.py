"""StreamSession: fan one chunk feed into every registered online attack.

A :class:`StreamSession` owns a set of named attack adapters, pushes each
arriving chunk through all of them (timed under ``stage.stream.<name>``
telemetry), and produces a :class:`StreamReport` with per-attack results
and throughput.  Attacks are constructed through the
:data:`STREAM_ATTACKS` registry so sessions can be rebuilt by name — the
basis of both the CLI and mid-stream resume
(:meth:`StreamSession.state_dict` / :meth:`StreamSession.from_state`).

The session adds *no* numerical behavior of its own: every correctness
property (chunk-size invariance, batch equivalence) lives in the attack
objects in :mod:`repro.stream.edges` / ``.niom`` / ``.decode``; the
session only routes samples and observes time.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Iterable

import numpy as np

from ..attacks.niom import score_occupancy_attack
from ..obs import TELEMETRY, TelemetrySnapshot
from .decode import (
    StreamingFHMMDecoder,
    StreamingHMMDecoder,
    signature_fhmm,
    two_state_power_hmm,
)
from .edges import StreamingHart
from .faults import inject_stream_faults
from .guard import FeedDead, FeedGuard, GuardPolicy
from .niom import StreamingThresholdNIOM
from .source import StreamClock, TraceReplaySource, tagged_chunks


# ---------------------------------------------------------------------------
# Attack adapters: a uniform open/push/finalize/state protocol
# ---------------------------------------------------------------------------
class StreamAttack:
    """Base of the streamed attacks: the session protocol, forwarded.

    A streamed attack sets ``params``, the constructor arguments a
    resumed session rebuilds it from, and ``engine``, the incremental
    object every protocol call but ``finalize`` goes to.  It writes
    ``finalize``, which closes the engine and summarizes what it found.
    """

    params: dict
    engine: object

    def open(self, clock: StreamClock) -> None:
        self.engine.open(clock)

    def push(self, values: np.ndarray) -> None:
        self.engine.push(values)

    def resync(self, gap_samples: int = 0) -> None:
        self.engine.resync(gap_samples)

    def state_dict(self) -> dict:
        return self.engine.state_dict()

    def load_state(self, state: dict) -> None:
        self.engine.load_state(state)


class EdgeStreamAttack(StreamAttack):
    """Edge detection + Hart pairing as one streamed attack."""

    def __init__(
        self,
        min_delta_w: float = 30.0,
        settle_samples: int = 1,
        tolerance_w: float = 50.0,
    ) -> None:
        self.params = {
            "min_delta_w": min_delta_w,
            "settle_samples": settle_samples,
            "tolerance_w": tolerance_w,
        }
        self.engine = StreamingHart(min_delta_w, settle_samples, tolerance_w)
        self.detector = self.engine.detector

    def finalize(self) -> dict:
        self.pairs = self.engine.finalize()
        self.edges = self.detector.edges
        rising = sum(1 for e in self.edges if e.is_rising)
        return {
            "n_edges": len(self.edges),
            "n_rising": rising,
            "n_pairs": len(self.pairs),
            "n_open_rises": len(self.engine.pairer.open_rises),
        }


class NIOMStreamAttack(StreamAttack):
    """Online threshold NIOM as a streamed attack."""

    def __init__(
        self, window_s: float = 900.0, night_prior: bool = False
    ) -> None:
        self.params = {"window_s": window_s, "night_prior": night_prior}
        self.engine = StreamingThresholdNIOM(
            window_s=window_s, night_prior=night_prior
        )

    def finalize(self) -> dict:
        self.result = self.engine.finalize()
        occ = self.result.occupancy.values
        return {
            "n_windows": len(occ),
            "occupied_fraction": float(occ.mean()),
        }


class HMMStreamAttack(StreamAttack):
    """Online two-state activity decoding as a streamed attack."""

    def __init__(self, lag: int = 0) -> None:
        self.params = {"lag": lag}
        self.engine = self.decoder = StreamingHMMDecoder(
            two_state_power_hmm(), lag=lag
        )

    def finalize(self) -> dict:
        self.decoder.finalize()
        labels = self.decoder.labels
        return {
            "n_labeled": len(labels),
            "active_fraction": float((labels == 1).mean())
            if len(labels)
            else 0.0,
            "log_likelihood": self.decoder.log_likelihood(),
        }


class FHMMStreamAttack(StreamAttack):
    """Online signature-based NILM disaggregation as a streamed attack."""

    def __init__(self, lag: int = 0) -> None:
        self.params = {"lag": lag}
        self.engine = self.decoder = StreamingFHMMDecoder(
            signature_fhmm(), lag=lag
        )

    def finalize(self) -> dict:
        self.decoder.finalize()
        states = self.decoder.states
        on_fraction = (
            (states > 0).mean(axis=0).tolist() if len(states) else []
        )
        return {
            "n_labeled": int(len(states)),
            "chain_on_fraction": on_fraction,
            "log_likelihood": self.decoder.log_likelihood(),
        }


#: Registry of streamed attacks: name -> adapter factory.  The CLI, the
#: fleet streaming mode, and session resume all construct through this.
STREAM_ATTACKS: dict[str, Callable[..., object]] = {
    "edges": EdgeStreamAttack,
    "niom": NIOMStreamAttack,
    "hmm": HMMStreamAttack,
    "fhmm": FHMMStreamAttack,
}


def make_stream_attack(name: str, **kwargs):
    """Construct a registered streamed attack by name.

    The registry name is stamped on the adapter (``registry_name``) so
    :meth:`StreamSession.state_dict` can record it directly instead of
    probing the registry with ``isinstance`` — which misidentifies
    subclasses and breaks outright for non-class factories.
    """
    try:
        factory = STREAM_ATTACKS[name]
    except KeyError:
        known = ", ".join(sorted(STREAM_ATTACKS))
        raise KeyError(f"unknown stream attack {name!r} (known: {known})")
    attack = factory(**kwargs)
    attack.registry_name = name
    return attack


def stream_attack_names() -> list[str]:
    return sorted(STREAM_ATTACKS)


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------
@dataclass
class AttackStats:
    """Wall-clock accounting for one attack within a session."""

    samples: int = 0
    pushes: int = 0
    seconds: float = 0.0

    @property
    def samples_per_sec(self) -> float:
        return self.samples / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> dict:
        return {**asdict(self), "samples_per_sec": self.samples_per_sec}


@dataclass(frozen=True)
class AttackFailure:
    """One attack adapter quarantined mid-session.

    ``stage`` names the protocol call that raised (``push`` /
    ``resync`` / ``finalize``), ``at_sample`` the session sample count
    when it did.  The exception itself is flattened to a string so the
    record stays picklable across the fleet boundary.
    """

    name: str
    stage: str
    error: str
    at_sample: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class StreamReport:
    """Outcome of a streamed evaluation: results, health, throughput.

    ``niom_score`` is the NIOM output scored against the source's
    occupancy ground truth, when the source carries one and the ``niom``
    attack finished.
    """

    total_samples: int
    chunk_samples: int
    duration_s: float
    results: dict[str, dict]
    stats: dict[str, AttackStats]
    failures: tuple[AttackFailure, ...] = ()
    guard: dict | None = None
    niom_score: dict[str, float] | None = None

    @property
    def feed_dead(self) -> bool:
        """True when the guard's max-gap watchdog gave up on the feed."""
        return bool((self.guard or {}).get("feed_dead", False))

    @property
    def ok(self) -> bool:
        """Healthy run: every attack finished and the feed stayed alive."""
        return not self.failures and not self.feed_dead

    def as_dict(self) -> dict:
        doc = {
            "total_samples": self.total_samples,
            "chunk_samples": self.chunk_samples,
            "duration_s": self.duration_s,
            "ok": self.ok,
            "results": dict(self.results),
            "throughput": {
                name: st.as_dict() for name, st in self.stats.items()
            },
            "failures": [f.as_dict() for f in self.failures],
            "guard": dict(self.guard) if self.guard is not None else None,
        }
        if self.niom_score is not None:
            doc["niom_score"] = self.niom_score
        return doc


@dataclass(frozen=True, kw_only=True)
class HomeStreamResult(StreamReport):
    """One fleet home's streamed evaluation: its report plus its identity.

    :func:`~repro.fleet.engine.run_stream_job` returns one per home;
    ``telemetry`` is that job's counter/timer delta (``None`` while
    telemetry is off).
    """

    index: int
    preset: str
    home_name: str
    days: int
    trace_digest: str
    telemetry: TelemetrySnapshot | None = None

    def as_dict(self) -> dict:
        """The home's entry in the ``repro stream --homes`` document."""
        doc = super().as_dict()
        del doc["duration_s"]
        doc["attack_failures"] = doc.pop("failures")
        return {
            "index": self.index,
            "preset": self.preset,
            "home_name": self.home_name,
            "days": self.days,
            "trace_digest": self.trace_digest,
            **doc,
            "niom_score": self.niom_score,
            "feed_dead": self.feed_dead,
        }


class StreamSession:
    """Push one chunk feed through a set of named online attacks.

    A misbehaving adapter never takes the session down: any exception
    from an attack's ``push`` / ``resync`` / ``finalize`` quarantines
    that attack (recorded as an :class:`AttackFailure` on the report's
    ``failures``) while the remaining attacks keep consuming — the same
    per-job isolation contract the fleet supervisor gives home jobs.
    """

    def __init__(self, clock: StreamClock, attacks: dict[str, object]) -> None:
        if not attacks:
            raise ValueError("need at least one attack")
        self.clock = clock
        self.attacks = dict(attacks)
        self._stats = {name: AttackStats() for name in self.attacks}
        self._total = 0
        self._finalized = False
        self._quarantined: dict[str, AttackFailure] = {}
        for attack in self.attacks.values():
            attack.open(clock)

    def _quarantine(self, name: str, stage: str, exc: Exception) -> None:
        self._quarantined[name] = AttackFailure(
            name=name,
            stage=stage,
            error=f"{type(exc).__name__}: {exc}",
            at_sample=self._total,
        )
        TELEMETRY.count("stream.attack_failures")

    def push(self, values: np.ndarray) -> None:
        """Feed one chunk to every healthy attack, timing each one."""
        if self._finalized:
            raise RuntimeError("session already finalized")
        values = np.asarray(values, dtype=float)
        n = len(values)
        with TELEMETRY.timer("stage.stream.push"):
            for name, attack in self.attacks.items():
                if name in self._quarantined:
                    continue
                start = time.perf_counter()
                try:
                    with TELEMETRY.timer(f"stage.stream.{name}"):
                        attack.push(values)
                except Exception as exc:
                    self._quarantine(name, "push", exc)
                    continue
                stat = self._stats[name]
                stat.seconds += time.perf_counter() - start
                stat.samples += n
                stat.pushes += 1
        self._total += n
        TELEMETRY.count("stream.samples", n)

    def resync(self, gap_samples: int = 0) -> None:
        """Reset every healthy attack's seam state at a discontinuity.

        ``gap_samples`` advances the session's sample count so the
        report duration stays wall-clock-true over the gap.
        """
        if self._finalized:
            raise RuntimeError("session already finalized")
        if gap_samples < 0:
            raise ValueError("gap_samples must be >= 0")
        for name, attack in self.attacks.items():
            if name in self._quarantined:
                continue
            try:
                attack.resync(gap_samples)
            except Exception as exc:
                self._quarantine(name, "resync", exc)
        self._total += int(gap_samples)

    def finalize(
        self, guard: "FeedGuard | None" = None, chunk_samples: int = 0
    ) -> StreamReport:
        """Close every healthy attack and assemble the report.

        ``guard`` optionally attaches the feed guard's stats to the
        report (and its feed-dead verdict to the health contract).
        ``chunk_samples`` is recorded as the feed's chunk size; the
        session itself is chunk-agnostic.
        """
        if self._finalized:
            raise RuntimeError("session already finalized")
        self._finalized = True
        results = {}
        for name, attack in self.attacks.items():
            if name in self._quarantined:
                continue
            try:
                with TELEMETRY.timer(f"stage.stream.{name}"):
                    results[name] = attack.finalize()
            except Exception as exc:
                self._quarantine(name, "finalize", exc)
        duration = self._total * self.clock.period_s
        return StreamReport(
            total_samples=self._total,
            chunk_samples=chunk_samples,
            duration_s=duration,
            results=results,
            stats=dict(self._stats),
            failures=tuple(self._quarantined.values()),
            guard=guard.stats.as_dict() if guard is not None else None,
        )

    @property
    def total_samples(self) -> int:
        return self._total

    @property
    def failures(self) -> tuple[AttackFailure, ...]:
        """Attacks quarantined so far, in quarantine order."""
        return tuple(self._quarantined.values())

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable mid-stream state (picklable; arrays + plain data).

        Captures the registry name, constructor params, and internal state
        of every attack, so :meth:`from_state` can rebuild an equivalent
        session with no reference to the original objects.
        """
        attacks = {}
        for name, attack in self.attacks.items():
            reg_name = getattr(attack, "registry_name", None)
            if reg_name is None:
                # Adapter built directly, not via make_stream_attack:
                # exact-type match only (isinstance would claim
                # subclasses for the wrong registry entry).
                for rn, factory in STREAM_ATTACKS.items():
                    if type(attack) is factory:
                        reg_name = rn
                        break
            if reg_name is None:
                raise KeyError(
                    f"attack {name!r} ({type(attack).__name__}) is not a "
                    "registered stream attack; cannot serialize"
                )
            attacks[name] = {
                "registry": reg_name,
                "params": dict(attack.params),
                # A quarantined attack's internals may be mid-raise
                # garbage; its state is not worth carrying.
                "state": None
                if name in self._quarantined
                else attack.state_dict(),
            }
        return {
            "clock": self.clock.as_dict(),
            "total": self._total,
            "attacks": attacks,
            "failures": [f.as_dict() for f in self._quarantined.values()],
            "stats": {
                name: (st.samples, st.pushes, st.seconds)
                for name, st in self._stats.items()
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamSession":
        clock = StreamClock(**state["clock"])
        attacks = {
            name: make_stream_attack(spec["registry"], **spec["params"])
            for name, spec in state["attacks"].items()
        }
        session = cls(clock, attacks)
        for name, spec in state["attacks"].items():
            if spec["state"] is not None:
                session.attacks[name].load_state(spec["state"])
        session._total = int(state["total"])
        for record in state.get("failures", []):
            failure = AttackFailure(**record)
            session._quarantined[failure.name] = failure
        for name, (samples, pushes, seconds) in state["stats"].items():
            session._stats[name] = AttackStats(samples, pushes, seconds)
        return session


def resume_mismatch(
    resume: tuple[dict, dict],
    attacks: Iterable[str],
    attack_kwargs: dict[str, dict] | None = None,
    guard_policy: GuardPolicy | None = None,
) -> str | None:
    """Why ``resume`` cannot continue the run the other arguments ask for.

    ``resume`` is a :func:`~repro.stream.checkpoint.load_checkpoint`
    pair.  :func:`run_stream` restores the checkpoint's attacks with
    their saved parameters, and the restored guard refuses another
    policy, so a checkpoint written for other attacks, another ``lag``
    or another guard policy cannot continue this run.  Returns ``None``
    when it can; checks without touching any feed.
    """
    attack_kwargs = attack_kwargs or {}
    wanted = {
        name: make_stream_attack(name, **attack_kwargs.get(name, {})).params
        for name in attacks
    }
    saved = {
        name: spec["params"] for name, spec in resume[0]["attacks"].items()
    }
    if set(saved) != set(wanted):
        return f"it runs attacks {','.join(saved)}, not {','.join(wanted)}"
    for name, params in wanted.items():
        if saved[name] != params:
            return f"its {name} attack has {saved[name]}, not {params}"
    policy = (guard_policy or GuardPolicy()).as_dict()
    if resume[1]["policy"] != policy:
        return f"its guard policy is {resume[1]['policy']}, not {policy}"
    return None


def run_stream(
    source: TraceReplaySource,
    attacks: Iterable[str] = ("edges", "niom"),
    chunk_samples: int = 60,
    attack_kwargs: dict[str, dict] | None = None,
    guard_policy: GuardPolicy | None = None,
    fault_plan=None,
    checkpointer=None,
    kill_after: int | None = None,
    resume: tuple[dict, dict] | None = None,
) -> StreamReport:
    """Replay ``source`` through a guarded session: the one way to stream.

    The session runs ``attacks`` (``attack_kwargs`` maps a name to
    constructor kwargs, e.g. ``{"hmm": {"lag": 120}}``), or is restored
    from ``resume``, a :func:`~repro.stream.checkpoint.load_checkpoint`
    pair: the feed still replays from the start, and the restored
    guard's cursor rejects the consumed prefix.  The
    :class:`~repro.stream.guard.FeedGuard` (``guard_policy`` or default)
    is off-path on a clean feed; a ``fault_plan``
    (:class:`~repro.stream.faults.StreamFaultPlan`) degrades the tagged
    chunks before the guard sees them.  ``checkpointer`` is offered the
    session after every admitted chunk, and ``kill_after`` hard-kills
    the process (``os._exit(137)``) once the guard reaches that sample,
    the SIGKILL stand-in of the kill-and-resume tests.  A dead feed is
    finalized with what was decoded, and NIOM is scored when the source
    carries occupancy.
    """
    if resume is None:
        attack_kwargs = attack_kwargs or {}
        session = StreamSession(
            source.clock,
            {
                name: make_stream_attack(name, **attack_kwargs.get(name, {}))
                for name in attacks
            },
        )
    else:
        session = StreamSession.from_state(resume[0])
    guard = FeedGuard(session, guard_policy)
    if resume is not None:
        guard.load_state(resume[1])
    feed = tagged_chunks(source.trace.values, chunk_samples)
    if fault_plan is not None:
        feed = inject_stream_faults(feed, fault_plan)
    try:
        for at, chunk in feed:
            guard.push(chunk, at=at)
            if checkpointer is not None:
                checkpointer.maybe_write(session, guard)
            if kill_after is not None and guard.position >= kill_after:
                os._exit(137)
    except FeedDead:
        pass
    report = session.finalize(guard, chunk_samples)
    if source.occupancy is not None and "niom" in report.results:
        niom = session.attacks["niom"].result.occupancy
        score = score_occupancy_attack(niom, source.occupancy)
        report = replace(report, niom_score=score)
    return report
