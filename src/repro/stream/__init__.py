"""repro.stream — online attack evaluation over live meter feeds.

The paper's threat model is an observer watching a smart-meter feed *as
it arrives*.  This package turns every batch attack family in the repo
into a push-based online evaluator with explicit seam contracts:

* :mod:`~repro.stream.source` — the one chunk feed,
  :class:`TraceReplaySource` (a trace plus, for a simulated home, its
  occupancy ground truth), on a fixed :class:`StreamClock`;
* :mod:`~repro.stream.edges` — incremental edge detection and Hart
  pairing, bitwise-equal to the batch pass for any chunking;
* :mod:`~repro.stream.niom` — online threshold NIOM with incremental
  window features, bitwise-equal batch finalize;
* :mod:`~repro.stream.decode` — filtering / bounded-lag HMM and FHMM
  decoding on the sequential forward kernel;
* :mod:`~repro.stream.session` — :class:`StreamSession` fan-out,
  the :data:`STREAM_ATTACKS` registry, throughput reporting, attack
  quarantine, resume, and :func:`run_stream`, the one entry point: it
  builds (or restores) the guarded session, replays the source through
  it and returns a :class:`StreamReport`, which the CLI prints and a
  streamed fleet home wraps as a :class:`HomeStreamResult`;
* :mod:`~repro.stream.guard` — :class:`FeedGuard` admission control
  for dirty feeds (value quarantine, gap policies, duplicate/late
  rejection, max-gap watchdog);
* :mod:`~repro.stream.checkpoint` — periodic versioned checkpoints so
  a killed run resumes bitwise-identically;
* :mod:`~repro.stream.faults` — deterministic feed-fault injection
  (dropout / corrupt / duplicate / stall) for chaos testing.
"""

from .checkpoint import (
    STREAM_CHECKPOINT_VERSION,
    Checkpointer,
    has_checkpoint,
    load_checkpoint,
)
from .decode import (
    StreamingFHMMDecoder,
    StreamingHMMDecoder,
    signature_fhmm,
    two_state_power_hmm,
)
from .edges import StreamingEdgeDetector, StreamingHartPairer
from .faults import (
    STREAM_FAULTS_ENV,
    StreamFaultPlan,
    inject_stream_faults,
)
from .guard import FeedDead, FeedGuard, GuardPolicy, GuardStats
from .niom import StreamingThresholdNIOM
from .session import (
    STREAM_ATTACKS,
    AttackFailure,
    AttackStats,
    EdgeStreamAttack,
    FHMMStreamAttack,
    HMMStreamAttack,
    HomeStreamResult,
    NIOMStreamAttack,
    StreamAttack,
    StreamReport,
    StreamSession,
    make_stream_attack,
    resume_mismatch,
    run_stream,
    stream_attack_names,
)
from .source import (
    StreamClock,
    TraceReplaySource,
    iter_chunks,
    simulated_meter_source,
    tagged_chunks,
)

__all__ = [
    "STREAM_ATTACKS",
    "STREAM_CHECKPOINT_VERSION",
    "STREAM_FAULTS_ENV",
    "AttackFailure",
    "AttackStats",
    "Checkpointer",
    "EdgeStreamAttack",
    "FHMMStreamAttack",
    "FeedDead",
    "FeedGuard",
    "GuardPolicy",
    "GuardStats",
    "HMMStreamAttack",
    "HomeStreamResult",
    "NIOMStreamAttack",
    "StreamAttack",
    "StreamClock",
    "StreamFaultPlan",
    "StreamReport",
    "StreamSession",
    "StreamingEdgeDetector",
    "StreamingFHMMDecoder",
    "StreamingHMMDecoder",
    "StreamingHartPairer",
    "StreamingThresholdNIOM",
    "TraceReplaySource",
    "has_checkpoint",
    "inject_stream_faults",
    "iter_chunks",
    "load_checkpoint",
    "make_stream_attack",
    "resume_mismatch",
    "run_stream",
    "simulated_meter_source",
    "stream_attack_names",
    "tagged_chunks",
    "two_state_power_hmm",
    "signature_fhmm",
]
