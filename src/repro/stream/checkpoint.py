"""Periodic checkpointing for long-running stream sessions.

A collector scoring a live feed for months *will* be killed — deploys,
OOMs, power cuts.  :class:`Checkpointer` writes the full mid-stream
state (:meth:`StreamSession.state_dict` plus the
:class:`~repro.stream.guard.FeedGuard` cursor) to disk every
``every_samples`` admitted samples, in the same trust model as the fleet
cache: a versioned pickle envelope written through
:func:`~repro.datasets.io.write_atomic` and read back through
:func:`~repro.datasets.io.read_envelope`, so a crash mid-write can never
leave a torn checkpoint a resume would trust.

Resume is deliberately dumb: :func:`load_checkpoint` rebuilds the
session and guard, and the caller replays the feed *from the start*.
The restored guard cursor makes the guard reject the already-consumed
prefix as duplicates and trim the chunk straddling the checkpoint, so
the attacks see exactly the unseen suffix — which is why a killed and
resumed run finishes bitwise-identical to an uninterrupted one (pinned
in ``tests/test_stream_guard.py`` and the CLI kill-and-resume drive).
"""

from __future__ import annotations

import pickle
from pathlib import Path

from ..datasets.io import EnvelopeFault, read_envelope, write_atomic
from ..obs import TELEMETRY

#: bump when the envelope layout or the session/guard state schema
#: changes; older checkpoints are then refused with a clear error
#: instead of being misread into a half-restored session.
STREAM_CHECKPOINT_VERSION = 1

_CHECKPOINT_NAME = "stream_checkpoint.pkl"


def checkpoint_path(directory: str | Path) -> Path:
    """Where a checkpoint lives inside ``directory``."""
    return Path(directory) / _CHECKPOINT_NAME


def has_checkpoint(directory: str | Path) -> bool:
    """True when ``directory`` holds a checkpoint file."""
    return checkpoint_path(directory).is_file()


class Checkpointer:
    """Write session+guard state every N admitted samples."""

    def __init__(self, directory: str | Path, every_samples: int = 3600) -> None:
        if every_samples < 1:
            raise ValueError("every_samples must be >= 1")
        self.directory = Path(directory)
        self.every_samples = int(every_samples)
        self.writes = 0
        self._last_position = -1

    def maybe_write(self, session, guard) -> bool:
        """Write when the guard advanced ``every_samples`` since the last
        write; return True when a checkpoint was written."""
        position = guard.position
        if (
            self._last_position >= 0
            and position - self._last_position < self.every_samples
        ):
            return False
        if position == self._last_position:
            return False
        self.write(session, guard)
        return True

    def write(self, session, guard) -> None:
        """Unconditionally persist the current state (atomic replace)."""
        envelope = {
            "format": STREAM_CHECKPOINT_VERSION,
            "kind": "stream-checkpoint",
            "session": session.state_dict(),
            "guard": guard.state_dict(),
        }
        with TELEMETRY.timer("stream.checkpoint_write"):
            write_atomic(
                checkpoint_path(self.directory),
                pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL),
            )
        self._last_position = guard.position
        self.writes += 1
        TELEMETRY.count("stream.checkpoint_writes")


def load_checkpoint(directory: str | Path) -> tuple[dict, dict]:
    """Load ``(session_state, guard_state)`` from ``directory``.

    Raises ``FileNotFoundError`` when no checkpoint exists and
    ``ValueError`` for torn, foreign, or stale-format files — a resume
    must fail loudly rather than continue from a state it can't trust.
    """
    path = checkpoint_path(directory)
    envelope = read_envelope(path, STREAM_CHECKPOINT_VERSION, kind="stream-checkpoint")
    if envelope is EnvelopeFault.MISSING:
        raise FileNotFoundError(f"no stream checkpoint at {path}")
    if envelope is EnvelopeFault.CORRUPT:
        raise ValueError(f"unreadable checkpoint {path}")
    if envelope is EnvelopeFault.FOREIGN:
        raise ValueError(f"{path} is not a stream checkpoint")
    if envelope is EnvelopeFault.STALE:
        raise ValueError(f"{path} is a stale checkpoint (another format); delete it")
    return envelope["session"], envelope["guard"]
