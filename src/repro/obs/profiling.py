"""Opt-in cProfile capture for fleet worker stages.

Telemetry answers "how long did each stage take"; profiling answers "why".
:func:`maybe_profile` wraps a block in :class:`cProfile.Profile` and dumps
a ``.pstats`` file per invocation into a target directory — but only when
a directory is configured, so the default path costs one dict lookup.

The directory crosses the process boundary through :data:`PROFILE_DIR_ENV`
(the same env-inheritance trick as fault injection and telemetry), so
``repro fleet --profile DIR`` profiles every worker job no matter which
process runs it.  Fleet jobs dump ``home-<index>-<key>-a<attempt>``
(see :func:`repro.fleet.engine.profile_name`); inspect one with::

    python -m pstats DIR/home-0003-1f2e3d4c-a0.pstats
"""

from __future__ import annotations

import marshal
import os
from contextlib import contextmanager
from pathlib import Path

#: Directory for per-job ``.pstats`` dumps; unset/empty disables profiling.
PROFILE_DIR_ENV = "REPRO_PROFILE_DIR"


def active_profile_dir() -> Path | None:
    """The profile dump directory exported through the env, if any."""
    raw = os.environ.get(PROFILE_DIR_ENV)
    return Path(raw) if raw else None


@contextmanager
def maybe_profile(name: str, directory: str | Path | None = None):
    """Profile the enclosed block into ``<dir>/<name>.pstats``.

    ``directory`` defaults to the env-configured dump dir; when neither is
    set the block runs unobserved and nothing touches the filesystem.
    Yields the live :class:`cProfile.Profile` (or ``None`` when disabled).
    """
    directory = Path(directory) if directory is not None else active_profile_dir()
    if directory is None:
        yield None
        return
    import cProfile

    profile = cProfile.Profile()
    profile.enable()
    try:
        yield profile
    finally:
        profile.disable()
        # Profile.dump_stats's bytes; a late import, as repro.datasets
        # imports modules that import this package
        from ..datasets.io import write_atomic

        profile.create_stats()
        write_atomic(directory / f"{name}.pstats", marshal.dumps(profile.stats))
