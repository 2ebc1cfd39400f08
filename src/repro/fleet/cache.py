"""Content-addressed on-disk cache for per-home fleet results.

A cache entry is keyed by *everything that determines the result*: the
home config fingerprint, the simulated duration, the exact seed streams,
the defense list, and the detector ensemble (plus a format version so
stale entries from older layouts are ignored, not misread).  Re-running a
sweep therefore only pays for cells that actually changed; widening a
fleet, adding a defense, or bumping ``days`` recomputes exactly the new
cells.

Entries are stored as ``<cache_dir>/<k[:2]>/<key>.pkl`` (two-level fanout
keeps directories small at fleet scale), written through
:func:`~repro.datasets.io.write_atomic` and read back through
:func:`~repro.datasets.io.read_envelope`, so a crashed worker can never
leave a torn entry that a later run would trust.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..datasets.io import EnvelopeFault, read_envelope, write_atomic
from ..obs import TELEMETRY
from .spec import HomeJob

#: bump when HomeResult's layout (or anything scoring-relevant that the
#: key can't see) changes, invalidating every existing entry at once.
#: v2: entries are wrapped in a versioned envelope so reads can verify
#: *what* they loaded, not just that it unpickled.
#: v3: HomeResult grew a telemetry field (always stored as None so cache
#: bytes are identical whether or not telemetry was collected).
#: v4: HomeResult grew metered/payload trace-channel fields (both always
#: stored as None so cache bytes are identical under every backend).
#: v5: HomeResult lost the metered/payload fields (always None in v4).
CACHE_FORMAT_VERSION = 5


def _seed_state(seq: np.random.SeedSequence) -> list:
    """The parts of a SeedSequence that determine its stream."""
    entropy = seq.entropy
    if isinstance(entropy, (list, tuple)):
        entropy = [int(e) for e in entropy]
    else:
        entropy = int(entropy)
    return [entropy, [int(k) for k in seq.spawn_key], int(seq.pool_size)]


def job_cache_key(job: HomeJob) -> str:
    """Deterministic hex key for one home's (config, seeds, scoring) cell."""
    doc = json.dumps(
        {
            "version": CACHE_FORMAT_VERSION,
            "config": job.fingerprint,
            "days": job.days,
            "sim_seed": _seed_state(job.sim_seed),
            "defense_seed": _seed_state(job.defense_seed),
            "defenses": list(job.defenses),
            "detectors": list(job.detectors),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(doc.encode()).hexdigest()


def _canonical(obj, memo: dict):
    """Rebuild an object graph with by-value sharing, for stable pickles.

    Pickle memoizes by *identity*: two equal strings are written once if
    they are the same object, twice if not.  Which equal objects share
    identity depends on the execution path that produced the result — a
    serial run's :class:`~repro.fleet.engine.HomeResult` shares string
    objects with its job, while a pool worker's result was restructured
    by the pipe round-trip.  Rebuilding the graph with equal immutables
    deduplicated (in deterministic field/insertion order) makes the
    cache entry's bytes a pure function of its *values*, so every
    executor backend writes the identical entry — a property the
    backend-parity tests pin byte for byte.
    """
    if obj is None or isinstance(obj, (bool, int, float)):
        return obj
    if isinstance(obj, (str, bytes)):
        # intern plain strings: pickle also emits the *attribute-name*
        # keys of dataclass ``__dict__`` state, which are interned — a
        # value string equal to a field name must be the same object on
        # every path or the memo-reference structure diverges
        if type(obj) is str:
            obj = sys.intern(obj)
        return memo.setdefault((type(obj), obj), obj)
    if isinstance(obj, tuple):
        rebuilt = tuple(_canonical(v, memo) for v in obj)
        try:
            return memo.setdefault((tuple, rebuilt), rebuilt)
        except TypeError:  # unhashable member — sharing can't matter
            return rebuilt
    if isinstance(obj, list):
        return [_canonical(v, memo) for v in obj]
    if isinstance(obj, dict):
        return {
            _canonical(k, memo): _canonical(v, memo) for k, v in obj.items()
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return type(obj)(
            **{
                f.name: _canonical(getattr(obj, f.name), memo)
                for f in dataclasses.fields(obj)
            }
        )
    return obj


@dataclass
class CacheStats:
    """Hit/miss accounting for one runner pass.

    ``corrupt`` counts the subset of misses caused by entries that *exist*
    but could not be trusted (torn pickle, wrong object type) — distinct
    from both plain misses (no file) and ``stale`` entries written by an
    older cache format.  Corrupt entries keep miss semantics so a sweep
    can never be poisoned or aborted by cache rot, but the rot itself is
    no longer silent: it surfaces in fleet reports and telemetry.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    stale: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "stale": self.stale,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """Pickle-backed store of per-home results under one directory."""

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.pkl"

    def get(self, key: str):
        """Cached :class:`~repro.fleet.engine.HomeResult` for ``key``, or None.

        Anything short of a well-formed envelope holding a ``HomeResult``
        of the current format version is treated as a miss: unreadable
        files, torn/truncated pickles, *and* corrupt-but-loadable objects
        (wrong type, stale envelope).  A cache read must never be able to
        poison — or abort — a sweep; but unlike a plain miss (no file),
        untrustworthy entries are *classified* — ``corrupt`` for rot,
        ``stale`` for old formats — and counted in both ``stats`` and the
        telemetry registry so silent cache rot shows up in fleet reports.
        """
        from .engine import HomeResult  # function-level: engine imports us

        with TELEMETRY.timer("cache.read"):
            envelope = read_envelope(self._path(key), CACHE_FORMAT_VERSION)
            if isinstance(envelope, EnvelopeFault):
                return self._miss(envelope)
            result = envelope.get("result")
            if not isinstance(result, HomeResult):
                return self._miss(EnvelopeFault.CORRUPT)
            self.stats.hits += 1
            TELEMETRY.count("cache.hit")
            return result

    def _miss(self, fault: EnvelopeFault):
        self.stats.misses += 1
        TELEMETRY.count("cache.miss")
        if fault is EnvelopeFault.STALE:
            self.stats.stale += 1
            TELEMETRY.count("cache.stale_entry")
        elif fault is not EnvelopeFault.MISSING:  # corrupt or foreign: rot
            self.stats.corrupt += 1
            TELEMETRY.count("cache.corrupt_entry")
        return None

    def put(self, key: str, value) -> None:
        """Atomically store ``value`` under ``key`` in a versioned envelope."""
        with TELEMETRY.timer("cache.write"):
            # canonical copy: entry bytes depend only on values, never on
            # which execution path (backend, pipe, retry) built the graph
            envelope = {
                "format": CACHE_FORMAT_VERSION,
                "result": _canonical(value, {}),
            }
            write_atomic(
                self._path(key),
                pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL),
            )
        self.stats.stores += 1
        TELEMETRY.count("cache.store")

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*/*.pkl"))
