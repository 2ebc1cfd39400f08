"""In-memory span tracing for the benchmark's traced run.

The traced run wraps public functions of the program's layers from the
benchmark's own files; no program code changes.  Every wrapped call records
a span: its name, start and end (``time.perf_counter``, which reads the
system-wide monotonic clock, so times from different processes compare),
the span that was open when it began, and the unit of work it belongs to.

Spans stay in memory in each process.  Pools fork their workers, so the
wrappers installed before a pool starts are live in its workers; each
worker writes its spans to the trace directory when it exits, and the
main process reads them back once the traced phase is over.

A layer's *self time* is a span's duration minus the part of it that its
child spans cover, so self times summed by layer split a run's time
without counting any interval twice.
"""

from __future__ import annotations

import functools
import inspect
import multiprocessing.util
import os
import pickle
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

#: The tracer a pool worker reports to.  Pool workers start from a fork of
#: the main process, so they find its tracer here (the wrappers reach it
#: through their closures); ``Tracer.install`` sets it and ``restore``
#: clears it.
_ACTIVE: "Tracer | None" = None

#: Unit spans: one job in a pool worker (a home-cell or a netpriv job),
#: and one chunk pushed into the stream.
JOB_SPAN = "fleet.engine.job"
PUSH_SPAN = "stream.push"

_MISSING = object()


@dataclass(frozen=True)
class Span:
    """One finished span; ``parent`` indexes the same process's spans."""

    name: str
    start: float
    end: float
    parent: int
    unit: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ProcessTrace:
    """Everything one process recorded."""

    pid: int
    spans: list[Span]
    counts: Counter = field(default_factory=Counter)
    keys: set = field(default_factory=set)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval first, and overlapping
    children count once, so the result never goes below zero for spans
    that nest the way calls do.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        intervals = sorted(
            (max(spans[k].start, span.start), min(spans[k].end, span.end))
            for k in children.get(index, ())
        )
        covered = 0.0
        run_start = run_end = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span.duration - covered)
    return out


def enclosing(spans: list[Span], names: Iterable[str]) -> list[int]:
    """Index of each span's nearest proper ancestor named in ``names``.

    ``-1`` where no ancestor has one of those names.
    """
    wanted = set(names)
    out: list[int] = []
    for span in spans:
        parent = span.parent
        while parent >= 0 and spans[parent].name not in wanted:
            parent = spans[parent].parent
        out.append(parent)
    return out


class Tracer:
    """Records spans, counts and distinct keys; installs and removes wrappers.

    ``out_dir`` is where pool workers write what they recorded when they
    exit.  The main process's records stay in memory until :meth:`collect`.
    """

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []
        self._paused = False
        #: ``job -> (unit id, home key or None)`` for pool jobs; workers
        #: inherit it with the tracer, so it is never pickled
        self.describe_job: Callable = lambda job: (None, None)
        #: main-process job timing: submit and result-arrival instants
        self.submitted: list[float] = []
        self.arrived: list[float] = []
        self._clear()

    def _clear(self) -> None:
        self._records: list[list] = []  # [name, start, end, parent, unit]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.keys: set[tuple[str, str]] = set()

    # -- recording -----------------------------------------------------
    def begin(self, name: str, unit: str | None = None) -> int:
        """Open a span; returns its handle for :meth:`end` (-1 if paused)."""
        if self._paused:
            return -1
        self._local()
        parent = self._stack[-1] if self._stack else -1
        if unit is None and parent >= 0:
            unit = self._records[parent][4]
        handle = len(self._records)
        self._records.append([name, time.perf_counter(), 0.0, parent, unit])
        self._stack.append(handle)
        return handle

    def end(self, handle: int) -> None:
        if handle < 0:
            return
        self._records[handle][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, unit: str | None = None):
        handle = self.begin(name, unit)
        try:
            yield
        finally:
            self.end(handle)

    def count(self, name: str, amount: float = 1) -> None:
        if not self._paused:
            self._local()
            self.counts[name] += amount

    def note(self, kind: str, key: str) -> None:
        """Record one distinct key (e.g. a home's fingerprint) of a kind."""
        if not self._paused:
            self._local()
            self.keys.add((kind, key))

    @contextmanager
    def paused(self):
        """Record nothing inside: for the benchmark's own checks."""
        previous, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = previous

    def _local(self) -> None:
        """First record in a forked worker: drop the main process's inherited
        records and arrange to write this process's own at exit."""
        pid = os.getpid()
        if pid == self._pid:
            return
        self._pid = pid
        self._clear()
        self._patches = []
        self.submitted, self.arrived = [], []
        # multiprocessing runs these finalizers as a worker process exits
        multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    def flush(self) -> None:
        """Write this process's records to the trace directory."""
        if not self._records and not self.counts and not self.keys:
            return
        trace = self._snapshot()
        path = self.out_dir / f"spans-{trace.pid}-{time.monotonic_ns()}.pkl"
        with path.open("wb") as handle:
            pickle.dump(trace, handle, protocol=pickle.HIGHEST_PROTOCOL)

    def _snapshot(self) -> ProcessTrace:
        return ProcessTrace(
            pid=self._pid,
            spans=[Span(*record) for record in self._records],
            counts=Counter(self.counts),
            keys=set(self.keys),
        )

    def collect(self) -> list[ProcessTrace]:
        """The main process's records plus every record file a worker wrote."""
        traces = [self._snapshot()]
        for path in sorted(self.out_dir.glob("spans-*.pkl")):
            with path.open("rb") as handle:
                traces.append(pickle.load(handle))
        return traces

    # -- wrappers ------------------------------------------------------
    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``owner`` is a module or a class; class- and static methods keep
        their kind.  ``after(result, *args, **kwargs)`` runs once the span
        has closed, to count what the call did without timing the count.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            handle = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(handle)
            if after is not None and not tracer._paused:
                after(result, *args, **kwargs)
            return result

        self.replace(owner, attr, kind(traced) if kind is not None else traced)

    def install(self) -> None:
        """Make this the tracer that pool workers report to."""
        global _ACTIVE
        _ACTIVE = self

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        global _ACTIVE
        for owner, attr, own in reversed(self._patches):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patches.clear()
        if _ACTIVE is self:
            _ACTIVE = None


def active_tracer() -> Tracer | None:
    """The installed tracer; in a forked worker, the one its parent installed."""
    return _ACTIVE


def run_job(fn: Callable, *args, **kwargs):
    """Pool-side unit span around one job; runs in the worker."""
    tracer = _ACTIVE
    job = args[0]
    unit, home = tracer.describe_job(job)
    if home is not None:
        tracer.note("home", home)
    if getattr(job, "attempt", 0):
        tracer.count("fleet.engine.retries")
    with tracer.span(JOB_SPAN, unit):
        return fn(*args, **kwargs)


class TracedPool(ProcessPoolExecutor):
    """The engine's pool with every job wrapped in a unit span.

    Swapped in for ``ProcessPoolExecutor`` in the engine's namespace, so
    each pool the supervisor starts counts itself, times its submits, and
    stamps when each result reaches the main process.
    """

    def __init__(self, *args, **kwargs) -> None:
        _ACTIVE.count("fleet.engine.pools_started")
        super().__init__(*args, **kwargs)

    def submit(self, fn, /, *args, **kwargs):
        tracer = _ACTIVE
        tracer.submitted.append(time.perf_counter())
        with tracer.span("fleet.engine.submit"):
            future = super().submit(run_job, fn, *args, **kwargs)
        future.add_done_callback(
            lambda _f: tracer.arrived.append(time.perf_counter())
        )
        return future
