"""The benchmark's four workloads: set-up, timed rounds and output checks.

Every workload is a closed loop: a client starts its next round only after
the previous one returned.  A round is the unit the throughput median is
taken over:

* ``sweep``   one cold Sec. III-E knob grid, fresh cache (home-cells);
* ``extend``  one grid extension over a copy of a warm cache (home-cells);
* ``netpriv`` one Sec. IV arms-race grid (jobs);
* ``stream``  one home's week replayed push by push (meter samples), by
  each of two clients.

Every timed round is bracketed by host-speed calibrations
(:mod:`hostspeed`), so its rate can be reported at the reference speed.
Inputs derive from the workload seed only; the program sees nothing else.
Outputs are checked every round: cell digests against the digests pinned
for the default seed and against the run's first round, extension cache
hits against the digests their set-up pass wrote, and streamed attacks
against their batch counterparts.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.attacks import ThresholdNIOM
from repro.fleet import (
    NetprivGrid,
    NetprivSweepRunner,
    SweepGrid,
    SweepRunner,
    result_digest,
)
from repro.home.household import simulate_home
from repro.home.presets import make_preset
from repro.stream import (
    FeedGuard,
    StreamClock,
    StreamSession,
    iter_chunks,
    make_stream_attack,
)
from repro.timeseries import detect_edges
from hostspeed import REFERENCE_S, at_reference, calibrate, calibrate_all
from spans import PUSH_SPAN, active_tracer

#: Pool size: the reference VM has two vCPUs.
WORKERS = 2
#: Seed whose cell and job digests are pinned in ``digests.json``.
DEFAULT_SEED = 0
PINNED = Path(__file__).with_name("digests.json")

SWEEP_DEFENSES = ("chpr", "nill", "stepped", "dp-laplace")
SWEEP_HOMES = 16
EXTEND_DEFENSES = ("noise", "dp-laplace", "smoothing", "coarsening")
EXTEND_DETECTORS = ("threshold-15m", "threshold-60m")
EXTEND_HOMES = 60
NETPRIV_DEFENSES = ("cover", "constant-rate", "merge", "jitter")
#: One-day LANs: a grid takes about 4 s, so a 20 s run times five or six
#: rounds.  Two-day LANs gave three, and the run-to-run spread of their
#: median was larger.
NETPRIV_DAYS = 1
STREAM_HOMES = 16
#: One stream client per vCPU.  The reference VM's two vCPUs ran the same
#: replay at rates up to 50% apart, and which one a lone client landed on
#: decided its result; two clients, one pinned to each, measure both.
STREAM_CLIENTS = 2
STREAM_DAYS = 7
STREAM_CHUNK = 60
STREAM_LAG = 30


@dataclass
class Round:
    """One timed round: how much was attempted, how much failed, how long."""

    units: int
    failed: int
    seconds: float
    #: descriptions of outputs that failed a check
    wrong: list[str] = field(default_factory=list)
    #: per-push latencies (stream only)
    latencies: list[float] = field(default_factory=list)
    #: which concurrent client ran the round
    client: int = 0
    #: host calibration around the round (see :mod:`hostspeed`)
    calibration_s: float = REFERENCE_S

    @property
    def throughput(self) -> float:
        return self.units / self.seconds

    @property
    def reference_throughput(self) -> float:
        return self.units / at_reference(self.seconds, self.calibration_s)


def throughput(rounds: list[Round], reference: bool = True) -> float:
    """Each client's median round rate, summed over the clients.

    Rates are at the reference host speed unless ``reference`` is false.
    """
    rates = defaultdict(list)
    for r in rounds:
        rates[r.client].append(r.reference_throughput if reference else r.throughput)
    return sum(statistics.median(v) for v in rates.values())


class Workload:
    """Set-up once, then timed rounds; see the module docstring."""

    name = ""
    unit = ""
    workers = WORKERS
    #: times the host around each round (see :mod:`hostspeed`): a pool
    #: round runs on every vCPU, so each is timed in turn
    calibrate = staticmethod(calibrate_all)

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = Path(work_dir)
        #: digests seen in the first round, the reference for later rounds
        self.first: dict[str, str] | None = None
        self.pinned = self._load_pins() if seed == DEFAULT_SEED else {}

    def _load_pins(self) -> dict[str, str]:
        return json.loads(PINNED.read_text()).get(self.name, {})

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work_dir))

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, tracer=None) -> Round:
        raise NotImplementedError

    def measure(self, seconds: float) -> list[Round]:
        """Whole rounds until ``seconds`` of wall time have passed, each
        bracketed by host calibrations (outside its timed interval)."""
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            before = self.calibrate()
            result = self.run_round()
            result.calibration_s = (before + self.calibrate()) / 2
            rounds.append(result)
        return rounds

    def traced_pass(self, tracer) -> list[Round]:
        """One round over every input, recorded by ``tracer``."""
        return [self.run_round(tracer)]

    @staticmethod
    def describe_job(job) -> tuple[str | None, str | None]:
        """Unit id and home key of one pool job, for the traced run."""
        return None, None

    def check_digests(self, digests: dict[str, str]) -> list[str]:
        """Labels whose digest differs from the pin or from round one."""
        if self.first is None:
            self.first = dict(digests)
        wrong = []
        for label, digest in digests.items():
            expected = [self.first.get(label)]
            if self.seed == DEFAULT_SEED:
                expected.append(self.pinned.get(label))
            if any(e != digest for e in expected):
                wrong.append(label)
        return wrong

    def digests(self) -> dict[str, str]:
        """Round one's output digests, recorded with every result."""
        return dict(self.first or {})


def _home_job(job) -> tuple[str, str]:
    return f"{job.defenses[0]}#{job.index}", job.fingerprint


class _Grid(Workload):
    """A knob grid run by ``SweepRunner`` (shared by sweep and extend)."""

    unit = "home-cell"
    describe_job = staticmethod(_home_job)

    def grid(self, settings, **shape) -> SweepGrid:
        return SweepGrid(
            defenses=self.defenses,
            settings=settings,
            seeds=(self.seed,),
            mix=("random",),
            **shape,
        )

    def prepare_cache(self) -> Path:
        raise NotImplementedError

    def run_round(self, tracer=None) -> Round:
        cache_dir = self.prepare_cache()
        start = time.perf_counter()
        result = SweepRunner(WORKERS, cache_dir, backend="process").run(self.timed)
        result.frontier()
        seconds = time.perf_counter() - start
        shutil.rmtree(cache_dir)
        digests = {c.cell.label(): result_digest(c.fleet) for c in result.cells}
        wrong = {label: "digest differs" for label in self.check_digests(digests)}
        for label in self.check_cells(digests):
            wrong[label] = "cache hit differs from what set-up wrote"
        if tracer is not None:
            given_up = sum(c.fleet.n_failed for c in result.cells)
            tracer.count("fleet.engine.failures", given_up)
        # a wrong cell fails all its homes; otherwise the given-up ones
        failed = sum(
            self.timed.n_homes if c.cell.label() in wrong else c.fleet.n_failed
            for c in result.cells
        )
        return Round(
            units=self.timed.n_homes * self.timed.n_cells,
            failed=failed,
            seconds=seconds,
            wrong=[f"{label}: {why}" for label, why in wrong.items()],
        )

    def check_cells(self, digests: dict[str, str]) -> list[str]:
        return []


class Sweep(_Grid):
    """Cold knob frontier: every home-cell simulated, defended, attacked."""

    name = "sweep"
    defenses = SWEEP_DEFENSES

    def setup(self) -> None:
        self.timed = self.grid((0.5, 1.0), n_homes=SWEEP_HOMES, days=3)

    def prepare_cache(self) -> Path:
        return self.fresh_dir()


class Extend(_Grid):
    """Grid extension: half the home-cells hit a cache the set-up filled."""

    name = "extend"
    defenses = EXTEND_DEFENSES

    def setup(self) -> None:
        shape = dict(n_homes=EXTEND_HOMES, days=1, detectors=EXTEND_DETECTORS)
        fill = self.grid((0.25, 0.75), **shape)
        self.timed = self.grid((0.25, 0.5, 0.75, 1.0), **shape)
        self.warm = self.fresh_dir()
        result = SweepRunner(WORKERS, self.warm, backend="process").run(fill)
        #: what the set-up pass wrote, per cell: every hit must reproduce it
        self.filled = {c.cell.label(): result_digest(c.fleet) for c in result.cells}

    def prepare_cache(self) -> Path:
        cache_dir = self.work_dir / f"cache-{time.monotonic_ns()}"
        shutil.copytree(self.warm, cache_dir)
        return cache_dir

    def check_cells(self, digests: dict[str, str]) -> list[str]:
        return [
            label
            for label, digest in self.filled.items()
            if digests.get(label) != digest
        ]


def _netpriv_job(job) -> tuple[str, None]:
    return f"job{job.index}", None


class Netpriv(Workload):
    """Sec. IV arms race: one job per (defense, dial) on a small LAN."""

    name = "netpriv"
    unit = "job"
    describe_job = staticmethod(_netpriv_job)

    def setup(self) -> None:
        self.timed = NetprivGrid(
            defenses=NETPRIV_DEFENSES,
            settings=(0.5, 1.0),
            seeds=(self.seed,),
            n_lans=1,
            days=NETPRIV_DAYS,
            lan="small",
        )

    def run_round(self, tracer=None) -> Round:
        runner = NetprivSweepRunner(workers=WORKERS, backend="process")
        start = time.perf_counter()
        result = runner.run(self.timed)
        result.frontier()
        seconds = time.perf_counter() - start
        digests = {r.preset: r.outcome.shaped_digest for r in result.results}
        wrong = self.check_digests(digests)
        given_up = len(result.failures)
        if tracer is not None:
            tracer.count("fleet.engine.failures", given_up)
        return Round(
            units=self.timed.n_jobs,
            failed=given_up + len(wrong),
            seconds=seconds,
            wrong=[f"{label}: shaped digest differs" for label in wrong],
        )


class Stream(Workload):
    """Live-meter replay through ``FeedGuard`` into a ``StreamSession``,
    by two clients pinned one per vCPU."""

    name = "stream"
    unit = "sample"
    workers = STREAM_CLIENTS
    #: a client is pinned to its vCPU and a round lasts half a second, so
    #: timing that vCPU just before and after a round tracks the round
    calibrate = staticmethod(calibrate)

    def setup(self) -> None:
        self.traces = []
        for child in np.random.SeedSequence(self.seed).spawn(STREAM_HOMES):
            config_seed, sim_seed = child.spawn(2)
            config = make_preset("random", np.random.default_rng(config_seed))
            sim = simulate_home(config, STREAM_DAYS, np.random.default_rng(sim_seed))
            self.traces.append(sim.metered)
        self.client = 0
        self.next_home = 0
        self.references: dict[int, tuple] = {}

    def measure(self, seconds: float) -> list[Round]:
        return self._clients(seconds)

    def traced_pass(self, tracer) -> list[Round]:
        return self._clients(None)

    def _clients(self, seconds) -> list[Round]:
        """Run every client in its own process and gather their rounds.

        The clients are forked, as the engine's pool workers are: a spawned
        pool would start the multiprocessing resource tracker, a process
        that outlives the run.  No Python thread but this one runs here.
        """
        jobs = [(self, c, seconds) for c in range(STREAM_CLIENTS)]
        pool = multiprocessing.get_context("fork").Pool(STREAM_CLIENTS)
        try:
            parts = pool.starmap(_stream_client, jobs)
        finally:
            pool.close()
            pool.join()
        return [r for part in parts for r in part]

    def run_round(self, tracer=None) -> Round:
        home = self.next_home % len(self.traces)
        self.next_home += STREAM_CLIENTS
        trace = self.traces[home]
        latencies = []
        clock = time.perf_counter
        start = clock()
        session = StreamSession(
            StreamClock.of(trace),
            {
                "edges": make_stream_attack("edges"),
                "niom": make_stream_attack("niom"),
                "hmm": make_stream_attack("hmm", lag=STREAM_LAG),
                "fhmm": make_stream_attack("fhmm", lag=STREAM_LAG),
            },
        )
        guard = FeedGuard(session)
        for index, chunk in enumerate(iter_chunks(trace.values, STREAM_CHUNK)):
            if tracer is None:
                t0 = clock()
                guard.push(chunk)
                latencies.append(clock() - t0)
            else:
                with tracer.span(PUSH_SPAN, f"home{home}:{index}"):
                    guard.push(chunk)
        report = session.finalize(guard=guard)
        seconds = clock() - start
        if tracer is None:
            wrong = self.check(home, session, report)
        else:
            with tracer.paused():
                wrong = self.check(home, session, report)
        return Round(
            units=len(trace),
            failed=len(trace) if wrong else 0,
            seconds=seconds,
            wrong=wrong,
            latencies=latencies,
            client=self.client,
        )

    def reference(self, home: int) -> tuple:
        """Batch results for one home: edges, NIOM features and occupancy."""
        if home not in self.references:
            trace = self.traces[home]
            niom = ThresholdNIOM().detect(trace)
            self.references[home] = (
                detect_edges(trace),
                niom.features,
                niom.occupancy.values,
            )
        return self.references[home]

    def check(self, home: int, session, report) -> list[str]:
        """Streamed results against the batch passes on the same trace."""
        wrong = [f"home{home}: {f.name} quarantined" for f in report.failures]
        if wrong or report.feed_dead:
            return wrong or [f"home{home}: feed declared dead"]
        edges, features, occupancy = self.reference(home)
        n = len(self.traces[home])
        attacks = session.attacks
        if attacks["edges"].edges != edges:
            wrong.append(f"home{home}: edges differ from detect_edges")
        niom = attacks["niom"].result
        if not (
            np.array_equal(niom.features, features)
            and np.array_equal(niom.occupancy.values, occupancy)
        ):
            wrong.append(f"home{home}: niom differs from ThresholdNIOM")
        if len(attacks["hmm"].decoder.labels) != n:
            wrong.append(f"home{home}: hmm labels != samples")
        if len(attacks["fhmm"].decoder.states) != n:
            wrong.append(f"home{home}: fhmm labels != samples")
        return wrong


def _stream_client(workload: Stream, client: int, seconds) -> list[Round]:
    """One stream client, pinned to its own vCPU; runs in a forked pool process.

    With ``seconds`` None it replays its share of the homes once, recorded
    by the tracer the main process installed before the fork, which writes
    this process's spans when it exits.
    """
    os.sched_setaffinity(0, {client % os.cpu_count()})
    workload.client = workload.next_home = client
    if seconds is not None:
        return Workload.measure(workload, seconds)
    tracer = active_tracer()
    share = range(client, len(workload.traces), STREAM_CLIENTS)
    return [workload.run_round(tracer) for _ in share]


WORKLOADS = {w.name: w for w in (Sweep, Extend, Netpriv, Stream)}
