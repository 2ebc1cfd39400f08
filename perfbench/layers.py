"""Which program functions the traced run wraps, and the per-layer metrics.

Each layer is named after the repository module it measures.  The wrappers
go around the public functions that the workloads reach (patched where the
caller looks them up, since ``from x import f`` copies the binding), and
the per-layer metrics are computed from the spans, counts and distinct keys
that the main process and its pool workers recorded.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from spans import (
    JOB_SPAN,
    PUSH_SPAN,
    ProcessTrace,
    Tracer,
    TracedPool,
    enclosing,
    self_times,
)

UNIT_SPANS = (JOB_SPAN, PUSH_SPAN)


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def install_wrappers(tracer: Tracer) -> None:
    """Wrap every layer's public functions; :meth:`Tracer.restore` undoes it."""
    from repro.attacks import niom as attacks_niom
    from repro.core import evaluation, pipeline, registry
    from repro.defenses.base import TraceDefense
    from repro.fleet import cache, engine, frontier, netpriv as fleet_netpriv, spec
    from repro.ml.forest import RandomForestClassifier
    from repro.ml.hmm import GaussianHMM
    from repro.netpriv import adaptive, fingerprint, shaping
    from repro.stream import guard, session

    wrap = tracer.wrap

    # home
    wrap(engine, "simulate_home", "home.simulate")

    # defenses: every concrete apply, named as the registry names it
    names = {type(registry.make_defense(n)): n for n in registry.defense_names()}
    for cls in _subclasses(TraceDefense):
        if "apply" in vars(cls):
            wrap(cls, "apply", f"defenses.{names.get(cls, cls.__name__.lower())}")

    # attacks
    wrap(attacks_niom.ThresholdNIOM, "detect", "attacks.threshold")
    wrap(attacks_niom.HMMNIOM, "detect", "attacks.hmm")
    wrap(attacks_niom.ClusterNIOM, "detect", "attacks.cluster")
    wrap(evaluation, "score_occupancy_attack", "attacks.score")
    wrap(adaptive, "score_occupancy_attack", "attacks.score")

    # ml
    wrap(GaussianHMM, "fit", "ml.hmm.fit")
    wrap(GaussianHMM, "decode", "ml.hmm.decode")
    wrap(RandomForestClassifier, "fit", "ml.forest.fit")
    wrap(RandomForestClassifier, "predict", "ml.forest.predict")

    # timeseries
    wrap(attacks_niom, "window_features", "timeseries.window_features")

    # core
    def baseline(_result, name, *_args, **_kwargs):
        if name == "baseline":
            tracer.count("attacks.baseline_evaluations")

    wrap(engine, "evaluate_simulation", "core.evaluate")
    wrap(pipeline, "evaluate_defense_outcome", "core.evaluate", after=baseline)
    wrap(evaluation, "occupancy_privacy", "core.evaluate")
    wrap(evaluation, "analytics_utility", "core.utility")

    # fleet.spec
    def built(jobs, *_args, **_kwargs):
        tracer.count("fleet.spec.configs_built", len(jobs))
        for job in jobs:
            tracer.note("config", job.fingerprint)

    wrap(spec.FleetSpec, "jobs", "fleet.spec.jobs", after=built)

    # fleet.cache
    def read(result, store, key):
        tracer.count("fleet.cache.gets")
        if result is not None:
            tracer.count("fleet.cache.hits")
            # the entry's own path, as the cache lays it out
            tracer.count("fleet.cache.bytes_read", store._path(key).stat().st_size)

    def written(_result, store, key, _value):
        tracer.count("fleet.cache.bytes_written", store._path(key).stat().st_size)

    wrap(cache.ResultCache, "get", "fleet.cache.get", after=read)
    wrap(cache.ResultCache, "put", "fleet.cache.put", after=written)

    # fleet.engine: the supervisor starts its pools through this name
    tracer.replace(engine, "ProcessPoolExecutor", TracedPool)

    # fleet.frontier
    wrap(frontier.FrontierReport, "from_cells", "fleet.frontier.reduce")
    wrap(fleet_netpriv.NetprivFrontierReport, "from_results", "fleet.frontier.reduce")

    # netpriv
    def flows(lan, *_args, **_kwargs):
        tracer.count("netpriv.flows", len(lan.log))

    wrap(fleet_netpriv, "evaluate_arms_race", "netpriv.arms_race")
    wrap(adaptive, "simulate_lan", "netpriv.lan", after=flows)
    for cls in [shaping.FlowShaper, *_subclasses(shaping.FlowShaper)]:
        if "shape" in vars(cls):
            wrap(cls, "shape", "netpriv.shape")
    wrap(adaptive, "device_window_features", "netpriv.features")
    wrap(adaptive, "occupancy_window_features", "netpriv.features")
    wrap(fingerprint.DeviceFingerprinter, "evaluate", "netpriv.fingerprint")
    wrap(adaptive.AdaptiveOccupancyInferrer, "fit", "netpriv.adaptive")
    wrap(adaptive.AdaptiveOccupancyInferrer, "infer", "netpriv.adaptive")
    wrap(adaptive, "occupancy_from_traffic_naive", "netpriv.naive")

    # stream
    wrap(guard.FeedGuard, "push", "stream.guard")
    wrap(session.StreamSession, "push", "stream.session")
    wrap(session.StreamSession, "finalize", "stream.finalize")
    for name, cls in session.STREAM_ATTACKS.items():
        wrap(cls, "push", f"stream.{name}")


@dataclass(frozen=True)
class Phase:
    """Facts about the traced phase that spans do not carry."""

    wall_s: float
    job_round_trip_s: float  # summed submit -> result arrival, main process
    workers: int
    worker_cpu_s: float
    driver_cpu_s: float
    push_latencies_s: tuple[float, ...]  # untraced, stream only
    traced_throughput: float
    untraced_throughput: float


#: Per-layer metric name -> unit, in the order they print.
PER_LAYER_UNITS = {
    "home.simulate_s": "s",
    "home.simulate_calls": "count",
    "home.repeat_ratio": "ratio",
    "defenses.apply_s": "s",
    "defenses.chpr_s": "s",
    "defenses.nill_s": "s",
    "defenses.stepped_s": "s",
    "attacks.detect_s": "s",
    "attacks.hmm_s": "s",
    "attacks.threshold_s": "s",
    "attacks.score_s": "s",
    "attacks.baseline_repeat_ratio": "ratio",
    "ml.hmm.fit_s": "s",
    "ml.hmm.decode_s": "s",
    "ml.forest.fit_s": "s",
    "ml.forest.predict_s": "s",
    "timeseries.window_features_s": "s",
    "timeseries.window_features_calls": "count",
    "core.evaluate_self_s": "s",
    "core.utility_s": "s",
    "fleet.spec.jobs_s": "s",
    "fleet.spec.configs_built": "count",
    "fleet.spec.repeat_ratio": "ratio",
    "fleet.cache.get_s": "s",
    "fleet.cache.put_s": "s",
    "fleet.cache.hit_ratio": "ratio",
    "fleet.cache.bytes_read": "bytes",
    "fleet.cache.bytes_written": "bytes",
    "fleet.engine.pools_started": "count",
    "fleet.engine.job_busy_s": "s",
    "fleet.engine.job_wait_s": "s",
    "fleet.engine.worker_utilization": "ratio",
    "fleet.engine.driver_cpu_s": "s",
    "fleet.engine.retries": "count",
    "fleet.engine.failures": "count",
    "fleet.frontier.reduce_s": "s",
    "netpriv.arms_race_self_s": "s",
    "netpriv.lan_s": "s",
    "netpriv.flows": "count",
    "netpriv.shape_s": "s",
    "netpriv.features_s": "s",
    "netpriv.fingerprint_s": "s",
    "netpriv.adaptive_s": "s",
    "netpriv.naive_s": "s",
    "stream.guard_self_s": "s",
    "stream.session_self_s": "s",
    "stream.edges_s": "s",
    "stream.niom_s": "s",
    "stream.hmm_s": "s",
    "stream.fhmm_s": "s",
    "stream.finalize_s": "s",
    "stream.pushes": "count",
    "stream.push_p50_ms": "ms",
    "stream.push_p95_ms": "ms",
    "stream.push_p99_ms": "ms",
    "trace.coverage_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[ProcessTrace], phase: Phase, percentile) -> dict:
    """Every per-layer metric, as ``{name: value}``, from one traced phase.

    ``percentile(samples, pct)`` is the report's percentile rule; a
    latency percentile without enough samples reads 0.
    """
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    keys: dict[str, set] = defaultdict(set)
    busy = covered = unit_s = 0.0
    for trace in traces:
        counts.update(trace.counts)
        for kind, key in trace.keys:
            keys[kind].add(key)
        own = self_times(trace.spans)
        unit_of = enclosing(trace.spans, UNIT_SPANS)
        for span, self_time, unit in zip(trace.spans, own, unit_of):
            self_s[span.name] += self_time
            calls[span.name] += 1
            if span.name == JOB_SPAN:
                busy += span.duration
            if span.name in UNIT_SPANS:
                unit_s += span.duration
            elif unit >= 0:
                covered += self_time

    def prefixed(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    homes = len(keys["home"])
    latencies = list(phase.push_latencies_s)

    def push_ms(pct: int) -> float:
        value = percentile(latencies, pct)
        return value * 1e3 if value is not None else 0.0

    values = {
        "home.simulate_s": self_s["home.simulate"],
        "home.simulate_calls": calls["home.simulate"],
        "home.repeat_ratio": _ratio(calls["home.simulate"], homes),
        "defenses.apply_s": prefixed("defenses."),
        "defenses.chpr_s": self_s["defenses.chpr"],
        "defenses.nill_s": self_s["defenses.nill"],
        "defenses.stepped_s": self_s["defenses.stepped"],
        "attacks.detect_s": self_s["attacks.threshold"]
        + self_s["attacks.hmm"]
        + self_s["attacks.cluster"],
        "attacks.hmm_s": self_s["attacks.hmm"],
        "attacks.threshold_s": self_s["attacks.threshold"],
        "attacks.score_s": self_s["attacks.score"],
        "attacks.baseline_repeat_ratio": _ratio(
            counts["attacks.baseline_evaluations"], homes
        ),
        "ml.hmm.fit_s": self_s["ml.hmm.fit"],
        "ml.hmm.decode_s": self_s["ml.hmm.decode"],
        "ml.forest.fit_s": self_s["ml.forest.fit"],
        "ml.forest.predict_s": self_s["ml.forest.predict"],
        "timeseries.window_features_s": self_s["timeseries.window_features"],
        "timeseries.window_features_calls": calls["timeseries.window_features"],
        "core.evaluate_self_s": self_s["core.evaluate"],
        "core.utility_s": self_s["core.utility"],
        "fleet.spec.jobs_s": self_s["fleet.spec.jobs"],
        "fleet.spec.configs_built": counts["fleet.spec.configs_built"],
        "fleet.spec.repeat_ratio": _ratio(
            counts["fleet.spec.configs_built"], len(keys["config"])
        ),
        "fleet.cache.get_s": self_s["fleet.cache.get"],
        "fleet.cache.put_s": self_s["fleet.cache.put"],
        "fleet.cache.hit_ratio": _ratio(
            counts["fleet.cache.hits"], counts["fleet.cache.gets"]
        ),
        "fleet.cache.bytes_read": counts["fleet.cache.bytes_read"],
        "fleet.cache.bytes_written": counts["fleet.cache.bytes_written"],
        "fleet.engine.pools_started": counts["fleet.engine.pools_started"],
        "fleet.engine.job_busy_s": busy,
        "fleet.engine.job_wait_s": phase.job_round_trip_s - busy if busy else 0.0,
        "fleet.engine.worker_utilization": _ratio(
            phase.worker_cpu_s, phase.workers * phase.wall_s
        ),
        "fleet.engine.driver_cpu_s": phase.driver_cpu_s,
        "fleet.engine.retries": counts["fleet.engine.retries"],
        "fleet.engine.failures": counts["fleet.engine.failures"],
        "fleet.frontier.reduce_s": self_s["fleet.frontier.reduce"],
        "netpriv.arms_race_self_s": self_s["netpriv.arms_race"],
        "netpriv.lan_s": self_s["netpriv.lan"],
        "netpriv.flows": counts["netpriv.flows"],
        "netpriv.shape_s": self_s["netpriv.shape"],
        "netpriv.features_s": self_s["netpriv.features"],
        "netpriv.fingerprint_s": self_s["netpriv.fingerprint"],
        "netpriv.adaptive_s": self_s["netpriv.adaptive"],
        "netpriv.naive_s": self_s["netpriv.naive"],
        "stream.guard_self_s": self_s["stream.guard"],
        "stream.session_self_s": self_s["stream.session"],
        "stream.edges_s": self_s["stream.edges"],
        "stream.niom_s": self_s["stream.niom"],
        "stream.hmm_s": self_s["stream.hmm"],
        "stream.fhmm_s": self_s["stream.fhmm"],
        "stream.finalize_s": self_s["stream.finalize"],
        "stream.pushes": calls[PUSH_SPAN],
        "stream.push_p50_ms": push_ms(50),
        "stream.push_p95_ms": push_ms(95),
        "stream.push_p99_ms": push_ms(99),
        "trace.coverage_ratio": _ratio(covered, unit_s),
        "trace.overhead_ratio": _ratio(
            phase.traced_throughput, phase.untraced_throughput
        ),
    }
    return values
