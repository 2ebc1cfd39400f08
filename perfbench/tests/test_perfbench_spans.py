"""Span recording, self time, wrappers and worker collection."""

import os
import types

import pytest

import spans
from layers import UNIT_SPANS, Phase, layer_metrics
from spans import JOB_SPAN, ProcessTrace, Span, Tracer, TracedPool, self_times


def _span(name, start, end, parent=-1, unit=None):
    return Span(name, float(start), float(end), parent, unit)


def test_nested_spans_subtract_only_their_direct_children():
    trace = [
        _span("outer", 0, 10),
        _span("middle", 2, 6, parent=0),
        _span("inner", 3, 4, parent=1),
    ]
    assert self_times(trace) == pytest.approx([6.0, 3.0, 1.0])
    assert sum(self_times(trace)) == pytest.approx(trace[0].duration)


def test_sibling_spans_count_their_union_once():
    disjoint = [_span("p", 0, 10), _span("a", 1, 3, 0), _span("b", 4, 6, 0)]
    assert self_times(disjoint)[0] == pytest.approx(6.0)
    overlapping = [_span("p", 0, 10), _span("a", 1, 5, 0), _span("b", 4, 8, 0)]
    assert self_times(overlapping)[0] == pytest.approx(3.0)
    # a child reaching past its parent is clipped to the parent's interval
    spilling = [_span("p", 0, 10), _span("a", 8, 12, 0)]
    assert self_times(spilling)[0] == pytest.approx(8.0)


def test_tracer_links_parents_and_inherits_units(tmp_path):
    tracer = Tracer(tmp_path)
    with tracer.span("unit", "u1"):
        with tracer.span("layer"):
            pass
        with tracer.paused():
            with tracer.span("hidden"):
                pass
            tracer.count("hidden")
    with tracer.span("after"):
        pass
    (trace,) = tracer.collect()
    assert [(s.name, s.parent, s.unit) for s in trace.spans] == [
        ("unit", -1, "u1"),
        ("layer", 0, "u1"),
        ("after", -1, None),
    ]
    assert not trace.counts


class _Box:
    @classmethod
    def make(cls, x):
        return (cls, x)

    def twice(self, x):
        return 2 * x


def test_wrap_keeps_method_kinds_and_restore_undoes_it(tmp_path):
    module = types.ModuleType("fake")
    module.double = lambda x: 2 * x
    original = module.double
    originals = dict(vars(_Box))
    tracer = Tracer(tmp_path)
    seen = []
    tracer.wrap(module, "double", "m.double", after=lambda r, x: seen.append(r))
    tracer.wrap(_Box, "make", "box.make")
    tracer.wrap(_Box, "twice", "box.twice")
    assert module.double(3) == 6 and seen == [6]
    assert _Box.make(1) == (_Box, 1)
    assert _Box().twice(4) == 8
    tracer.restore()
    assert module.double is original
    assert vars(_Box)["make"] is originals["make"]
    assert vars(_Box)["twice"] is originals["twice"]
    names = [s.name for s in tracer.collect()[0].spans]
    assert names == ["m.double", "box.make", "box.twice"]


def _square(job):
    return job * job


def test_pool_workers_write_their_spans_on_exit(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.describe_job = lambda job: (f"job{job}", f"home{job % 2}")
    tracer.install()
    try:
        with TracedPool(max_workers=2) as pool:
            assert [f.result() for f in [pool.submit(_square, j) for j in range(4)]] == [
                0, 1, 4, 9
            ]
    finally:
        tracer.restore()
    traces = tracer.collect()
    assert spans._ACTIVE is None
    workers = [t for t in traces if t.pid != os.getpid()]
    jobs = [s for t in workers for s in t.spans if s.name == JOB_SPAN]
    assert sorted(s.unit for s in jobs) == ["job0", "job1", "job2", "job3"]
    assert {k for t in workers for k in t.keys} == {("home", "home0"), ("home", "home1")}
    assert traces[0].counts["fleet.engine.pools_started"] == 1
    assert len(tracer.submitted) == len(tracer.arrived) == 4


def test_coverage_is_layer_self_time_inside_units():
    worker = ProcessTrace(
        pid=1,
        spans=[
            _span(JOB_SPAN, 0, 10, unit="a"),
            _span("home.simulate", 1, 5, 0),
            _span("core.evaluate", 5, 9, 0),
            _span("ml.hmm.fit", 6, 8, 2),
        ],
    )
    main = ProcessTrace(pid=2, spans=[_span("fleet.spec.jobs", 0, 1)])
    phase = Phase(
        wall_s=10.0,
        job_round_trip_s=12.0,
        workers=2,
        worker_cpu_s=10.0,
        driver_cpu_s=1.0,
        push_latencies_s=(),
        traced_throughput=9.0,
        untraced_throughput=10.0,
    )
    metrics = layer_metrics([main, worker], phase, lambda samples, pct: None)
    assert JOB_SPAN in UNIT_SPANS
    assert metrics["trace.coverage_ratio"] == pytest.approx(0.8)
    assert metrics["fleet.engine.job_busy_s"] == pytest.approx(10.0)
    assert metrics["fleet.engine.job_wait_s"] == pytest.approx(2.0)
    assert metrics["fleet.engine.worker_utilization"] == pytest.approx(0.5)
    assert metrics["core.evaluate_self_s"] == pytest.approx(2.0)
    assert metrics["ml.hmm.fit_s"] == pytest.approx(2.0)
    assert metrics["trace.overhead_ratio"] == pytest.approx(0.9)
    assert metrics["stream.push_p99_ms"] == 0.0
