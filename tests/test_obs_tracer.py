"""Unit tests for repro.obs: tracer, metrics, exporters, analysis."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.errors import SimulationError
from repro.obs import (
    NULL_METRICS,
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    Observability,
    NULL_OBS,
    RunTrace,
    Segment,
    SimTracer,
    StepTrace,
    critical_path,
    derive_runs,
    metrics_to_csv,
    spans_to_chrome,
    spans_to_jsonl,
)
from repro.sim import Environment


# -- spans ---------------------------------------------------------------------


def test_span_records_sim_time_window():
    env = Environment()
    tracer = SimTracer(env)

    def proc():
        span = tracer.start("work")
        yield env.timeout(5.0)
        span.finish()

    env.process(proc())
    env.run()
    (span,) = tracer.spans
    assert span.start == 0.0
    assert span.end == 5.0
    assert span.duration == 5.0
    assert span.ended


def test_span_parenting_and_attrs():
    env = Environment()
    tracer = SimTracer(env)
    root = tracer.start("flow.run").set("run_id", "r1")
    child = tracer.start("flow.step", root).set("state", "T")
    assert root.parent_id is None
    assert child.parent_id == root.span_id
    assert child.attrs == {"state": "T"}
    assert root.attrs == {"run_id": "r1"}


def test_span_ids_are_deterministic_counters():
    env = Environment()
    tracer = SimTracer(env)
    spans = [tracer.start(f"s{i}") for i in range(3)]
    assert [s.span_id for s in spans] == [1, 2, 3]


def test_finish_is_idempotent():
    env = Environment()
    tracer = SimTracer(env)

    def proc():
        span = tracer.start("w")
        yield env.timeout(1.0)
        span.finish()
        yield env.timeout(1.0)
        span.finish()  # must keep the first end

    env.process(proc())
    env.run()
    assert tracer.spans[0].end == 1.0


def test_null_span_parent_is_treated_as_root():
    env = Environment()
    tracer = SimTracer(env)
    span = tracer.start("child", NULL_SPAN)
    assert span.parent_id is None


def test_null_tracer_is_free_singleton():
    span = NULL_TRACER.start("anything")
    assert span is NULL_SPAN
    assert span.set("k", 1) is NULL_SPAN
    assert span.finish() is NULL_SPAN
    assert span.ended  # so "close if open" guards are no-ops
    assert span.duration is None
    assert NULL_TRACER.spans == []
    assert len(NULL_TRACER) == 0


# -- metrics -------------------------------------------------------------------


def test_counter_and_weighted_inc():
    env = Environment()
    m = MetricsRegistry(env)
    c = m.counter("polls")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5


def test_gauge_retains_time_series():
    env = Environment()
    m = MetricsRegistry(env)
    g = m.gauge("active")

    def proc():
        g.set(1)
        yield env.timeout(10.0)
        g.add(2)
        yield env.timeout(5.0)
        g.add(-3)

    env.process(proc())
    env.run()
    assert g.value == 0.0
    assert g.samples == [(0.0, 1.0), (10.0, 3.0), (15.0, 0.0)]


def test_histogram_buckets_by_sim_time():
    env = Environment()
    m = MetricsRegistry(env)
    h = m.histogram("wait")

    def proc():
        h.observe(5.0)
        yield env.timeout(30.0)
        h.observe(7.0)  # same bucket [0, 60)
        yield env.timeout(60.0)
        h.observe(1.0)  # bucket [60, 120)

    env.process(proc())
    env.run()
    assert h.count == 3
    assert h.total == 13.0
    assert h.buckets[0] == [2.0, 12.0, 5.0, 7.0]
    assert h.buckets[1] == [1.0, 1.0, 1.0, 1.0]


def test_registry_lookup_is_idempotent_but_kind_checked():
    env = Environment()
    m = MetricsRegistry(env)
    assert m.counter("x") is m.counter("x")
    with pytest.raises(SimulationError):
        m.gauge("x")
    assert len(m) == 1
    assert [i.name for i in m.instruments()] == ["x"]


def test_null_metrics_absorbs_everything():
    c = NULL_METRICS.counter("a")
    c.inc()
    NULL_METRICS.gauge("b").set(3)
    NULL_METRICS.histogram("c").observe(1.0)
    assert NULL_METRICS.instruments() == []
    assert len(NULL_METRICS) == 0


def test_observability_bundle_and_null():
    env = Environment()
    obs = Observability(env)
    assert isinstance(obs.tracer, SimTracer)
    assert isinstance(obs.metrics, MetricsRegistry)
    assert NULL_OBS.tracer is NULL_TRACER
    assert NULL_OBS.metrics is NULL_METRICS


# -- exporters ----------------------------------------------------------------


def _sample_trace():
    env = Environment()
    tracer = SimTracer(env)

    def proc():
        root = tracer.start("flow.run").set("run_id", "run-000001")
        step = tracer.start("flow.step", root).set("state", "T")
        yield env.timeout(3.0)
        step.finish()
        yield env.timeout(1.0)
        root.set("status", "SUCCEEDED").finish()
        tracer.start("net.stream").set("bytes", 10.0).finish()

    env.process(proc())
    env.run()
    return tracer


def test_jsonl_round_trips_spans():
    tracer = _sample_trace()
    lines = spans_to_jsonl(tracer.spans).splitlines()
    docs = [json.loads(line) for line in lines]
    assert len(docs) == 3
    assert docs[0]["name"] == "flow.run"
    assert docs[0]["end"] == 4.0
    assert docs[1]["parent"] == docs[0]["id"]
    assert docs[1]["attrs"] == {"state": "T"}


def test_jsonl_unfinished_span_has_null_end():
    env = Environment()
    tracer = SimTracer(env)
    tracer.start("open")
    (doc,) = [json.loads(x) for x in spans_to_jsonl(tracer.spans).splitlines()]
    assert doc["end"] is None


def test_chrome_export_tracks_and_events():
    tracer = _sample_trace()
    doc = json.loads(spans_to_chrome(tracer.spans))
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    slices = [e for e in events if e["ph"] == "X"]
    # One run track + one net track; the step rides the run's lineage.
    assert {m["args"]["name"] for m in meta} == {"run run-000001", "net"}
    assert len(slices) == 3
    step = next(e for e in slices if e["name"] == "flow.step")
    assert step["ts"] == 0.0
    assert step["dur"] == pytest.approx(3e6)
    assert step["cat"] == "flow"


def test_chrome_export_skips_unfinished_spans():
    env = Environment()
    tracer = SimTracer(env)
    tracer.start("open")
    doc = json.loads(spans_to_chrome(tracer.spans))
    assert doc["traceEvents"] == []


def test_metrics_csv_shape():
    env = Environment()
    m = MetricsRegistry(env)
    m.counter("a").inc(2)
    m.gauge("b").set(1)
    m.histogram("c").observe(4.0)
    rows = list(csv.reader(io.StringIO(metrics_to_csv(m))))
    assert rows[0] == ["kind", "name", "time", "value", "count", "sum", "min", "max"]
    kinds = [r[0] for r in rows[1:]]
    assert kinds == ["counter", "gauge", "histogram"]  # name-sorted
    assert rows[1][3] == "2.0"
    assert rows[3][4] == "1"  # histogram count


# -- analysis ------------------------------------------------------------------


def test_critical_path_tiles_sum_to_runtime():
    step = StepTrace(
        name="T",
        provider="transfer",
        action_id="x1",
        start=1.0,
        end=10.0,
        action_start=2.0,
        action_end=7.0,
        polls=3,
        status="SUCCEEDED",
    )
    run = RunTrace(
        run_id="r", flow="f", status="SUCCEEDED", start=0.0, end=12.0, steps=(step,)
    )
    segs = critical_path(run)
    assert sum(s.duration for s in segs) == pytest.approx(run.runtime_seconds)
    assert [s.kind for s in segs] == [
        "transition",
        "submit",
        "active",
        "detect",
        "transition",
    ]
    active = next(s for s in segs if s.kind == "active")
    assert (active.start, active.end) == (2.0, 7.0)


def test_critical_path_step_without_action_is_overhead():
    step = StepTrace(
        name="T",
        provider="p",
        action_id="",
        start=0.0,
        end=4.0,
        action_start=None,
        action_end=None,
        polls=1,
        status="FAILED",
    )
    run = RunTrace(
        run_id="r", flow="f", status="FAILED", start=0.0, end=4.0, steps=(step,)
    )
    segs = critical_path(run)
    assert [s.kind for s in segs] == ["overhead"]
    assert step.active_seconds == 0.0
    assert step.overhead_seconds == 4.0


def test_derive_runs_skips_unfinished_roots():
    env = Environment()
    tracer = SimTracer(env)
    tracer.start("flow.run").set("run_id", "open")  # still in flight
    done = tracer.start("flow.run").set("run_id", "done").set("status", "SUCCEEDED")
    done.finish()
    runs = derive_runs(tracer.spans)
    assert [r.run_id for r in runs] == ["done"]
