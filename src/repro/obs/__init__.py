"""``repro.obs`` — deterministic, sim-clock-native observability.

The paper's entire evaluation is timing attribution (Table 1, Fig. 4's
Active/Overhead split); this subsystem makes those numbers *observable*
instead of hand-maintained:

* :mod:`~repro.obs.tracer` — parented spans timestamped from
  ``Environment.now`` (plus a free no-op path);
* :mod:`~repro.obs.metrics` — counters, gauges, and histograms in
  one-minute sim-time buckets, registered by services at construction
  (fault-path ones where they first fire);
* :mod:`~repro.obs.analysis` — per-step Active/Overhead and the
  critical path derived **from spans alone**, cross-checked against
  the ``StepRecord`` numbers by the tier-1 consistency gate;
* :mod:`~repro.obs.export` — JSON-lines, Chrome ``trace_event``, and
  metrics-CSV exporters behind ``python -m repro trace``.

:class:`Observability` bundles one tracer + one metrics registry; every
instrumented service takes it as ``obs=`` (default :data:`NULL_OBS`,
the free disabled path), and :func:`repro.testbed.build_testbed` hands
one bundle to all of them.
"""

from __future__ import annotations

from ..sim import Environment
from .analysis import (
    ACTION_SPAN_NAMES,
    INTEGRITY_SPAN_NAMES,
    RunTrace,
    Segment,
    StepTrace,
    StreamSessionTrace,
    critical_path,
    derive_integrity_events,
    derive_runs,
    derive_stream_sessions,
    fig4_samples_from_traces,
    format_ingest_comparison,
    ingest_comparison,
    run_summary_stats,
)
from .export import metrics_to_csv, spans_to_chrome, spans_to_jsonl
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    NULL_METRICS,
)
from .tracer import NullSpan, NullTracer, NULL_SPAN, NULL_TRACER, SimTracer, Span

__all__ = [
    "Observability",
    "NULL_OBS",
    # tracer
    "Span",
    "SimTracer",
    "NullSpan",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    # analysis
    "ACTION_SPAN_NAMES",
    "INTEGRITY_SPAN_NAMES",
    "RunTrace",
    "StepTrace",
    "Segment",
    "StreamSessionTrace",
    "derive_integrity_events",
    "derive_runs",
    "derive_stream_sessions",
    "critical_path",
    "fig4_samples_from_traces",
    "ingest_comparison",
    "format_ingest_comparison",
    "run_summary_stats",
    # export
    "spans_to_jsonl",
    "spans_to_chrome",
    "metrics_to_csv",
]


class Observability:
    """One tracer + one metrics registry, bound to an environment."""

    def __init__(self, env: Environment) -> None:
        self.tracer = SimTracer(env)
        self.metrics = MetricsRegistry(env)


class _NullObservability:
    """Disabled bundle: shared no-op tracer and registry."""

    __slots__ = ()

    tracer = NULL_TRACER
    metrics = NULL_METRICS


NULL_OBS = _NullObservability()
