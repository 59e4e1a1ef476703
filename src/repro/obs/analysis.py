"""Trace analysis: the paper's timing decomposition derived from spans.

``core.stats`` computes Table 1 and Fig. 4 from hand-maintained
:class:`~repro.flows.run.StepRecord` fields.  This module computes the
same quantities **from spans alone** — a second, independent derivation
of the headline result, which the tier-1 consistency gate compares
against the record-based numbers.

The stitching convention: the flow executor emits ``flow.run`` root
spans with ``flow.step`` children carrying an ``action_id`` attribute;
each substrate service emits exactly one *action span*
(``transfer.task`` / ``compute.task`` / ``search.ingest``) carrying the
same ``action_id`` and covering precisely the interval its provider
reports as ``active_seconds``.  Per-step Active is therefore the action
span's duration, and Overhead is everything else inside the step span
(transition latency, submission latency, polling detection lag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .tracer import Span

__all__ = [
    "ACTION_SPAN_NAMES",
    "StepTrace",
    "RunTrace",
    "Segment",
    "StreamSessionTrace",
    "INTEGRITY_SPAN_NAMES",
    "derive_integrity_events",
    "derive_runs",
    "derive_stream_sessions",
    "critical_path",
    "fig4_samples_from_traces",
    "ingest_comparison",
    "format_ingest_comparison",
    "run_summary_stats",
]

#: Span names that mark a service-side action (the "Active" interval).
ACTION_SPAN_NAMES = frozenset({"transfer.task", "compute.task", "search.ingest"})

#: Instantaneous span name -> the integrity-event category it records.
INTEGRITY_SPAN_NAMES = {
    "chaos.corruption": "injections",
    "integrity.detect": "detections",
    "integrity.repair": "repairs",
    "integrity.quarantine": "quarantines",
    "integrity.publish": "publishes",
}


@dataclass(frozen=True)
class StepTrace:
    """One flow step reconstructed from its spans."""

    name: str
    provider: str
    action_id: str
    start: float
    end: float
    action_start: Optional[float]  # the matched action span, if any
    action_end: Optional[float]
    polls: int
    status: str
    #: Provider-reported active seconds recorded on the step span
    #: (fallback when no service-side action span matched — e.g. an
    #: uninstrumented third-party provider).
    reported_active: Optional[float] = None

    @property
    def observed_seconds(self) -> float:
        return self.end - self.start

    @property
    def active_seconds(self) -> float:
        if self.action_start is not None and self.action_end is not None:
            return self.action_end - self.action_start
        if self.reported_active is not None:
            return float(self.reported_active)
        return 0.0

    @property
    def overhead_seconds(self) -> float:
        return max(0.0, self.observed_seconds - self.active_seconds)


@dataclass(frozen=True)
class RunTrace:
    """One flow run reconstructed from its span tree."""

    run_id: str
    flow: str
    status: str
    start: float
    end: float
    steps: tuple[StepTrace, ...]

    @property
    def runtime_seconds(self) -> float:
        return self.end - self.start

    @property
    def active_seconds(self) -> float:
        return sum(s.active_seconds for s in self.steps)

    @property
    def overhead_seconds(self) -> float:
        return max(0.0, self.runtime_seconds - self.active_seconds)

    @property
    def overhead_fraction(self) -> float:
        rt = self.runtime_seconds
        return self.overhead_seconds / rt if rt > 0 else 0.0

    def step(self, name: str) -> StepTrace:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)


@dataclass(frozen=True)
class Segment:
    """One tile of a run's critical path."""

    kind: str  # "transition" | "submit" | "active" | "detect" | "overhead"
    name: str  # step (or run) the tile belongs to
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _action_index(spans: Sequence[Span]) -> dict[str, Span]:
    """Map action ids to their (finished) service-side action spans."""
    index: dict[str, Span] = {}
    for span in spans:
        if span.name in ACTION_SPAN_NAMES and span.ended:
            action_id = span.attrs.get("action_id")
            if action_id is not None:
                index[action_id] = span
    return index


def derive_runs(spans: Sequence[Span]) -> list[RunTrace]:
    """Reconstruct every finished flow run from a span list.

    Runs come back in root-span creation order (= start order); steps in
    step-span creation order.  Unfinished spans (a run still in flight
    when the campaign clock stopped) are skipped — exactly as
    ``core.stats`` skips non-terminal runs.
    """
    actions = _action_index(spans)
    children: dict[int, list[Span]] = {}
    roots: list[Span] = []
    for span in spans:
        if span.name == "flow.run":
            roots.append(span)
        elif span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)

    runs: list[RunTrace] = []
    for root in roots:
        if not root.ended:
            continue
        steps: list[StepTrace] = []
        for child in children.get(root.span_id, []):
            if child.name != "flow.step" or not child.ended:
                continue
            action_id = child.attrs.get("action_id", "")
            action = actions.get(action_id)
            steps.append(
                StepTrace(
                    name=child.attrs.get("state", ""),
                    provider=child.attrs.get("provider", ""),
                    action_id=action_id,
                    start=child.start,
                    end=child.end,
                    action_start=action.start if action is not None else None,
                    action_end=action.end if action is not None else None,
                    polls=int(child.attrs.get("polls", 0)),
                    status=child.attrs.get("status", ""),
                    reported_active=child.attrs.get("active_s"),
                )
            )
        runs.append(
            RunTrace(
                run_id=root.attrs.get("run_id", ""),
                flow=root.attrs.get("flow", ""),
                status=root.attrs.get("status", ""),
                start=root.start,
                end=root.end,
                steps=tuple(steps),
            )
        )
    return runs


def critical_path(run: RunTrace) -> list[Segment]:
    """Tile a run's timeline into its critical-path segments.

    A flow runs its states in sequence, so the critical path *is* the
    timeline: per step, the pre-action wait (transition + submission
    latency), the action's active interval, and the post-action
    detection lag (the polling gap Fig. 4 attributes to orchestration);
    between and after steps, cloud transition time.  Segment durations
    sum exactly to the run's runtime.
    """
    segments: list[Segment] = []

    def tile(kind: str, name: str, start: float, end: float) -> None:
        if end > start:
            segments.append(Segment(kind, name, start, end))

    cursor = run.start
    for step in run.steps:
        tile("transition", step.name, cursor, step.start)
        if step.action_start is not None and step.action_end is not None:
            tile("submit", step.name, step.start, step.action_start)
            tile("active", step.name, step.action_start, step.action_end)
            tile("detect", step.name, step.action_end, step.end)
        else:
            tile("overhead", step.name, step.start, step.end)
        cursor = step.end
    tile("transition", run.run_id or run.flow, cursor, run.end)
    return segments


def fig4_samples_from_traces(
    runs: Sequence[RunTrace],
    step_labels: Sequence[tuple[str, str]],
) -> dict[str, list[float]]:
    """Span-derived Fig. 4 samples, shaped exactly like
    :func:`repro.core.stats.fig4_samples` (pass the same
    ``STEP_LABELS`` mapping of figure label -> flow state name)."""
    done = [r for r in runs if r.status == "SUCCEEDED"]
    out: dict[str, list[float]] = {label: [] for label, _ in step_labels}
    out["Active"] = []
    out["Overhead"] = []
    for r in done:
        for label, state in step_labels:
            try:
                out[label].append(r.step(state).active_seconds)
            except KeyError:
                pass
        out["Active"].append(r.active_seconds)
        out["Overhead"].append(r.overhead_seconds)
    return out


def derive_integrity_events(spans: Sequence[Span]) -> dict[str, list[Span]]:
    """Group the integrity-relevant instantaneous spans by category.

    The raw material of the integrity audit: every corruption the chaos
    layer *injected* (``chaos.corruption``), every verification failure
    the data plane *detected* (``integrity.detect``), every
    retransmit-driven *repair*, every dead-lettered *quarantine*, and
    every publish *receipt* — in span-creation (= sim-time) order.
    :func:`repro.integrity.audit_spans` joins these to prove zero
    silent acceptances.
    """
    out: dict[str, list[Span]] = {
        key: [] for key in INTEGRITY_SPAN_NAMES.values()
    }
    for span in spans:
        key = INTEGRITY_SPAN_NAMES.get(span.name)
        if key is not None and span.ended:
            out[key].append(span)
    return out


@dataclass(frozen=True)
class StreamSessionTrace:
    """One streaming-ingest session reconstructed from its spans.

    Stitching mirrors the flow convention: the app's ``stream.session``
    root and the publisher's ``stream.deliver`` root carry the same
    ``session_id`` attribute (the streaming analogue of ``action_id``);
    ``stream.analyze`` / ``stream.publish`` are children of the session
    root.
    """

    session_id: str
    path: str
    status: str
    start: float
    end: float
    deliver_start: Optional[float]
    analyze_start: Optional[float]
    publish_start: Optional[float]
    renegotiations: int
    duplicates: int

    @property
    def end_to_end_seconds(self) -> float:
        return self.end - self.start

    @property
    def detection_to_analysis_seconds(self) -> Optional[float]:
        """File detection to analysis submission — the latency the fast
        path exists to cut (file mode pays staging + polling here)."""
        if self.analyze_start is None:
            return None
        return self.analyze_start - self.start


def derive_stream_sessions(spans: Sequence[Span]) -> list[StreamSessionTrace]:
    """Reconstruct every finished streaming session from a span list.

    Sessions come back in root-span creation order; sessions still in
    flight when the clock stopped are skipped, exactly as
    :func:`derive_runs` skips unfinished flow runs.
    """
    delivers: dict[str, Span] = {}
    children: dict[int, list[Span]] = {}
    roots: list[Span] = []
    for span in spans:
        if span.name == "stream.session":
            roots.append(span)
        elif span.name == "stream.deliver" and span.ended:
            session_id = span.attrs.get("session_id")
            if session_id is not None:
                delivers[session_id] = span
        elif span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)

    sessions: list[StreamSessionTrace] = []
    for root in roots:
        if not root.ended:
            continue
        session_id = root.attrs.get("session_id", "")
        deliver = delivers.get(session_id)
        analyze: Optional[Span] = None
        publish: Optional[Span] = None
        for child in children.get(root.span_id, []):
            if not child.ended:
                continue
            if child.name == "stream.analyze":
                analyze = child
            elif child.name == "stream.publish":
                publish = child
        sessions.append(
            StreamSessionTrace(
                session_id=session_id,
                path=root.attrs.get("path", ""),
                status=root.attrs.get("status", ""),
                start=root.start,
                end=root.end,
                deliver_start=deliver.start if deliver is not None else None,
                analyze_start=analyze.start if analyze is not None else None,
                publish_start=publish.start if publish is not None else None,
                renegotiations=int(root.attrs.get("renegotiations", 0)),
                duplicates=int(root.attrs.get("duplicates", 0)),
            )
        )
    return sessions


def _latency_stats(values: Sequence[float]) -> dict[str, float]:
    if not values:
        return {"n": 0.0}
    arr = np.asarray(list(values))
    return {
        "n": float(arr.size),
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "max": float(arr.max()),
    }


def ingest_comparison(
    file_runs: Sequence[RunTrace],
    stream_sessions: Sequence[StreamSessionTrace],
    analyze_state: str = "AnalyzeData",
) -> dict[str, dict[str, dict[str, float]]]:
    """The Fig.-4-style file-vs-stream delivery-latency breakdown.

    Two quantities per ingest mode, over successful runs/sessions:
    **detection→analysis** (file creation to analysis submission — file
    mode pays staging transfer + flow transitions + polling detection
    lag here, stream mode only ``threshold_chunks`` of delivery) and
    **end-to-end** (creation to result published).  For file runs the
    analysis submission instant is the ``analyze_state`` step's action
    span start.
    """
    file_d2a: list[float] = []
    file_e2e: list[float] = []
    for r in file_runs:
        if r.status != "SUCCEEDED":
            continue
        file_e2e.append(r.runtime_seconds)
        try:
            step = r.step(analyze_state)
        except KeyError:
            continue
        if step.action_start is not None:
            file_d2a.append(step.action_start - r.start)
    stream_d2a: list[float] = []
    stream_e2e: list[float] = []
    for s in stream_sessions:
        if s.status != "PUBLISHED":
            continue
        stream_e2e.append(s.end_to_end_seconds)
        d2a = s.detection_to_analysis_seconds
        if d2a is not None:
            stream_d2a.append(d2a)
    return {
        "file": {
            "detection_to_analysis_s": _latency_stats(file_d2a),
            "end_to_end_s": _latency_stats(file_e2e),
        },
        "stream": {
            "detection_to_analysis_s": _latency_stats(stream_d2a),
            "end_to_end_s": _latency_stats(stream_e2e),
        },
    }


def format_ingest_comparison(
    comparison: dict[str, dict[str, dict[str, float]]]
) -> str:
    """Render :func:`ingest_comparison` as an aligned text table."""
    rows = [
        ("detection -> analysis", "detection_to_analysis_s"),
        ("end to end", "end_to_end_s"),
    ]
    lines = [
        f"{'latency (s)':<24}{'mode':<8}{'n':>5}{'mean':>10}"
        f"{'p50':>10}{'p95':>10}{'max':>10}"
    ]
    for label, key in rows:
        for mode in ("file", "stream"):
            st = comparison[mode][key]
            if not st.get("n"):
                lines.append(f"{label:<24}{mode:<8}{0:>5}{'-':>10}")
                continue
            lines.append(
                f"{label:<24}{mode:<8}{int(st['n']):>5}"
                f"{st['mean']:>10.2f}{st['p50']:>10.2f}"
                f"{st['p95']:>10.2f}{st['max']:>10.2f}"
            )
    return "\n".join(lines)


def run_summary_stats(runs: Sequence[RunTrace]) -> dict[str, float]:
    """Span-derived Table 1 timing aggregates over succeeded runs."""
    done = [r for r in runs if r.status == "SUCCEEDED"]
    if not done:
        raise ValueError("no succeeded runs in trace")
    runtimes = np.array([r.runtime_seconds for r in done])
    overheads = np.array([r.overhead_seconds for r in done])
    overhead_pcts = np.array([100 * r.overhead_fraction for r in done])
    return {
        "total_runs": float(len(done)),
        "min_runtime_s": float(runtimes.min()),
        "mean_runtime_s": float(runtimes.mean()),
        "max_runtime_s": float(runtimes.max()),
        "median_overhead_s": float(np.median(overheads)),
        "median_overhead_pct": float(np.median(overhead_pcts)),
    }
