"""The integrity audit: prove zero silent acceptances from spans alone.

:func:`audit_spans` walks a campaign's span list (no access to the
ledger's in-memory state — the audit is an *independent* derivation,
like :mod:`repro.obs.analysis` re-deriving Fig. 4) and joins:

* every ``chaos.corruption`` injection to its first ``integrity.detect``
  — chunk faults by ``(session_id, seq)``, at-rest faults by path —
  classifying each as **repaired** (a matching ``integrity.repair``
  after the detection), **quarantined** (the path was dead-lettered),
  or **SILENT** (no detection at all — the failure the subsystem
  exists to rule out);
* every detected path to its resolution — a path whose last detection
  is followed by neither a repair nor a quarantine is an unresolved
  acceptance (this also covers the transfer layer's own per-attempt
  wire-checksum faults, which are injected by :class:`FaultPlan`
  rather than the chaos corruption spec);
* every ``integrity.publish`` receipt against the quarantine log —
  publishing a record quarantined *earlier* is a gate violation.

The report's Fig.-4-style detection-latency breakdown (injection →
detection, split file vs stream by the detecting verifier's mode) shows
*where* each corruption class is caught: wire faults within a chunk
round-trip, at-rest rot not until the next consumer — or the
end-of-campaign scrub — touches the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..errors import ConfigError
from ..obs.analysis import _latency_stats, derive_integrity_events

__all__ = [
    "InjectionRecord",
    "IntegrityAuditReport",
    "audit_campaign",
    "audit_spans",
    "format_audit",
]


@dataclass(frozen=True)
class InjectionRecord:
    """One injected corruption and what the data plane did about it."""

    kind: str
    path: str
    at: float
    seq: Optional[int]
    session_id: Optional[str]
    detected_at: Optional[float]
    #: Mode of the detecting verifier ("stream" | "file"), when detected.
    detect_mode: Optional[str]
    #: "repaired" | "quarantined" | "silent"
    resolution: str

    @property
    def latency_s(self) -> Optional[float]:
        if self.detected_at is None:
            return None
        return self.detected_at - self.at


@dataclass
class IntegrityAuditReport:
    """What :func:`audit_spans` proved (or failed to prove)."""

    injections: list[InjectionRecord] = field(default_factory=list)
    #: Paths with a detection that neither a repair nor a quarantine
    #: resolved — corruption seen but silently accepted.
    unresolved_paths: list[str] = field(default_factory=list)
    #: Publish receipts for paths quarantined before the publish.
    publish_violations: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def silent(self) -> list[InjectionRecord]:
        return [i for i in self.injections if i.resolution == "silent"]

    @property
    def ok(self) -> bool:
        """True iff zero silent acceptances and no gate violations."""
        return not self.silent and not self.unresolved_paths and not self.publish_violations

    def by_resolution(self) -> dict[str, int]:
        out = {"repaired": 0, "quarantined": 0, "silent": 0}
        for i in self.injections:
            out[i.resolution] = out.get(i.resolution, 0) + 1
        return out

    def latency_breakdown(self) -> dict[str, dict[str, float]]:
        """Injection→detection latency stats, file vs stream verifiers."""
        by_mode: dict[str, list[float]] = {"file": [], "stream": []}
        for i in self.injections:
            lat = i.latency_s
            if lat is not None and i.detect_mode in by_mode:
                by_mode[i.detect_mode].append(lat)
        return {mode: _latency_stats(vals) for mode, vals in by_mode.items()}


def audit_spans(spans: Sequence[Any]) -> IntegrityAuditReport:
    """Join injections to detections/repairs/quarantines (see module
    docstring) and return the :class:`IntegrityAuditReport`."""
    events = derive_integrity_events(spans)

    detects_by_key: dict[tuple, list[Any]] = {}
    detects_by_path: dict[str, list[Any]] = {}
    for d in events["detections"]:
        path = d.attrs.get("path", "")
        detects_by_path.setdefault(path, []).append(d)
        sid = d.attrs.get("session_id")
        if sid is not None:
            detects_by_key.setdefault((sid, d.attrs.get("seq")), []).append(d)

    repairs_by_key: dict[tuple, list[float]] = {}
    repairs_by_path: dict[str, list[float]] = {}
    for r in events["repairs"]:
        repairs_by_path.setdefault(r.attrs.get("path", ""), []).append(r.start)
        sid = r.attrs.get("session_id")
        if sid is not None:
            repairs_by_key.setdefault((sid, r.attrs.get("seq")), []).append(r.start)

    quarantined_at: dict[str, float] = {}
    for q in events["quarantines"]:
        quarantined_at.setdefault(q.attrs.get("path", ""), q.start)

    records: list[InjectionRecord] = []
    for inj in events["injections"]:
        kind = inj.attrs.get("kind", "")
        path = inj.attrs.get("path", "")
        sid = inj.attrs.get("session_id")
        seq = inj.attrs.get("seq")
        if sid is not None:
            candidates = detects_by_key.get((sid, seq), [])
        else:
            candidates = detects_by_path.get(path, [])
        hits = [d for d in candidates if d.start >= inj.start]
        detected = min(hits, key=lambda d: d.start) if hits else None
        if detected is not None:
            if sid is not None:
                # A chunk fault is healed by a clean retransmit of the
                # same sequence; the session-level quarantine is the
                # fallback when the retransmit budget ran out.
                if any(
                    t >= detected.start
                    for t in repairs_by_key.get((sid, seq), [])
                ):
                    resolution = "repaired"
                elif path in quarantined_at:
                    resolution = "quarantined"
                else:
                    resolution = "silent"
            else:
                # At-rest rot is never repairable in place — quarantine
                # is the expected resolution; a path-level repair can
                # only come from the transfer wire-fault retry.
                if path in quarantined_at:
                    resolution = "quarantined"
                elif any(
                    t >= detected.start for t in repairs_by_path.get(path, [])
                ):
                    resolution = "repaired"
                else:
                    resolution = "silent"
        elif path in quarantined_at and quarantined_at[path] >= inj.start:
            resolution = "quarantined"
        else:
            resolution = "silent"
        records.append(
            InjectionRecord(
                kind=kind,
                path=path,
                at=inj.start,
                seq=seq,
                session_id=sid,
                detected_at=detected.start if detected is not None else None,
                detect_mode=(
                    detected.attrs.get("mode") if detected is not None else None
                ),
                resolution=resolution,
            )
        )

    # Half 2 of the invariant: every detection is resolved.  Covers the
    # transfer FaultPlan's wire faults, which emit detect/repair spans
    # without a chaos.corruption injection span.
    unresolved: list[str] = []
    for path in sorted(detects_by_path):
        if path in quarantined_at:
            continue
        last_detect = max(d.start for d in detects_by_path[path])
        last_repair = max(repairs_by_path.get(path, [-1.0]), default=-1.0)
        if last_repair < last_detect:
            unresolved.append(path)

    violations: list[str] = []
    for p in events["publishes"]:
        path = p.attrs.get("path", "")
        q_at = quarantined_at.get(path)
        if q_at is not None and q_at <= p.start:
            violations.append(
                f"{path}: published at t={p.start:.3f} after quarantine "
                f"at t={q_at:.3f}"
            )

    wire_detects = sum(
        1 for d in events["detections"] if d.attrs.get("kind") == "wire"
    )
    report = IntegrityAuditReport(
        injections=records,
        unresolved_paths=unresolved,
        publish_violations=violations,
        counts={
            "injections": len(events["injections"]),
            "detections": len(events["detections"]),
            "repairs": len(events["repairs"]),
            "quarantines": len(events["quarantines"]),
            "publishes": len(events["publishes"]),
            "wire_fault_detections": wire_detects,
        },
    )
    return report


def format_audit(report: IntegrityAuditReport) -> str:
    """Render an :class:`IntegrityAuditReport` as an aligned text block."""
    c = report.counts
    lines = [
        "integrity audit",
        f"  injections   {c.get('injections', 0):>5}",
        f"  detections   {c.get('detections', 0):>5}"
        f"   (wire faults: {c.get('wire_fault_detections', 0)})",
        f"  repairs      {c.get('repairs', 0):>5}",
        f"  quarantines  {c.get('quarantines', 0):>5}",
        f"  publishes    {c.get('publishes', 0):>5}",
    ]
    by_kind: dict[str, dict[str, int]] = {}
    for i in report.injections:
        by_kind.setdefault(i.kind, {"repaired": 0, "quarantined": 0, "silent": 0})[
            i.resolution
        ] += 1
    if by_kind:
        lines.append(
            f"  {'injection kind':<16}{'repaired':>10}{'quarantined':>13}{'SILENT':>9}"
        )
        for kind in sorted(by_kind):
            r = by_kind[kind]
            lines.append(
                f"  {kind:<16}{r['repaired']:>10}{r['quarantined']:>13}"
                f"{r['silent']:>9}"
            )
    lines.append("  detection latency (s), injection -> first detect:")
    lines.append(
        f"    {'verifier':<8}{'n':>5}{'mean':>10}{'p50':>10}{'p95':>10}{'max':>10}"
    )
    for mode, st in report.latency_breakdown().items():
        if not st.get("n"):
            lines.append(f"    {mode:<8}{0:>5}{'-':>10}")
            continue
        lines.append(
            f"    {mode:<8}{int(st['n']):>5}{st['mean']:>10.2f}"
            f"{st['p50']:>10.2f}{st['p95']:>10.2f}{st['max']:>10.2f}"
        )
    for path in report.unresolved_paths:
        lines.append(f"  UNRESOLVED detection: {path}")
    for v in report.publish_violations:
        lines.append(f"  PUBLISH VIOLATION: {v}")
    verdict = (
        "PASS: every injected corruption was repaired or quarantined; "
        "zero silent acceptances"
        if report.ok
        else f"FAIL: {len(report.silent)} silent acceptance(s), "
        f"{len(report.unresolved_paths)} unresolved detection(s), "
        f"{len(report.publish_violations)} publish violation(s)"
    )
    lines.append(f"  {verdict}")
    return "\n".join(lines)


def audit_campaign(result: Any) -> IntegrityAuditReport:
    """Scrub a campaign's stores, then audit its spans.

    A campaign with a ledger has both filesystems swept first: dormant
    rot (landed after its record was last consumed) is detected and
    quarantined there, so the audit's join is total.  The audit reads
    spans, so the campaign must have run with ``obs=True``; an untraced
    campaign is refused rather than passed with nothing to check.
    """
    if not result.config.obs:
        raise ConfigError(
            "the integrity audit reads spans; run the campaign with obs=True"
        )
    tb = result.testbed
    if result.ledger is not None:
        result.ledger.scrub((tb.user_fs, tb.eagle_fs))
    return audit_spans(tb.obs.tracer.spans)
