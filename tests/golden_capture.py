"""Golden-trace capture: the bit-identity contract for perf work.

Every optimization of the DES kernel or the network fabric is gated on
*bit-identity*: the optimized code must reproduce — byte for byte — the
step-level event trace, the run/step transition trace, the span stream,
and the Table 1 / Fig. 4 numbers of the implementation it replaced, for
the shipped campaigns, under both the ``fifo`` and ``lifo`` same-tick
tie-breaks.

This module captures one campaign's full observable fingerprint into a
JSON payload and round-trips it through reproducible gzip files.  The
checked-in goldens under ``tests/goldens/`` were recorded on the
pre-optimization paths; ``tests/test_golden_traces.py`` replays each
campaign on the current code and compares.  It is test code: the
package ships without it.

Regenerate (only when campaign *behaviour* legitimately changes), from
the repository root::

    PYTHONPATH=src python -c "from tests.golden_capture import record_all; \\
        record_all('tests/goldens')"

A change that only removes zero-delay events re-records the goldens
under a rule instead of byte identity: :func:`golden_fingerprint` is
what each golden must keep, and ``tests/goldens/fingerprints.json``
(written by :func:`write_fingerprints` on the code before the change)
is what the re-recorded goldens are checked against.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
from dataclasses import asdict
from typing import Any

__all__ = [
    "FINGERPRINTS",
    "GOLDEN_SPECS",
    "HOP_KINDS",
    "TIMED_KINDS",
    "capture_golden",
    "golden_fingerprint",
    "golden_filename",
    "read_golden",
    "record_all",
    "stream_outcome",
    "write_fingerprints",
    "write_golden",
]

#: The shipped campaign set the bit-identity gate covers: both Sec. 3.3
#: use cases clean, plus one chaos scenario, for three seeds and both
#: same-tick tie-breaks, all on the file path; then the streaming path
#: clean and under the three scenarios that exercise it, seed 1, under
#: both tie-breaks.  Each spec is ``(kind, use_case, seed, tiebreak,
#: ingest)`` where ``kind`` is ``"campaign"`` or a chaos scenario name.
GOLDEN_SPECS: tuple[tuple[str, str, int, str, str], ...] = tuple(
    (kind, uc, seed, tiebreak, "file")
    for kind, uc in (
        ("campaign", "hyperspectral"),
        ("campaign", "spatiotemporal"),
        ("outage", "hyperspectral"),
    )
    for seed in (1, 2, 3)
    for tiebreak in ("fifo", "lifo")
) + tuple(
    (kind, uc, 1, tiebreak, "stream")
    for tiebreak in ("fifo", "lifo")
    for kind, uc in (
        ("campaign", "hyperspectral"),
        ("campaign", "spatiotemporal"),
        ("degraded-net", "hyperspectral"),
        ("full-storm", "hyperspectral"),
        ("corruption", "hyperspectral"),
    )
)


#: Event kinds whose dispatch lines a change that only removes
#: zero-delay hops must leave untouched, line for line: every timed wait
#: (``Timeout``), every flow-level join (``AllOf``) and every compute
#: node grant (``Request``).
TIMED_KINDS = ("Timeout", "AllOf", "Request")

#: Event kinds that such a change may remove but never add: process
#: starts and exits, ``any_of`` wake-ups and bare events.
HOP_KINDS = ("Initialize", "Process", "AnyOf", "Event")

#: The fingerprint of every golden as recorded before the stream path's
#: zero-delay hops became timer callbacks (see :func:`golden_fingerprint`).
FINGERPRINTS = os.path.join(os.path.dirname(__file__), "goldens", "fingerprints.json")


def golden_filename(
    kind: str, use_case: str, seed: int, tiebreak: str, ingest: str = "file"
) -> str:
    prefix = "" if ingest == "file" else f"{ingest}-"
    return f"{prefix}{kind}-{use_case}-s{seed}-{tiebreak}.json.gz"


def stream_outcome(res: Any) -> dict[str, Any]:
    """A stream campaign's observable results: every session's terminal
    record, the quarantine dead-letter and the indexed subjects."""
    sessions = [
        {
            "session_id": s.session_id,
            "path": s.path,
            "status": s.status,
            "error": s.error,
            "created_at": s.created_at,
            "analysis_done_at": s.analysis_done_at,
            "published_at": s.published_at,
            "chunks_sent": s.chunks_sent,
            "naks": s.naks,
            "retransmits": s.retransmits,
            "renegotiations": s.renegotiations,
            "duplicates": s.duplicates,
        }
        for s in res.stream_sessions
    ]
    quarantined = (
        [] if res.ledger is None else [q.to_dict() for q in res.ledger.quarantined]
    )
    hits = res.testbed.portal_index.query(limit=len(res.testbed.portal_index))
    return {
        "sessions": sessions,
        "quarantined": quarantined,
        "indexed": sorted(hits.subjects()),
    }


def capture_golden(
    kind: str,
    use_case: str,
    seed: int,
    tiebreak: str,
    ingest: str = "file",
    duration_s: float = 3600.0,
) -> dict[str, Any]:
    """Run one shipped campaign and capture its full fingerprint."""
    from repro.chaos import NO_CHAOS, delivery_breakdown
    from repro.core.campaign import run_campaign
    from repro.core.sanitize import campaign_trace
    from repro.core.stats import fig4_samples
    from repro.obs import spans_to_jsonl

    res = run_campaign(
        use_case,
        duration_s=duration_s,
        seed=seed,
        tiebreak=tiebreak,
        obs=True,
        trace=True,
        ingest=ingest,
        chaos=NO_CHAOS if kind == "campaign" else kind,
    )
    breakdown = (
        delivery_breakdown(res) if kind != "campaign" and ingest == "file" else None
    )
    recorder = res.trace
    assert recorder is not None
    spans_text = spans_to_jsonl(res.testbed.obs.tracer.spans)
    payload: dict[str, Any] = {
        "meta": {
            "kind": kind,
            "use_case": use_case,
            "seed": seed,
            "tiebreak": tiebreak,
            "duration_s": duration_s,
        },
        "events": recorder.lines,
        "campaign_trace": campaign_trace(res),
        "n_spans": len(res.testbed.obs.tracer.spans),
        "spans_sha256": hashlib.sha256(spans_text.encode("utf-8")).hexdigest(),
    }
    if ingest == "file":
        payload["table1"] = asdict(res.table1())
        payload["fig4"] = fig4_samples(res.runs)
    else:
        payload["meta"]["ingest"] = ingest
        payload.update(stream_outcome(res))
    if breakdown is not None:
        payload["breakdown"] = breakdown
    return payload


def write_golden(path: str, payload: dict[str, Any]) -> None:
    """Write a reproducible (mtime-free) gzip JSON golden."""
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=buf, mtime=0) as gz:
        gz.write(raw)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def read_golden(path: str) -> dict[str, Any]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def golden_fingerprint(payload: dict[str, Any]) -> dict[str, Any]:
    """What a golden must keep when only zero-delay hops are removed.

    * ``outcome_sha256`` — the payload without ``events``: Table 1,
      Fig. 4, ``campaign_trace``, the span count and hash, session
      records, quarantines, indexed subjects and the breakdown;
    * ``timed_sha256`` — the :data:`TIMED_KINDS` lines of the event
      trace, in order: every timer fires at the same time and in the
      same order;
    * ``events`` and ``kinds`` — the event count, in total and per kind.
    """
    outcome = {k: v for k, v in payload.items() if k != "events"}
    raw = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    kinds: dict[str, int] = {}
    timed = []
    for line in payload["events"]:
        kind = line.rsplit(" ", 1)[1]
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind in TIMED_KINDS:
            timed.append(line)
    return {
        "outcome_sha256": hashlib.sha256(raw.encode("utf-8")).hexdigest(),
        "timed_sha256": hashlib.sha256("\n".join(timed).encode("utf-8")).hexdigest(),
        "events": len(payload["events"]),
        "kinds": dict(sorted(kinds.items())),
    }


def write_fingerprints(path: str = FINGERPRINTS) -> dict[str, Any]:
    """Capture every :data:`GOLDEN_SPECS` campaign on the ``repro`` on
    the import path and write its :func:`golden_fingerprint` to
    ``path``, keyed by golden name."""
    table = {
        golden_filename(*spec)[: -len(".json.gz")]: golden_fingerprint(
            capture_golden(*spec)
        )
        for spec in GOLDEN_SPECS
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return table


def record_all(directory: str) -> list[str]:
    """Capture every :data:`GOLDEN_SPECS` entry into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for spec in GOLDEN_SPECS:
        payload = capture_golden(*spec)
        path = os.path.join(directory, golden_filename(*spec))
        write_golden(path, payload)
        written.append(path)
        print(f"recorded {path}: {len(payload['events'])} events")
    return written
