"""Corruption-audit characterization.

The claim to defend: a full corruption campaign ends with every
injected fault repaired or quarantined, zero silent acceptances.
(That disabled integrity builds no machinery is the tier-1
``tests/test_integrity.py`` gate; what verification costs is carried by
the end-to-end ``campaign-chaos`` workload in ``benchmarks/e2e``.)
"""

from __future__ import annotations

from repro.core import run_campaign
from repro.integrity import audit_campaign, format_audit

from conftest import report

DURATION = 1800.0


def test_corruption_campaign_audit(benchmark, output_dir):
    result = benchmark.pedantic(
        lambda: run_campaign(
            "hyperspectral", chaos="corruption", duration_s=DURATION, seed=5,
            ingest="stream", obs=True,
        ),
        rounds=1,
        iterations=1,
    )
    audit = audit_campaign(result)
    sessions = result.app.sessions
    lines = [
        f"sessions: {len(sessions)}  "
        f"published: {sum(1 for s in sessions if s.status == 'PUBLISHED')}  "
        f"quarantined: {len(result.ledger.quarantined)}",
        *format_audit(audit).splitlines(),
    ]
    report("bench_integrity_audit", lines, output_dir)
    assert audit.ok  # zero silent acceptances, no publish violations
    assert audit.counts["injections"] > 0  # the scenario actually fired
