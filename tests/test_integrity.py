"""Tests for ``repro.integrity``: digests, chains, the ledger, and the
end-to-end zero-silent-acceptance audit under chaos corruption.

The tentpole invariant: every corruption the chaos layer injects —
at-rest bit rot, in-flight chunk corruption/truncation, metadata–payload
mismatch — is either *repaired* (retransmit/retry) or *quarantined*
(dead-lettered with its digest chain, never published to search).
"""

from __future__ import annotations

import pytest

from repro.chaos import SCENARIOS
from repro.core import run_campaign
from repro.errors import ConfigError, IntegrityError
from repro.integrity import (
    DigestChain,
    IntegrityLedger,
    audit_campaign,
    audit_spans,
    chunk_digest,
    format_audit,
    mangle,
)
from repro.obs import Observability, derive_integrity_events
from repro.sim import Environment
from repro.storage import VirtualFS
from repro.units import MB


# -- digest arithmetic -------------------------------------------------------


def test_mangle_deterministic_and_never_identity():
    d = "abc123" * 5
    assert mangle(d) == mangle(d)
    assert mangle(d) != d
    assert mangle(d, "salt-a") != mangle(d, "salt-b")
    # re-mangling drifts further, never back to the original
    assert mangle(mangle(d)) != d


def test_chunk_digest_binds_payload_seq_and_size():
    base = chunk_digest("payload", 3, MB(8))
    assert base == chunk_digest("payload", 3, MB(8))
    assert base != chunk_digest("payload", 4, MB(8))  # other chunk
    assert base != chunk_digest("payload", 3, MB(4))  # truncated
    assert base != chunk_digest(mangle("payload"), 3, MB(8))  # rotten


# -- digest chains -----------------------------------------------------------


def test_chain_closes_on_matching_attestations():
    chain = DigestChain(path="/a.emd", subject="acq-1", declared="d0")
    assert not chain.closed
    assert "no acquisition" in chain.why_open()
    chain.attest("acquired", "d0", at=0.0, by="watcher")
    assert "not transferred/streamed" in chain.why_open()
    chain.attest("streamed", "d0", at=5.0, by="receiver")
    assert "no verified-read" in chain.why_open()
    chain.attest("analyzed", "d0", at=9.0, by="compute")
    assert chain.closed and chain.why_open() is None
    assert chain.stages == {"acquired", "streamed", "analyzed"}


def test_chain_mismatched_hop_stays_open_until_reattested():
    chain = DigestChain(path="/a.emd", subject="acq-1", declared="d0")
    chain.attest("acquired", "d0", at=0.0, by="watcher")
    chain.attest("transferred", mangle("d0"), at=5.0, by="transfer")
    chain.attest("analyzed", "d0", at=9.0, by="compute")
    assert not chain.closed
    assert "does not match declared" in chain.why_open()
    # a faulted transfer retried clean re-attests the hop; latest wins
    chain.attest("transferred", "d0", at=7.0, by="transfer")
    assert chain.digest_at("transferred") == "d0"
    assert chain.closed


def test_chain_rejects_unknown_stage():
    chain = DigestChain(path="/a.emd", subject="s", declared="d")
    with pytest.raises(ValueError):
        chain.attest("teleported", "d", at=0.0, by="x")


# -- the ledger --------------------------------------------------------------


def _ledger_world():
    env = Environment()
    obs = Observability(env)
    ledger = IntegrityLedger(env, obs=obs)
    return env, obs, ledger


def test_ledger_begin_is_idempotent_and_attests_acquired():
    _, _, ledger = _ledger_world()
    chain = ledger.begin("/a.emd", declared="d0", subject="acq-1", at=1.0)
    assert ledger.begin("/a.emd", declared="d0", subject="acq-1", at=2.0) is chain
    assert chain.digest_at("acquired") == "d0" and len(chain.links) == 1
    assert ledger.chain_for_subject("acq-1") is chain
    # attest on a path with no open chain is a silent no-op
    ledger.attest("/never-seen", "analyzed", "d0", at=3.0, by="compute")


def test_ledger_quarantine_first_reason_wins():
    _, obs, ledger = _ledger_world()
    ledger.begin("/a.emd", declared="d0", subject="acq-1", at=0.0)
    rec = ledger.quarantine("/a.emd", reason="first")
    assert rec is not None and rec.reason == "first"
    assert ledger.quarantine("/a.emd", reason="second") is None
    assert ledger.is_quarantined("/a.emd")
    assert [q.reason for q in ledger.quarantined] == ["first"]
    assert obs.metrics.counter("integrity.quarantined").value == 1
    assert rec.to_dict()["chain"]["subject"] == "acq-1"


def test_publish_gate_refuses_open_chain_and_passes_closed():
    env, obs, ledger = _ledger_world()
    chain = ledger.begin("/a.emd", declared="d0", subject="acq-1", at=0.0)
    # unknown subjects (out-of-band ingest) pass without a receipt
    assert ledger.check_publishable("acq-unknown") == (True, "")
    ok, reason = ledger.check_publishable("acq-1")
    assert not ok and "does not close" in reason
    assert ledger.is_quarantined("/a.emd")  # refused AND dead-lettered
    # a closed chain publishes and leaves the audit's receipt span
    chain.attest("streamed", "d0", at=1.0, by="receiver")
    chain.attest("analyzed", "d0", at=2.0, by="compute")
    ledger.begin("/b.emd", declared="d1", subject="acq-2", at=0.0)
    chain_b = ledger.chain("/b.emd")
    chain_b.attest("transferred", "d1", at=1.0, by="transfer")
    chain_b.attest("analyzed", "d1", at=2.0, by="compute")
    assert ledger.check_publishable("acq-2") == (True, "")
    assert ledger.published == ["/b.emd"]
    names = [s.name for s in obs.tracer.spans]
    assert names.count("integrity.publish") == 1
    # the earlier refusal can never be re-published
    ok, reason = ledger.check_publishable("acq-1")
    assert not ok


def test_verify_read_raises_on_rotten_payload():
    _, _, ledger = _ledger_world()
    fs = VirtualFS("eagle")
    f = fs.create("/transfer/a.emd", MB(8), created_at=0.0)
    descriptor = {
        "path": "/acq/a.emd",
        "dest_path": "/transfer/a.emd",
        "checksum": f.checksum,
    }
    assert ledger.verify_read(fs, descriptor) == f.checksum
    fs.corrupt("/transfer/a.emd", salt="test")
    with pytest.raises(IntegrityError, match="digest mismatch"):
        ledger.verify_read(fs, descriptor)
    assert ledger.detections and ledger.detections[-1].kind == "read"


def test_scrub_quarantines_dormant_rot():
    _, _, ledger = _ledger_world()
    fs = VirtualFS("user")
    fs.create("/acq/ok.emd", MB(8), created_at=0.0)
    fs.create("/acq/rot.emd", MB(8), created_at=0.0)
    fs.create("/plots/p.png", MB(1), created_at=0.0, kind="plot")
    fs.corrupt("/acq/rot.emd", salt="bitrot")
    fs.corrupt("/plots/p.png", salt="bitrot")  # non-emd: out of scope
    assert ledger.scrub([fs]) == 1
    assert ledger.is_quarantined("/acq/rot.emd")
    assert not ledger.is_quarantined("/acq/ok.emd")


def test_vfs_corrupt_is_silent_and_detectable():
    fs = VirtualFS("user")
    seen = []
    fs.subscribe(seen.append)
    f = fs.create("/acq/a.emd", MB(8), created_at=0.0)
    assert f.intact and f.payload_digest == f.checksum
    fs.corrupt("/acq/a.emd", salt="x")
    rotten = fs.stat("/acq/a.emd")
    assert not rotten.intact
    assert rotten.payload_digest == mangle(f.checksum, "x")
    assert rotten.checksum == f.checksum  # declared value unchanged
    assert len(seen) == 1  # create notified; corruption did NOT


# -- campaign wiring ---------------------------------------------------------


def test_corruption_without_integrity_is_rejected():
    with pytest.raises(ValueError, match="integrity"):
        run_campaign(
            "hyperspectral", duration_s=60.0, seed=0,
            chaos=SCENARIOS["corruption"], integrity=False,
        )


def test_clean_campaign_has_no_ledger_or_integrity_spans():
    res = run_campaign(
        "hyperspectral", duration_s=600.0, seed=3, obs=True, ingest="stream"
    )
    assert res.ledger is None
    events = derive_integrity_events(res.testbed.obs.tracer.spans)
    assert all(len(v) == 0 for v in events.values())
    assert all(s.failed is None for s in res.app.sessions)


def test_integrity_on_clean_campaign_publishes_closed_chains():
    """``integrity=True`` without corruption: everything verifies, every
    published record's chain closes, the audit passes with zero
    injections."""
    res = run_campaign(
        "hyperspectral", duration_s=600.0, seed=3, obs=True,
        ingest="stream", integrity=True,
    )
    ledger = res.ledger
    assert ledger is not None
    assert not ledger.detections and not ledger.quarantined
    assert ledger.published
    for path in ledger.published:
        assert ledger.chain(path).closed
    report = audit_spans(res.testbed.obs.tracer.spans)
    assert report.ok and report.counts["injections"] == 0
    assert report.counts["publishes"] == len(ledger.published)


# -- the tentpole: zero silent acceptances under chaos corruption ------------


def _audited(ingest, **settings):
    result = run_campaign(
        "hyperspectral", chaos="corruption", obs=True, ingest=ingest, **settings
    )
    return result, audit_campaign(result)


def test_corruption_campaign_stream_audit_zero_silent():
    result, report = _audited("stream", duration_s=600.0, seed=3)
    assert report.counts["injections"] > 0  # the scenario actually fired
    assert report.ok, format_audit(report)
    assert not report.silent and not report.publish_violations
    res = report.by_resolution()
    assert res["silent"] == 0
    assert res["repaired"] + res["quarantined"] == len(report.injections)
    # chunk faults heal by retransmit; the latency breakdown sees them
    assert report.latency_breakdown()["stream"]["n"] > 0
    # quarantined sessions are dead-lettered with their chains, never
    # published; published sessions all closed their chains
    ledger = result.ledger
    quarantined_paths = {q.path for q in ledger.quarantined}
    assert not quarantined_paths & set(ledger.published)
    for q in ledger.quarantined:
        assert q.chain.path == q.path and not q.chain.closed
    statuses = {s.status for s in result.app.sessions}
    assert "PUBLISHED" in statuses  # corruption didn't take the campaign down
    text = format_audit(report)
    assert "zero silent acceptances" in text and "PASS" in text


def test_corruption_campaign_file_audit_zero_silent():
    result, report = _audited("file", duration_s=600.0, seed=3)
    assert report.counts["injections"] > 0
    assert report.ok, format_audit(report)
    # at-rest rot in file mode is caught by the transfer's re-stat or
    # the end-of-campaign scrub — both file-mode verifiers
    assert report.latency_breakdown()["file"]["n"] > 0


def test_audit_refuses_an_untraced_campaign():
    """Without spans the audit would join nothing and pass: an untraced
    corruption campaign (600 s, seed 3) holds detections and quarantines
    in its ledger, yet ``audit_spans`` over its (empty) spans reads
    PASS with zero injections."""
    res = run_campaign(
        "hyperspectral", chaos="corruption", ingest="stream", duration_s=600.0,
        seed=3,
    )
    assert res.ledger.detections and res.ledger.quarantined
    assert audit_spans(res.testbed.obs.tracer.spans).ok  # the vacuous pass
    with pytest.raises(ConfigError, match="obs=True"):
        audit_campaign(res)


def test_flow_level_transfer_retry_repairs_the_wire_detection():
    """A transfer task that exhausts its wire-fault attempts leaves its
    checksum-mismatch detection open; the task the flow's retry policy
    resubmits delivers verified bytes and must emit the repair."""
    res = run_campaign(
        "hyperspectral", chaos="corruption", ingest="file", seed=11004, obs=True
    )
    assert audit_spans(res.testbed.obs.tracer.spans).unresolved_paths == []


def test_ledger_is_open_tracks_the_last_detection():
    _, _, ledger = _ledger_world()
    assert not ledger.is_open("file", "wire", "/a.emd")
    ledger.detect("file", "wire", path="/a.emd")
    assert ledger.is_open("file", "wire", "/a.emd")
    assert not ledger.is_open("file", "wire", "/b.emd")
    assert not ledger.is_open("stream", "wire", "/a.emd")
    ledger.env.run(until=1.0)
    ledger.repair("file", "wire", path="/a.emd")
    assert not ledger.is_open("file", "wire", "/a.emd")


def test_chaos_corruption_arms_publisher_and_receiver():
    res = run_campaign(
        "hyperspectral", chaos="corruption", duration_s=300.0, seed=1, obs=True,
        ingest="stream",
    )
    assert res.ledger is not None
    assert res.app.publisher.corruptor is not None
    assert res.app.publisher.receiver.ledger is res.ledger


def test_integrity_cli_audit_exit_codes():
    from repro.__main__ import main

    rc = main([
        "integrity", "--duration", "600", "--seed", "3",
        "--ingest", "stream", "--audit",
    ])
    assert rc == 0
