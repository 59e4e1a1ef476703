"""Tests for the streaming-ingest fast path (``repro.stream``).

Covers the credit-window backpressure bound, blackout → gap
renegotiation with exactly-once delivery to the drain, the in-flight
analysis kickoff, the ``ingest="stream"`` campaign mode, and the
head-to-head latency win over the file pipeline.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import run_campaign
from repro.errors import ServiceUnavailable, StreamError
from repro.net import NetworkFabric, Topology
from repro.obs import (
    Observability,
    derive_runs,
    derive_stream_sessions,
    format_ingest_comparison,
    ingest_comparison,
)
from repro.sim import Environment
from repro.stream import StreamPublisher, StreamReceiver, chunk_sizes, retry_outages
from repro.units import MB, Gbps


def _fabric_world():
    """A two-hop instrument → switch → compute-node fabric."""
    env = Environment()
    topo = Topology()
    topo.add_node("inst")
    topo.add_node("sw", kind="switch")
    topo.add_node("node")
    topo.add_link("inst", "sw", Gbps(1))
    topo.add_link("sw", "node", Gbps(10))
    return env, NetworkFabric(env, topo)


# -- chunking ----------------------------------------------------------------


def test_chunk_sizes_full_plus_remainder():
    assert chunk_sizes(MB(20), MB(8)) == [MB(8), MB(8), MB(4)]
    assert chunk_sizes(MB(16), MB(8)) == [MB(8), MB(8)]
    assert chunk_sizes(MB(3), MB(8)) == [MB(3)]


def test_chunk_sizes_rejects_non_positive():
    with pytest.raises(StreamError):
        chunk_sizes(0, MB(8))
    with pytest.raises(StreamError):
        chunk_sizes(MB(8), 0)


# -- outage retries ----------------------------------------------------------


@pytest.mark.parametrize("max_attempts", [None, 8])
def test_retry_outages_backoff_and_cap(max_attempts):
    """Each failure charges the connect timeout, then waits 1, 2, 4, ...
    seconds capped at 30; a capped retry re-raises its last failure."""
    env = Environment()
    calls: list[float] = []

    def op():
        calls.append(env.now)
        if len(calls) <= 9:
            raise ServiceUnavailable("down", connect_timeout_s=0.5)
        return "ok"

    def proc():
        return (yield from retry_outages(env, op, max_attempts))

    p = env.process(proc())
    if max_attempts is None:
        env.run()
        assert p.value == "ok"
        gaps = [b - a - 0.5 for a, b in zip(calls, calls[1:])]
        assert gaps == [1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0, 30.0, 30.0]
    else:
        with pytest.raises(ServiceUnavailable):
            env.run()
        assert len(calls) == max_attempts


# -- backpressure ------------------------------------------------------------


def test_credit_window_bounds_in_flight():
    """A slow node-side drain must block the publisher at the window:
    chunks holding credits never exceed ``window``, and the window
    actually fills (the bound binds, it isn't vacuous)."""
    env, fabric = _fabric_world()
    # Drain at 4 MB/s: ~2 s per 8 MB chunk vs ~0.07 s on the wire.
    receiver = StreamReceiver(env, host="node", ingest_bytes_per_s=MB(4))
    publisher = StreamPublisher(
        env, fabric, receiver, src_host="inst", window=4, chunk_bytes=MB(8)
    )
    high_water = 0
    arrived = receiver.arrived

    def counting_arrived(session, chunk):
        nonlocal high_water
        in_flight = publisher.window - receiver._states[session.session_id].credits
        high_water = max(high_water, in_flight)
        return arrived(session, chunk)

    receiver.arrived = counting_arrived
    session = publisher.start("/acq.emd", MB(8) * 12)
    env.run()
    assert session.status == "DELIVERED"
    state = receiver._states[session.session_id]
    assert high_water <= 4
    assert high_water >= 3
    assert session.duplicates == 0
    assert state.drained == 12


def test_threshold_fires_before_full_delivery():
    """The in-flight analysis kickoff: ``threshold`` fires after the
    first N chunks drain, strictly before the last chunk lands."""
    env, fabric = _fabric_world()
    receiver = StreamReceiver(env, host="node", ingest_bytes_per_s=MB(40))
    publisher = StreamPublisher(
        env, fabric, receiver, src_host="inst",
        chunk_bytes=MB(8), threshold_chunks=3,
    )
    session = publisher.start("/acq.emd", MB(8) * 10)
    env.run()
    assert session.threshold.triggered
    assert session.threshold_at is not None
    assert session.threshold_at < session.last_chunk_at
    assert session.status == "DELIVERED"


@pytest.mark.parametrize(
    "param, value",
    [
        ("chunk_bytes", 0),
        ("chunk_bytes", float("nan")),
        ("window", 0),
        ("threshold_chunks", 0),
        ("chunk_timeout_s", 0),  # used to livelock in renegotiations
        ("chunk_timeout_s", float("nan")),
        ("abort_poll_s", 0),  # used to hang env.run at one sim time
        ("handshake_s", -0.05),
        ("handshake_sigma", -0.2),
        ("efficiency", 0),
        ("efficiency", 1.5),
        ("efficiency", float("nan")),
        ("max_retransmits", -1),
    ],
)
def test_publisher_rejects_bad_parameters_up_front(param, value):
    """Every parameter is checked at construction, before any session
    could livelock, hang the run or fail from inside it."""
    env, fabric = _fabric_world()
    receiver = StreamReceiver(env, host="node")
    with pytest.raises(StreamError, match=param):
        StreamPublisher(env, fabric, receiver, src_host="inst", **{param: value})


def test_receiver_rejects_reopen_and_unknown_session():
    env, fabric = _fabric_world()
    receiver = StreamReceiver(env, host="node")
    publisher = StreamPublisher(env, fabric, receiver, src_host="inst")
    session = publisher.start("/acq.emd", MB(8))
    with pytest.raises(StreamError):
        receiver.open(session, 4)  # already open
    env.run()
    other = publisher.start("/acq2.emd", MB(8))
    del receiver._states[other.session_id]
    with pytest.raises(StreamError):
        receiver.credit(other)


def test_out_of_sequence_chunk_is_refused():
    """The publisher keeps one chunk on the wire and resends a withdrawn
    chunk under its own number, so a chunk one ahead of sequence or one
    already accepted is a protocol fault, not a gap or duplicate to
    count: the receiver raises, naming the session, and the session
    still delivers."""
    env, fabric = _fabric_world()
    receiver = StreamReceiver(env, host="node")
    publisher = StreamPublisher(
        env, fabric, receiver, src_host="inst", chunk_bytes=MB(8)
    )
    arrivals = []
    arrived = receiver.arrived

    def recording_arrived(session, chunk):
        arrivals.append(chunk)
        return arrived(session, chunk)

    receiver.arrived = recording_arrived
    session = publisher.start("/acq.emd", MB(8) * 6)
    env.run(until=session.threshold)
    last = arrivals[-1]
    assert receiver._states[session.session_id].next_seq == last.seq + 1
    for seq in (last.seq + 2, last.seq):
        with pytest.raises(StreamError, match=session.session_id):
            arrived(session, replace(last, seq=seq))
    env.run()
    assert session.status == "DELIVERED"
    assert session.duplicates == 0


# -- blackout renegotiation --------------------------------------------------


def test_blackout_renegotiation_delivers_exactly_once():
    """A link blackout mid-session stalls the in-flight chunk; the
    publisher withdraws it, renegotiates, and resends it under its own
    sequence number — every frame reaches the drain exactly once."""
    env, fabric = _fabric_world()
    obs = Observability(env)
    metrics = obs.metrics
    receiver = StreamReceiver(env, host="node", obs=obs)
    publisher = StreamPublisher(
        env, fabric, receiver, src_host="inst",
        chunk_bytes=MB(8), chunk_timeout_s=0.5, obs=obs,
    )
    session = publisher.start("/acq.emd", MB(8) * 10)

    def blackout(env):
        yield env.timeout(0.1)
        fabric.set_link_health("inst", "sw", 0.0)
        yield env.timeout(3.0)
        fabric.set_link_health("inst", "sw", 1.0)

    env.process(blackout(env))
    env.run()
    assert session.status == "DELIVERED"
    assert session.renegotiations >= 1
    state = receiver._states[session.session_id]
    assert state.drained == 10
    assert state.next_seq == 10
    # exactly once: the drain saw each of the 10 frames a single time
    assert metrics.counter("stream.chunks_delivered").value == 10
    assert metrics.counter("stream.renegotiations").value == session.renegotiations
    # receiver bookkeeping surfaces as obs metrics: an unverified clean
    # wire produces no duplicates and no NAKs
    assert metrics.counter("stream.duplicates").value == session.duplicates
    assert metrics.counter("stream.naks").value == 0
    assert session.naks == 0


def test_deadline_inside_admission_window_polls_until_landing():
    """A chunk whose delivery deadline expires while its stream is still
    inside the path-latency admission window cannot be withdrawn: the
    publisher re-polls every ``abort_poll_s``.  A chunk that lands
    mid-poll is observed at the next poll tick, not when it lands, so
    every arrival time below sits on the poll grid."""
    env = Environment()
    topo = Topology()
    topo.add_node("inst")
    topo.add_node("node")
    topo.add_link("inst", "node", Gbps(1), latency_s=1.0)
    fabric = NetworkFabric(env, topo)
    receiver = StreamReceiver(env, host="node")
    publisher = StreamPublisher(
        env, fabric, receiver, src_host="inst",
        chunk_bytes=MB(1), chunk_timeout_s=0.5, abort_poll_s=0.05,
    )
    session = publisher.start("/acq.emd", MB(4))
    env.run()
    assert session.status == "DELIVERED"
    assert session.renegotiations == 2
    assert session.chunks_sent == 6
    assert session.duplicates == 0
    assert session.first_chunk_at == 3.1855626319072914
    assert session.last_chunk_at == 6.335562631907286


# -- chunk verification: NAK + selective retransmit --------------------------


class _ScriptedCorruptor:
    """Duck-typed chaos corruptor mangling scripted (seq, resend) pairs."""

    def __init__(self, faults):
        self.faults = dict(faults)  # (seq, resend) -> (kind, frac)

    def draw(self, session, seq, resend):
        fault = self.faults.get((seq, resend))
        if fault is None:
            return None
        kind, frac = fault
        return kind, frac, f"{session.session_id}:{seq}:{resend}"


class _RecordingLedger:
    """Duck-typed IntegrityLedger capturing detect/repair events."""

    def __init__(self):
        self.detects = []
        self.repairs = []

    def detect(self, mode, kind, path, seq=None, session_id=None):
        self.detects.append((mode, kind, seq))

    def repair(self, mode, kind, path, seq=None, session_id=None):
        self.repairs.append((mode, kind, seq))


def test_corrupt_chunk_nak_selective_retransmit():
    """A corrupt and a truncated chunk are each NAK'd once, re-sent
    selectively (only the bad sequence), repaired on the clean resend,
    and the stream still delivers every frame exactly once."""
    env, fabric = _fabric_world()
    obs = Observability(env)
    metrics = obs.metrics
    ledger = _RecordingLedger()
    receiver = StreamReceiver(env, host="node", obs=obs)
    receiver.ledger = ledger
    publisher = StreamPublisher(
        env, fabric, receiver, src_host="inst",
        chunk_bytes=MB(8), obs=obs,
    )
    publisher.corruptor = _ScriptedCorruptor({
        (3, 0): ("chunk_corrupt", 1.0),
        (5, 0): ("chunk_truncate", 0.5),
    })
    session = publisher.start("/acq.emd", MB(8) * 10, digest="d" * 32)
    env.run()
    assert session.status == "DELIVERED"
    assert session.naks == 2 and session.retransmits == 2
    assert session.failed is not None and not session.failed.triggered
    state = receiver._states[session.session_id]
    assert state.drained == 10 and not state.nak_pending
    assert metrics.counter("stream.naks").value == 2
    assert metrics.counter("stream.retransmits").value == 2
    # exactly once despite the resends
    assert metrics.counter("stream.chunks_delivered").value == 10
    assert metrics.counter("stream.duplicates").value == 0
    # the ledger saw each failure kind and each retransmit repair
    assert ledger.detects == [
        ("stream", "corrupt", 3), ("stream", "truncated", 5)
    ]
    assert ledger.repairs == [
        ("stream", "retransmit", 3), ("stream", "retransmit", 5)
    ]


def test_retransmit_cap_fails_session():
    """A source that can never produce a clean chunk exhausts the
    per-sequence retransmit budget: the session FAILs, fires its
    ``failed`` event, and the drain never completes."""
    env, fabric = _fabric_world()
    obs = Observability(env)
    metrics = obs.metrics
    receiver = StreamReceiver(env, host="node", obs=obs)
    publisher = StreamPublisher(
        env, fabric, receiver, src_host="inst",
        chunk_bytes=MB(8), max_retransmits=2, obs=obs,
    )
    publisher.corruptor = _ScriptedCorruptor({
        (2, r): ("chunk_corrupt", 1.0) for r in range(10)
    })
    session = publisher.start("/acq.emd", MB(8) * 6, digest="d" * 32)
    env.run()
    assert session.status == "FAILED"
    assert "after 2 retransmits" in session.error
    assert session.failed is not None and session.failed.triggered
    # initial send + 2 allowed retransmits, all NAK'd
    assert session.naks == 3 and session.retransmits == 2
    assert metrics.counter("stream.naks").value == 3
    state = receiver._states[session.session_id]
    assert state.next_seq == 2 and state.drained == 2


def test_verified_clean_stream_never_naks():
    """Arming digests without a corruptor is pure verification: every
    chunk passes, no NAKs, no failure event."""
    env, fabric = _fabric_world()
    receiver = StreamReceiver(env, host="node")
    publisher = StreamPublisher(
        env, fabric, receiver, src_host="inst", chunk_bytes=MB(8)
    )
    session = publisher.start("/acq.emd", MB(8) * 5, digest="d" * 32)
    env.run()
    assert session.status == "DELIVERED"
    assert session.naks == 0 and session.retransmits == 0
    assert not session.failed.triggered


# -- campaign integration ----------------------------------------------------


def test_stream_campaign_publishes_sessions():
    res = run_campaign(
        "hyperspectral", duration_s=600.0, seed=3, obs=True, ingest="stream"
    )
    assert res.ingest == "stream"
    published = res.app.published_sessions
    assert published
    for s in published:
        # the paper-motivated ordering: analysis starts on partial data,
        # publication waits for analysis + full delivery
        assert s.threshold_at <= s.analysis_started_at
        assert s.analysis_done_at <= s.published_at
        assert s.detection_to_analysis_s > 0
    # the flow-run facade is empty and Table 1 refuses stream mode
    assert res.runs == [] and res.completed_runs == []
    assert res.stream_sessions == res.app.sessions
    with pytest.raises(ValueError):
        res.table1()


def test_stream_beats_file_on_detection_to_analysis():
    """The acceptance criterion: streaming shows lower
    detection-to-analysis latency than the file pipeline."""
    rf = run_campaign("hyperspectral", duration_s=600.0, seed=1, obs=True)
    rs = run_campaign(
        "hyperspectral", duration_s=600.0, seed=1, obs=True, ingest="stream"
    )
    runs = derive_runs(rf.testbed.obs.tracer.spans)
    sessions = derive_stream_sessions(rs.testbed.obs.tracer.spans)
    assert runs and sessions
    cmp = ingest_comparison(runs, sessions)
    assert (
        cmp["stream"]["detection_to_analysis_s"]["mean"]
        < cmp["file"]["detection_to_analysis_s"]["mean"]
    )
    assert cmp["stream"]["end_to_end_s"]["p50"] < cmp["file"]["end_to_end_s"]["p50"]
    table = format_ingest_comparison(cmp)
    assert "file" in table and "stream" in table


def test_stream_session_traces_stitch_by_session_id():
    res = run_campaign(
        "hyperspectral", duration_s=600.0, seed=2, obs=True, ingest="stream"
    )
    sessions = derive_stream_sessions(res.testbed.obs.tracer.spans)
    published = [t for t in sessions if t.status == "PUBLISHED"]
    assert published
    for t in published:
        assert t.deliver_start is not None  # publisher span stitched
        assert t.analyze_start is not None and t.publish_start is not None
        assert t.analyze_start <= t.publish_start
        assert t.end_to_end_seconds > 0


def test_unknown_ingest_mode_rejected():
    with pytest.raises(ValueError):
        run_campaign("hyperspectral", duration_s=10.0, ingest="carrier-pigeon")


def test_stream_mode_rejects_compression():
    with pytest.raises(ValueError):
        run_campaign(
            "hyperspectral", duration_s=10.0, ingest="stream", compression=object()
        )


def test_chaos_shares_transfer_gate_with_publisher():
    from repro.chaos import SCENARIOS

    res = run_campaign(
        "hyperspectral", duration_s=60.0, seed=1,
        ingest="stream", chaos=SCENARIOS["outage"],
    )
    assert res.app.publisher.gate is res.chaos.gates["transfer"]
