"""The instrument-side endpoint of the streaming fast path.

A :class:`StreamPublisher` bypasses the file-watch → transfer → poll
pipeline: as soon as an acquisition exists it is sliced into
fixed-size chunks and pushed over the :class:`~repro.net.NetworkFabric`
directly to the receiver's compute host, gated only by the receiver's
credit window.

Fault model (the chaos hooks this subsystem reuses):

* **link blackouts** (:meth:`~repro.net.NetworkFabric.set_link_health`)
  stall chunk streams at zero rate; a chunk that misses its delivery
  timeout is withdrawn from the fabric
  (:meth:`~repro.net.NetworkFabric.abort`), the control channel is
  re-established (handshake, retried through :func:`retry_outages`),
  and the withdrawn chunk is resent under its own sequence number —
  the renegotiation;
* **control-plane outages** (a :class:`~repro.chaos.ServiceGate` on
  :attr:`StreamPublisher.gate`) reject new sessions and renegotiation
  handshakes, charging the gate's connect timeout, exactly like the
  cloud services.

Each session is one DES process that waits only where time passes or
the window is empty: for a credit when none is free, then for the
chunk's fabric ``done`` event.  It keeps one chunk on the wire and
moves to the next sequence number only once the receiver accepts the
current one, so chunks arrive in sequence.  The chunk's delivery
deadline is a callback on one timer (:class:`_Deadline`), withdrawn
when the chunk lands first.
"""

from __future__ import annotations

import itertools
from types import GeneratorType
from typing import Any, Callable, Generator, Optional

from ..errors import EndpointError, ServiceUnavailable, StreamError
from ..flows.backoff import ExponentialBackoff
from ..integrity.digest import chunk_digest, mangle
from ..net import NetworkFabric
from ..obs import NULL_OBS
from ..rng import RngRegistry, lognormal_from_median
from ..sim import Environment, Event
from ..units import MB
from .receiver import StreamReceiver
from .session import FrameChunk, StreamSession, chunk_sizes

__all__ = ["OUTAGE_BACKOFF", "StreamPublisher", "retry_outages"]

#: Waits between attempts at a gated control-plane call: 1 s doubling
#: to a 30 s cap.
OUTAGE_BACKOFF = ExponentialBackoff(initial=1.0, factor=2.0, max_interval=30.0)


def retry_outages(
    env: Environment, op: Callable[[], Any], max_attempts: Optional[int] = None
) -> Generator:
    """DES sub-process: call ``op`` until it gets through a control-plane
    outage.  Each :class:`~repro.errors.ServiceUnavailable` charges the
    gate's connect timeout, then waits the next :data:`OUTAGE_BACKOFF`
    interval; the ``max_attempts``-th failure (``None``: never) is
    re-raised.  An ``op`` returning a generator is driven as a
    sub-process inside the retry.  Use as
    ``result = yield from retry_outages(env, op)``.
    """
    delays = OUTAGE_BACKOFF.intervals()
    for attempt in itertools.count(1):
        try:
            result = op()
            if isinstance(result, GeneratorType):
                result = yield from result
            return result
        except ServiceUnavailable as exc:
            if exc.connect_timeout_s > 0:
                yield env.timeout(exc.connect_timeout_s)
            if attempt == max_attempts:
                raise
            yield env.timeout(next(delays))


class _Deadline:
    """One chunk's delivery deadline, a callback on one timer.

    When the timer fires before the chunk's fabric stream lands, the
    callback withdraws the stream (:meth:`NetworkFabric.abort`), which
    fires ``done`` with the partial stream.  A stream still inside its
    admission-latency window cannot be withdrawn yet: the callback
    re-arms itself every ``abort_poll_s`` until the withdrawal succeeds
    or the chunk lands.  A chunk that lands mid-poll is observed at the
    next poll tick (the publisher waits out :attr:`timer`), never
    earlier.
    """

    __slots__ = ("publisher", "done", "timer", "polling", "withdrawn")

    def __init__(self, publisher: "StreamPublisher", done: Event) -> None:
        self.publisher = publisher
        self.done = done
        #: The timer is a poll tick (the stream was not yet admitted).
        self.polling = False
        #: The stream was withdrawn before delivery.
        self.withdrawn = False
        self.timer = publisher.env.timeout(publisher.chunk_timeout_s)
        self.timer.callbacks.append(self._expire)

    def _expire(self, timer: Event) -> None:
        if self.done.triggered:
            return  # landed during the poll; the publisher reads it now
        publisher = self.publisher
        if publisher.fabric.abort(self.done):
            self.polling = False
            self.withdrawn = True
            return
        self.polling = True
        self.timer = publisher.env.timeout(publisher.abort_poll_s)
        self.timer.callbacks.append(self._expire)

    def landed(self) -> None:
        """The chunk landed before its deadline: withdraw the timer."""
        if not self.timer.processed:
            self.publisher.env.cancel(self.timer)


class StreamPublisher:
    """Streams acquisitions chunk-by-chunk to a :class:`StreamReceiver`.

    Parameters
    ----------
    env, fabric:
        Simulation environment and the shared network.
    receiver:
        The compute-side endpoint sessions terminate on.
    src_host:
        Topology node the instrument writes from.
    chunk_bytes:
        Wire chunk size; the last chunk carries the remainder.
    window:
        Credit window — the bound on chunks in flight per session.
    threshold_chunks:
        In-order chunks required before the session's ``threshold``
        event fires (the in-flight analysis kickoff).
    chunk_timeout_s:
        Delivery timeout per chunk before a renegotiation.
    handshake_s:
        Median control-channel setup time (per session and per
        renegotiation).
    efficiency:
        Protocol efficiency applied to each chunk's fair share.

    Raises :class:`~repro.errors.StreamError` up front for a parameter
    outside its range (a zero timeout or poll interval would livelock
    the session instead).
    """

    def __init__(
        self,
        env: Environment,
        fabric: NetworkFabric,
        receiver: StreamReceiver,
        src_host: str,
        rngs: Optional[RngRegistry] = None,
        chunk_bytes: float = MB(8),
        window: int = 8,
        threshold_chunks: int = 4,
        chunk_timeout_s: float = 30.0,
        handshake_s: float = 0.05,
        handshake_sigma: float = 0.2,
        abort_poll_s: float = 0.05,
        efficiency: float = 1.0,
        max_retransmits: int = 4,
        obs: Any = NULL_OBS,
    ) -> None:
        self.env = env
        self.fabric = fabric
        self.receiver = receiver
        self.src_host = src_host
        self.rngs = rngs or RngRegistry(seed=0)
        self.chunk_bytes = float(chunk_bytes)
        self.window = int(window)
        self.threshold_chunks = int(threshold_chunks)
        self.chunk_timeout_s = float(chunk_timeout_s)
        self.handshake_s = float(handshake_s)
        self.handshake_sigma = float(handshake_sigma)
        self.abort_poll_s = float(abort_poll_s)
        self.efficiency = float(efficiency)
        #: NAK'd retransmits allowed per sequence number before the
        #: session is declared unrepairable and fails.
        self.max_retransmits = int(max_retransmits)
        # Comparisons written so that NaN fails them too.
        for name, ok, rule in (
            ("chunk_bytes", self.chunk_bytes > 0, "> 0"),
            ("window", self.window >= 1, ">= 1"),
            ("threshold_chunks", self.threshold_chunks >= 1, ">= 1"),
            ("chunk_timeout_s", self.chunk_timeout_s > 0, "> 0"),
            ("abort_poll_s", self.abort_poll_s > 0, "> 0"),
            ("handshake_s", self.handshake_s >= 0, ">= 0"),
            ("handshake_sigma", self.handshake_sigma >= 0, ">= 0"),
            ("efficiency", 0 < self.efficiency <= 1, "in (0, 1]"),
            ("max_retransmits", self.max_retransmits >= 0, ">= 0"),
        ):
            if not ok:
                raise StreamError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        #: Chaos hook: a duck-typed outage gate (see
        #: :class:`repro.chaos.ServiceGate`).  ``None`` means always up.
        self.gate: Any = None
        #: Chaos hook: a duck-typed chunk corruptor (see
        #: :class:`repro.chaos.ChunkCorruptor`) mangling wire digests.
        self.corruptor: Any = None
        #: Integrity hook: the source filesystem, so wire digests are
        #: computed from the payload *as it is at send time* — at-rest
        #: rot mid-session surfaces as chunk digest mismatches.
        self.source_fs: Any = None
        self.tracer = obs.tracer
        m = self._metrics = obs.metrics
        self._m_sessions = m.counter("stream.sessions_started")
        self._m_chunks = m.counter("stream.chunks_sent")
        self._m_bytes = m.counter("stream.bytes_sent")
        # Renegotiations and retransmits are counted by counters fetched
        # where they fire: a clean run's export carries neither.
        self._ids = itertools.count(1)
        self.sessions: list[StreamSession] = []

    # -- session start -----------------------------------------------------
    def start(
        self,
        path: str,
        nbytes: float,
        virtual: Any = None,
        digest: Optional[str] = None,
    ) -> StreamSession:
        """Open a session for one acquisition and start streaming it.

        Returns immediately with the :class:`StreamSession`; delivery
        runs as a DES process.  A control-plane outage never fails the
        open — the delivery process retries its handshake through the
        gate with backoff, so sessions opened mid-outage simply start
        late.  Passing the acquisition's declared ``digest`` arms
        per-chunk verification (and the NAK/retransmit machinery).
        """
        sizes = chunk_sizes(nbytes, self.chunk_bytes)
        session = StreamSession(
            session_id=f"strm-{next(self._ids):06d}",
            path=path,
            total_bytes=float(nbytes),
            chunk_bytes=self.chunk_bytes,
            total_chunks=len(sizes),
            threshold_chunks=min(self.threshold_chunks, len(sizes)),
            created_at=self.env.now,
            threshold=self.env.event(),
            delivered=self.env.event(),
            virtual=virtual,
            declared_digest=digest,
            failed=self.env.event() if digest is not None else None,
        )
        self.sessions.append(session)
        self._m_sessions.inc()
        self.receiver.open(session, self.window)
        self.env.process(self._run(session, sizes))
        return session

    # -- internals ---------------------------------------------------------
    def _source_digest(self, session: StreamSession) -> str:
        """The payload digest at send time (declared digest when no
        source filesystem is wired — unit/bench sessions)."""
        if self.source_fs is not None:
            try:
                return self.source_fs.stat(session.path).payload_digest
            except EndpointError:
                pass  # source vanished mid-session; keep the snapshot
        v = session.virtual
        if v is not None:
            return getattr(v, "payload_digest", session.declared_digest)
        return session.declared_digest

    def _wire_chunk(self, session: StreamSession, seq: int, nbytes: float, resend: int) -> FrameChunk:
        """Build the chunk as it goes on the wire, digest included —
        and, when a chaos corruptor is armed, as mangled by it."""
        digest = None
        wire_nbytes = nbytes
        if session.declared_digest is not None:
            digest = chunk_digest(self._source_digest(session), seq, nbytes)
            if self.corruptor is not None:
                fault = self.corruptor.draw(session, seq, resend)
                if fault is not None:
                    kind, frac, salt = fault
                    if kind == "chunk_truncate":
                        wire_nbytes = max(1.0, nbytes * frac)
                    digest = mangle(digest, salt)
        return FrameChunk(seq=seq, nbytes=wire_nbytes, digest=digest)

    def _handshake_jitter(self) -> float:
        rng = self.rngs.stream("stream.handshake")
        return lognormal_from_median(rng, self.handshake_s, self.handshake_sigma)

    def _handshake(self) -> Generator:
        """(Re-)establish the control channel, retrying through outages
        without limit."""
        yield from retry_outages(
            self.env, lambda: self.gate is None or self.gate.check(self.env.now)
        )
        if self.handshake_s > 0:
            yield self.env.timeout(self._handshake_jitter())

    def _run(self, session: StreamSession, sizes: "list[float]"):
        receiver = self.receiver
        retries: dict[int, int] = {}
        span = (
            self.tracer.start("stream.deliver")
            .set("session_id", session.session_id)
            .set("bytes", session.total_bytes)
            .set("chunks", session.total_chunks)
        )
        try:
            yield from self._handshake()
            seq = 0
            while seq < session.total_chunks:
                credit = receiver.credit(session)
                if credit is not None:
                    yield credit  # the window is empty
                chunk = self._wire_chunk(
                    session, seq, sizes[seq], retries.get(seq, 0)
                )
                session.chunks_sent += 1
                self._m_chunks.inc()
                self._m_bytes.inc(chunk.nbytes)
                done = self.fabric.transfer(
                    self.src_host, receiver.host, chunk.nbytes, self.efficiency
                )
                deadline = _Deadline(self, done)
                yield done
                if deadline.polling:
                    # Landed while its withdrawal was being polled:
                    # count it delivered at the next poll tick.
                    yield deadline.timer
                elif deadline.withdrawn:
                    # Delivery timeout: the stalled stream was withdrawn.
                    receiver.refund(session)
                    session.renegotiations += 1
                    self._metrics.counter("stream.renegotiations").inc()
                    yield from self._handshake()
                    continue  # resend the withdrawn sequence
                else:
                    deadline.landed()
                if not receiver.arrived(session, chunk):
                    # Selective retransmit: re-send this sequence only
                    # (the credit came back with the NAK), up to the
                    # per-sequence cap.  A source whose payload itself
                    # no longer verifies can never produce a clean
                    # chunk — the session is unrepairable.
                    naks = retries.get(seq, 0) + 1
                    retries[seq] = naks
                    if naks > self.max_retransmits:
                        session.status = "FAILED"
                        session.error = (
                            f"integrity: chunk {seq} failed verification "
                            f"after {self.max_retransmits} retransmits"
                        )
                        span.set("status", "FAILED").set("failed_seq", seq)
                        if session.failed is not None:
                            session.failed.succeed(session)
                        return
                    session.retransmits += 1
                    self._metrics.counter("stream.retransmits").inc()
                    continue
                seq += 1
            span.set("renegotiations", session.renegotiations)
            yield session.delivered
        finally:
            span.finish()
