"""The compute-side endpoint of the streaming fast path.

One :class:`StreamReceiver` lives on a compute host and terminates
every publisher session targeting it.  Per session it keeps:

* a **credit window** — a counter of free credits plus at most one
  waiting publisher event.  A credit is taken before each send and
  returned only after the chunk is drained into the node's frame
  buffer, so a slow consumer blocks the producer (credit-based
  backpressure); the publisher waits only when the window is empty;
* a **sequence ledger** — chunks arrive in sequence (the publisher
  keeps one on the wire and resends a withdrawn one under its own
  number); any other chunk raises :class:`~repro.errors.StreamError`,
  so the analysis sees each frame exactly once;
* a **drain** — accepted chunks wait in a queue, and one ingest
  timer at a time charges the node-side ingest time
  (``nbytes / ingest_bytes_per_s``) of the chunk at its head.  The
  timer's callback accounts the chunk, returns its credit, fires the
  session's ``threshold`` event once the first N chunks have drained
  (the in-flight analysis kickoff) and ``delivered`` on the last, and
  starts the next chunk.  The ``stream.drain`` span opens in an URGENT
  zero-delay event when the session opens.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..errors import StreamError
from ..integrity.digest import chunk_digest
from ..obs import NULL_OBS
from ..obs.tracer import NULL_SPAN
from ..sim import URGENT, Environment, Event, Timeout
from .session import FrameChunk, StreamSession, chunk_sizes

__all__ = ["StreamReceiver"]


@dataclass
class _RxState:
    """Per-session receive bookkeeping."""

    #: Free credits.
    credits: int
    #: The publisher's wait for a credit while the window is empty.
    credit_wait: Optional[Event] = None
    #: Accepted chunks not yet drained, oldest first.
    queue: deque[FrameChunk] = field(default_factory=deque)
    #: The URGENT event that opens the drain span.  Nothing reads it:
    #: storing the scheduled handle is its R501 hand-off.
    drain_open: Optional[Event] = None
    #: The ingest timer of the chunk being drained; None while idle.
    drain_timer: Optional[Timeout] = None
    #: The drain timer's callback, bound to this session once.
    on_ingested: Optional[Callable[[Event], None]] = None
    span: Any = NULL_SPAN
    #: The sequence number the next arrival must carry.
    next_seq: int = 0
    #: Drained chunk count (threshold/delivery triggers).
    drained: int = 0
    #: Expected chunk sizes, precomputed when the session verifies.
    sizes: Optional[list[float]] = None
    #: Sequence numbers NAK'd and awaiting a clean retransmit.
    nak_seqs: set[int] = field(default_factory=set)


class StreamReceiver:
    """Terminates chunk streams on a compute host: takes each session's
    chunks in sequence, verifies them and drains them.

    Parameters
    ----------
    env:
        Simulation environment.
    host:
        Topology node name this receiver terminates streams on.
    ingest_bytes_per_s:
        Node-side drain rate (frame-buffer write + decode); ``0``
        disables the charge.
    """

    def __init__(
        self,
        env: Environment,
        host: str,
        ingest_bytes_per_s: float = 0.0,
        obs: Any = NULL_OBS,
    ) -> None:
        self.env = env
        self.host = host
        self.ingest_bytes_per_s = float(ingest_bytes_per_s)
        self.tracer = obs.tracer
        m = self._metrics = obs.metrics
        self._m_chunks = m.counter("stream.chunks_delivered")
        self._m_bytes = m.counter("stream.bytes_delivered")
        # NAKs are counted by a counter fetched where they fire: clean
        # runs see none, and their export carries none.
        #: Integrity hook: a duck-typed
        #: :class:`~repro.integrity.IntegrityLedger` receiving
        #: detect/repair events for NAK'd chunks.  ``None`` disables.
        self.ledger: Any = None
        self._states: dict[str, _RxState] = {}

    # -- session lifecycle -------------------------------------------------
    def open(self, session: StreamSession, window: int) -> None:
        """Allocate receive state and schedule the drain span's opening."""
        if session.session_id in self._states:
            raise StreamError(f"session already open: {session.session_id!r}")
        if window < 1:
            raise StreamError(f"window must be >= 1, got {window}")
        state = _RxState(credits=window)
        if session.declared_digest is not None:
            state.sizes = chunk_sizes(session.total_bytes, session.chunk_bytes)
        state.on_ingested = functools.partial(self._ingested, session, state)
        self._states[session.session_id] = state
        self.env.touch(state, "w")
        # The drain span opens in an URGENT zero-delay event, the slot a
        # process start takes, not here: span ids count span starts, and
        # opening it now would move it ahead of the spans the rest of
        # this firing opens.
        opener = Event(self.env)
        opener._ok = True
        opener._value = None
        opener.callbacks.append(functools.partial(self._open_drain, session, state))
        self.env.schedule(opener, priority=URGENT)
        state.drain_open = opener

    def _state(self, session: StreamSession) -> _RxState:
        try:
            return self._states[session.session_id]
        except KeyError:
            raise StreamError(
                f"no open session: {session.session_id!r}"
            ) from None

    # -- publisher-facing protocol ----------------------------------------
    def credit(self, session: StreamSession) -> Optional[Event]:
        """Take a window credit before sending a chunk.

        Returns ``None`` when a credit was free (it is taken at once);
        otherwise the window is empty, and the returned event fires when
        a credit comes back, already taken for the caller.
        """
        state = self._state(session)
        self.env.touch(state, "w")
        if state.credits:
            state.credits -= 1
            return None
        wait = Event(self.env)
        state.credit_wait = wait
        return wait

    def refund(self, session: StreamSession) -> None:
        """Return the credit of a chunk that was withdrawn before
        delivery (the publisher re-acquires one for the resend)."""
        self._return_credit(self._state(session))

    def _return_credit(self, state: _RxState) -> None:
        """Hand a credit to the waiting publisher, or free it."""
        self.env.touch(state, "w")
        wait = state.credit_wait
        if wait is None:
            state.credits += 1
        else:
            state.credit_wait = None
            wait.succeed()

    def arrived(self, session: StreamSession, chunk: FrameChunk) -> bool:
        """A chunk's fabric stream completed: verify it and queue it for
        the drain.

        Returns ``True`` when the chunk is accepted, ``False`` when it
        is NAK'd (the wire digest or size failed verification against
        the session's declared digest — the credit is refunded and the
        publisher must retransmit that sequence).  Raises
        :class:`~repro.errors.StreamError` for a chunk that does not
        carry the next sequence number.
        """
        state = self._state(session)
        if chunk.seq != state.next_seq:
            raise StreamError(
                f"session {session.session_id!r}: chunk {chunk.seq} arrived "
                f"out of sequence (expected {state.next_seq})"
            )
        if state.sizes is not None:
            expected_nbytes = state.sizes[chunk.seq]
            expected = chunk_digest(
                session.declared_digest, chunk.seq, expected_nbytes
            )
            if chunk.nbytes != expected_nbytes or chunk.digest != expected:
                kind = (
                    "truncated" if chunk.nbytes != expected_nbytes else "corrupt"
                )
                session.naks += 1
                state.nak_seqs.add(chunk.seq)
                self._metrics.counter("stream.naks").inc()
                if self.ledger is not None:
                    self.ledger.detect(
                        "stream",
                        kind,
                        path=session.path,
                        seq=chunk.seq,
                        session_id=session.session_id,
                    )
                self._return_credit(state)
                return False
            if chunk.seq in state.nak_seqs:
                # A previously NAK'd sequence verified on retransmit.
                state.nak_seqs.discard(chunk.seq)
                if self.ledger is not None:
                    self.ledger.repair(
                        "stream",
                        "retransmit",
                        path=session.path,
                        seq=chunk.seq,
                        session_id=session.session_id,
                    )
        if session.first_chunk_at is None:
            session.first_chunk_at = self.env.now
        self.env.touch(state.queue, "w")
        state.queue.append(chunk)
        state.next_seq += 1
        if state.drain_timer is None:
            self._ingest_next(session, state)
        return True

    # -- node-side drain ---------------------------------------------------
    def _open_drain(self, session: StreamSession, state: _RxState, event: Event) -> None:
        """Open the session's ``stream.drain`` span."""
        state.span = (
            self.tracer.start("stream.drain")
            .set("session_id", session.session_id)
            .set("host", self.host)
        )
        self.env.touch(state.queue, "w")

    def _ingest_next(self, session: StreamSession, state: _RxState) -> None:
        """The drain is idle: start ingesting the chunk at the head of
        the queue (a chunk with no ingest charge drains at once)."""
        queue = state.queue
        self.env.touch(queue, "w")
        while queue:
            chunk = queue.popleft()
            if self.ingest_bytes_per_s > 0 and chunk.nbytes > 0:
                timer = self.env.timeout(chunk.nbytes / self.ingest_bytes_per_s, chunk)
                timer.callbacks.append(state.on_ingested)
                state.drain_timer = timer
                return
            self._drained(session, state, chunk)

    def _ingested(self, session: StreamSession, state: _RxState, timer: Event) -> None:
        """The ingest timer fired: account its chunk, start the next."""
        state.drain_timer = None
        self._drained(session, state, timer.value)
        if state.drained < session.total_chunks:
            self._ingest_next(session, state)

    def _drained(self, session: StreamSession, state: _RxState, chunk: FrameChunk) -> None:
        """Account one drained chunk and return its credit."""
        state.drained += 1
        self._m_chunks.inc()
        self._m_bytes.inc(chunk.nbytes)
        if state.drained >= session.threshold_chunks and session.threshold_at is None:
            session.threshold_at = self.env.now
            session.threshold.succeed(session)
        self._return_credit(state)
        if state.drained == session.total_chunks:
            session.last_chunk_at = self.env.now
            session.status = "DELIVERED"
            state.span.set("chunks", state.drained)
            session.delivered.succeed(session)
            state.span.finish()
