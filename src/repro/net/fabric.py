"""Flow-level network simulation with max–min fair bandwidth sharing.

Packet-level simulation of multi-hundred-MB transfers would be absurd;
transfer tools like Globus are well modeled at *flow level*: each active
stream gets a rate from a max–min fair allocation over the links it
traverses (progressive filling), and rates are recomputed whenever a
stream starts or finishes.  This captures exactly the contention the
paper measures — concurrent flows sharing the 1 Gbps site switch.

The fabric is a DES component: :meth:`NetworkFabric.transfer` returns an
event that fires when the last byte arrives.  It runs no process of its
own.  A stream is admitted by a callback on its path-latency timer (a
zero-latency path admits in an URGENT zero-delay event instead), and
one completion timer, re-armed at the earliest ETA after every
admission, completion batch, abort and link-health change, settles and
finishes the streams that drained.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from ..errors import EndpointError
from ..obs import NULL_OBS
from ..obs.tracer import NULL_SPAN
from ..sim import URGENT, Environment, Event, Timeout
from .topology import Link, Topology

__all__ = ["NetworkFabric", "Stream", "max_min_fair_rates"]

# A millibyte of slack absorbs float dust when settling GB-scale streams.
_EPS_BYTES = 1e-3
_EPS_RATE = 1e-9
_INF = float("inf")


@dataclass
class Stream:
    """One active transfer flow."""

    stream_id: int
    src: str
    dst: str
    links: tuple[Link, ...]
    remaining_bytes: float
    done: Event
    total_bytes: float = 0.0
    rate: float = 0.0
    efficiency: float = 1.0  # protocol efficiency (<=1) applied to its share
    last_update: float = 0.0
    started_at: float = 0.0
    span: Any = NULL_SPAN  # tracing handle (NULL_SPAN when tracing is off)
    #: The event whose callback admits the stream: its path-latency
    #: timer, or an URGENT zero-delay event on a zero-latency path.
    admission: Optional[Event] = None


def max_min_fair_rates(
    streams: "list[Stream]", capacities: "dict[tuple[str, str], float]"
) -> dict[int, float]:
    """Progressive-filling max–min fair allocation.

    Each stream's share on every link it crosses is equal among unfrozen
    streams; the most-contended link freezes its streams at the current
    fair share each round.  Streams with an ``efficiency`` factor < 1
    achieve only that fraction of their allocated share (protocol
    overhead), with the unused remainder left on the table — a deliberate
    simplification that keeps the allocation strictly fair.
    """
    rates: dict[int, float] = {}
    unfrozen = {s.stream_id: s for s in streams if s.links}
    for s in streams:
        if not s.links:  # same-host transfer: effectively infinite rate
            rates[s.stream_id] = float("inf")
    cap_left = dict(capacities)
    # Link -> set of unfrozen stream ids crossing it.
    while unfrozen:
        users: dict[tuple[str, str], list[int]] = {}
        for sid, s in unfrozen.items():
            for link in s.links:
                users.setdefault(link.key, []).append(sid)
        # Fair share offered by each occupied link.
        bottleneck_key = None
        bottleneck_share = float("inf")
        for key, sids in users.items():
            share = cap_left[key] / len(sids)
            if share < bottleneck_share:
                bottleneck_share = share
                bottleneck_key = key
        assert bottleneck_key is not None
        # Freeze every stream crossing the bottleneck.
        for sid in users[bottleneck_key]:
            s = unfrozen.pop(sid)
            rates[sid] = bottleneck_share * s.efficiency
            for link in s.links:
                cap_left[link.key] = max(0.0, cap_left[link.key] - bottleneck_share)
    return rates


class NetworkFabric:
    """Shared-bandwidth transfer engine over a :class:`Topology`."""

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        obs: Any = NULL_OBS,
    ) -> None:
        self.env = env
        self.topology = topology
        self.tracer = obs.tracer
        m = self._metrics = obs.metrics
        self._m_streams = m.counter("net.streams_started")
        self._m_bytes = m.counter("net.bytes_delivered")
        self._m_active = m.gauge("net.active_streams")
        #: Admitted streams, in admission order.
        self._streams: dict[int, Stream] = {}
        #: Timestamp of the last full settle; settling twice at one
        #: timestamp is arithmetically the identity (zero elapsed time),
        #: so repeat calls return immediately.
        self._last_settle: Optional[float] = None
        self._ids = itertools.count(1)
        #: Link key -> health scale in [0, 1]; absent means healthy.
        #: Chaos degradation events write this via :meth:`set_link_health`.
        self._link_scale: dict[tuple[str, str], float] = {}
        #: The pending completion timer, due at the earliest stream ETA
        #: (None while no stream has a non-zero rate).
        self._timer: Optional[Timeout] = None

    # -- public API ------------------------------------------------------------
    def transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        efficiency: float = 1.0,
    ) -> Event:
        """Start moving ``nbytes`` from ``src`` to ``dst``.

        Returns an event that succeeds with the :class:`Stream` when the
        transfer completes.  The path's one-way latency is charged before
        bytes start flowing.
        """
        if not 0 <= nbytes < float("inf"):  # also rejects NaN
            raise EndpointError(f"transfer size must be finite and >= 0, got {nbytes}")
        if not 0 < efficiency <= 1.0:
            raise EndpointError(f"efficiency must be in (0, 1], got {efficiency}")
        links, latency = self.topology.path(src, dst)
        done = self.env.event()
        stream = Stream(
            stream_id=next(self._ids),
            src=src,
            dst=dst,
            links=links,
            remaining_bytes=float(nbytes),
            done=done,
            total_bytes=float(nbytes),
            efficiency=float(efficiency),
            last_update=self.env.now,
            started_at=self.env.now,
        )
        stream.span = (
            self.tracer.start("net.stream")
            .set("stream_id", stream.stream_id)
            .set("src", src)
            .set("dst", dst)
            .set("bytes", float(nbytes))
        )
        self._m_streams.inc()
        if latency > 0:
            admission: Event = self.env.timeout(latency, stream)
        else:
            # The URGENT zero-delay slot a process start takes: the
            # stream is admitted before anything else due now.
            admission = Event(self.env)
            admission._ok = True
            admission._value = stream
            self.env.schedule(admission, priority=URGENT)
        admission.callbacks.append(self._admit)
        stream.admission = admission
        return done

    @property
    def active_streams(self) -> list[Stream]:
        """Active streams ordered by stream id (a fresh list)."""
        return sorted(self._streams.values(), key=lambda s: s.stream_id)

    def throughput(self, src: str, dst: str) -> float:
        """Aggregate current rate (bytes/s) of active src→dst streams."""
        return sum(s.rate for s in self.active_streams if s.src == src and s.dst == dst)

    def set_link_health(self, a: str, b: str, scale: float) -> None:
        """Scale the ``a``–``b`` link's capacity by ``scale`` in [0, 1].

        ``scale=1.0`` restores full health; ``0.0`` blacks the link out
        (in-flight streams stall at zero rate and resume when health
        returns).  Settles accrued bytes, reallocates fair shares, and
        re-arms the completion timer — the same machinery a new stream
        uses, so flapping a link mid-transfer is safe.
        """
        if not 0.0 <= scale <= 1.0:
            raise EndpointError(f"link health scale must be in [0, 1], got {scale}")
        link = self.topology.link(a, b)  # raises for unknown links
        if scale >= 1.0:
            self._link_scale.pop(link.key, None)
        else:
            self._link_scale[link.key] = float(scale)
        if self._streams:
            self._reallocate()
            self._rearm()

    def abort(self, done: Event) -> bool:
        """Withdraw the in-flight transfer whose completion event is
        ``done`` (the event :meth:`transfer` returned).

        Returns ``True`` when a live stream was withdrawn; the event
        then succeeds with the partially-delivered :class:`Stream`
        (``remaining_bytes > 0`` marks the abort).  Returns ``False``
        when the transfer already completed, or when the stream is
        still inside its admission-latency window — in that case it
        will be admitted and run to completion normally, so callers
        that re-send the payload must be prepared to deduplicate.

        This is the renegotiation hook for ``repro.stream``: a
        publisher that times out on a blacked-out link withdraws the
        stalled chunk streams before re-sending from the receiver's
        acknowledged sequence number.
        """
        if done.triggered:
            return False
        stream = None
        for s in self.active_streams:
            if s.done is done:
                stream = s
                break
        if stream is None:
            return False
        self._settle()
        del self._streams[stream.stream_id]
        self._m_active.set(len(self._streams))
        # Aborted partials do not count toward ``net.bytes_delivered``;
        # aborts get their own counter, registered here so the chaos
        # instrument never appears in a clean campaign's export.
        self._metrics.counter("net.streams_aborted").inc()
        stream.rate = 0.0
        stream.span.set("status", "aborted").finish()
        done.succeed(stream)
        if self._streams:
            self._reallocate()
        self._rearm()
        return True

    # -- internals -----------------------------------------------------------
    def _admit(self, admission: Event) -> None:
        """The stream's path latency has elapsed: start its bytes."""
        stream = admission.value
        if stream.remaining_bytes <= _EPS_BYTES:
            stream.span.set("status", "done").finish()
            stream.done.succeed(stream)
            return
        stream.last_update = self.env.now
        self._streams[stream.stream_id] = stream
        self._m_active.set(len(self._streams))
        self._reallocate()
        self._rearm()

    def _settle(self) -> None:
        """Account bytes moved since each stream's last update.

        A repeat call at the same timestamp is skipped outright: with
        zero elapsed time the accrual is ``remaining - rate * 0`` — the
        arithmetic identity — so the skip cannot change any value.
        """
        now = self.env.now
        if now == self._last_settle:
            return
        for s in self._streams.values():
            if s.rate > 0:
                s.remaining_bytes = max(
                    0.0, s.remaining_bytes - s.rate * (now - s.last_update)
                )
            s.last_update = now
        self._last_settle = now

    # repro: hotpath
    def _reallocate(self) -> None:
        """Settle, then recompute every active stream's fair share.

        A lone stream skips the allocator: progressive filling would
        freeze it in one round at its tightest link's ``capacity / 1``
        — exactly ``min(capacity × health)`` — times its efficiency, or
        at ``inf`` with no links (same host).

        Two or more streams go through :func:`max_min_fair_rates` over
        the whole fabric, in stream-id order: the allocator breaks ties
        between equally contended links by first appearance, so the
        order is part of the result.
        """
        self._settle()
        scale = self._link_scale
        if len(self._streams) == 1:
            (s,) = self._streams.values()
            if s.links:
                s.rate = min(
                    link.capacity_bps * scale.get(link.key, 1.0) for link in s.links
                ) * s.efficiency
            else:
                s.rate = float("inf")
            return
        streams = self.active_streams
        caps: dict[tuple[str, str], float] = {}
        for s in streams:
            for link in s.links:
                caps[link.key] = link.capacity_bps * scale.get(link.key, 1.0)
        rates = max_min_fair_rates(streams, caps)
        for s in streams:
            s.rate = rates.get(s.stream_id, 0.0)

    def _rearm(self) -> None:
        """Withdraw the completion timer and push one due at the earliest
        ETA: the minimum over streams with a non-zero rate of remaining
        bytes over rate.  Called after every membership or rate change,
        once every stream is settled at ``now``."""
        if self._timer is not None:
            self.env.cancel(self._timer)
            self._timer = None
        if not self._streams:
            return
        dt = _INF
        for s in self._streams.values():
            rate = s.rate
            if rate > _EPS_RATE:
                eta = s.remaining_bytes / rate
                if eta < dt:
                    dt = eta
        if dt == _INF:
            if not self._link_scale:
                # No degraded links: a zero-rate admitted stream is a
                # fabric bug, not a stall — fail loudly.
                raise EndpointError("active stream with zero allocated rate")
            # Every stream is stalled behind a blacked-out link: no timer
            # until membership or link health changes.
            return
        # dt is a pure min over stream ETAs: the same value for any
        # iteration order of _streams, so the order taint is vacuous.
        timer = self.env.timeout(dt)  # repro: noqa[N701]  min is order-free
        timer.callbacks.append(self._complete)
        self._timer = timer

    def _complete(self, timer: Event) -> None:
        """The completion timer fired: settle and collect the drained
        streams in one fused pass (same per-stream arithmetic and order
        as settle-then-scan), finish them, then reallocate and re-arm."""
        self._timer = None
        now = self.env.now
        finished = []
        if now == self._last_settle:
            # Zero-elapsed settle is the identity for every finite rate;
            # an infinite rate (same-host stream) must still drain, as
            # the full settle's ``inf * 0 -> nan -> max(0, nan) = 0``
            # arithmetic would have done.
            for s in self._streams.values():
                if s.rate == _INF:
                    s.remaining_bytes = 0.0
                if s.remaining_bytes <= _EPS_BYTES:
                    finished.append(s)
        else:
            for s in self._streams.values():
                rate = s.rate
                if rate > 0:
                    s.remaining_bytes = max(
                        0.0, s.remaining_bytes - rate * (now - s.last_update)
                    )
                s.last_update = now
                if s.remaining_bytes <= _EPS_BYTES:
                    finished.append(s)
            self._last_settle = now
        # Batched removal: one reallocation (below) for the whole
        # same-tick completion batch.
        for s in finished:
            del self._streams[s.stream_id]
        self._m_active.set(len(self._streams))
        for s in finished:
            self._m_bytes.inc(s.total_bytes)
            s.span.set("status", "done").finish()
            s.done.succeed(s)
        if self._streams:
            self._reallocate()
        self._rearm()
