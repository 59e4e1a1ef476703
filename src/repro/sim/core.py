"""Generator-based discrete-event simulation kernel.

This is the substrate every simulated service (network fabric, transfer,
batch scheduler, flow executor) runs on.  The design follows the classic
process-interaction style (as popularized by SimPy): a *process* is a Python
generator that yields events; the kernel resumes it when the yielded
event fires.  The kernel is deliberately small, deterministic, and fully
observable:

* Events scheduled for the same timestamp fire in (priority, insertion)
  order — identical inputs always produce identical traces.
* Failures propagate: a process that yields a failed event has the
  exception thrown into it at the ``yield``; an unhandled failure escapes
  :meth:`Environment.run`.
* Time is a float in seconds and never moves backwards.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Condition",
    "AllOf",
    "AnyOf",
    "URGENT",
    "NORMAL",
]

#: Scheduling priority for same-timestamp ordering: urgent events (process
#: initialization, interrupts) fire before normal events (timeouts).
#: These are the only two priorities, and an urgent event always fires
#: at the current timestamp (see :meth:`Environment.schedule`).
URGENT = 0
NORMAL = 1


class _Pending:
    """Sentinel for 'event has no value yet'."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _Pending()


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupt ``cause`` is available as ``exc.cause``.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """An event that may succeed (with a value) or fail (with an exception).

    Lifecycle: *pending* → *triggered* (value set, scheduled on the queue)
    → *processed* (callbacks ran).  Callbacks receive the event itself.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_cancelled", "_skey")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        self._cancelled = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled to fire."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined ``env.schedule(self, priority=NORMAL)``: succeed() is
        # the hottest scheduling call in flow-heavy campaigns (stores,
        # resources, conditions, process termination), and a delay-0
        # NORMAL event always lands on the immediate lane.
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        env._lane_normal_append((env._now, NORMAL, env._tiebreak_sign * seq, self))
        if env.sanitizer is not None:
            env.sanitizer.on_schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=NORMAL)
        return self

    def defused(self) -> None:
        """Mark a failed event as handled so :meth:`Environment.run` does
        not re-raise its exception."""
        self._defused = True

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after construction."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(env)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        env.schedule(self, delay=self.delay, priority=NORMAL)


#: Pre-bound allocator for :meth:`Environment.timeout`'s inlined path.
_new_timeout = Timeout.__new__


class Initialize(Event):
    """Internal: first resumption of a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume_cb)
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A running process.  As an :class:`Event`, it triggers when the
    underlying generator returns (value = the generator's return value) or
    raises (failure)."""

    __slots__ = ("_generator", "_target", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process() requires a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        # One bound method for the process's lifetime: _resume is
        # re-registered on every yield, and binding it fresh each time
        # is a per-event allocation.
        self._resume_cb: Callable[[Event], None] = self._resume
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not exited."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a dead process is an error; interrupting a process
        about to be resumed is allowed (the interrupt wins).  If the
        process terminates before the interrupt is delivered, the
        interrupt is dropped silently.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated and cannot be interrupted")
        if self.env._active_process is self:
            raise SimulationError("a process is not allowed to interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._deliver_interrupt)
        # kernel-internal: the queue consumes the interrupt at delivery
        self.env.schedule(event, priority=URGENT)  # repro: noqa[R501]

    def _deliver_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            return  # terminated between interrupt() and delivery
        # Detach from whatever the process is currently waiting on so the
        # stale event cannot resume it a second time.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._resume(event)

    def _resume(self, event: Event, _PENDING=PENDING, _Event=Event) -> None:
        """Advance the generator with ``event``'s value.

        (The ``_PENDING``/``_Event`` defaults localize module globals —
        this runs once per dispatched event.)
        """
        if self._value is not _PENDING:
            return  # stale wakeup of a terminated process
        env = self.env
        env._active_process = self
        gen = self._generator
        while True:
            try:
                if event._ok:
                    next_target = gen.send(event._value)
                else:
                    # The awaited event failed: throw into the generator.
                    event._defused = True
                    next_target = gen.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                self._target = None
                env.schedule(self, priority=NORMAL)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self._target = None
                env.schedule(self, priority=NORMAL)
                break

            if not isinstance(next_target, _Event) or next_target.env is not env:
                # Deliver the misuse error at the same yield point.
                msg = (
                    f"process yielded a non-event: {next_target!r}"
                    if not isinstance(next_target, Event)
                    else "cannot yield an event from another environment"
                )
                fake = Event(env)
                fake._ok = False
                fake._value = SimulationError(msg)
                fake._defused = True
                event = fake
                continue
            callbacks = next_target.callbacks
            if callbacks is None:
                # Already fired: loop immediately with its value.
                event = next_target
                continue
            callbacks.append(self._resume_cb)
            self._target = next_target
            break
        env._active_process = None


def _defuse_stale(event: Event) -> None:
    """Left behind on a fired condition's unfired constituents: defuse a
    late failure (so it cannot crash the run) without retaining any
    reference to the condition itself."""
    if not event._ok:
        event._defused = True


class Condition(Event):
    """Composite event over ``events`` that triggers once ``evaluate``
    says enough of them have fired (see :class:`AllOf` / :class:`AnyOf`).

    Succeeds with a dict mapping each *fired* constituent event to its
    value, in the order the constituents were given.

    Once the condition triggers, its ``_check`` callback is detached
    from every still-pending constituent and replaced by the
    module-level :func:`_defuse_stale` — late failures stay defused, but
    the constituents no longer pin the condition (and everything its
    result dict references) in memory.  An ``AnyOf`` over one short and
    one long timer would otherwise keep the fired condition alive until
    the long timer drains.
    """

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[int, int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._events = tuple(events)
        self._evaluate = evaluate
        self._count = 0
        for e in self._events:
            if e.env is not env:
                raise SimulationError("condition spans multiple environments")
        if not self._events:
            self.succeed({})
            return
        check = self._check
        for e in self._events:
            cbs = e.callbacks
            if cbs is None:  # already processed
                check(e)
            elif self._value is not PENDING:
                # Triggered by an earlier constituent mid-loop: watch the
                # rest only for failures to defuse.
                cbs.append(_defuse_stale)
            else:
                cbs.append(check)

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self._events if e.processed and e._ok}

    def _detach_pending(self) -> None:
        """Swap ``_check`` for :func:`_defuse_stale` on unfired
        constituents (bound-method equality makes ``remove`` work)."""
        check = self._check
        for e in self._events:
            cbs = e.callbacks
            if cbs is not None:
                try:
                    cbs.remove(check)
                except ValueError:
                    continue
                cbs.append(_defuse_stale)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            # Stale call (constituent fired in the same tick the
            # condition triggered, before detach could see it).
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self._count += 1
            if not self._evaluate(self._count, len(self._events)):
                return
            self.succeed(self._collect())
        self._detach_pending()


def _all_fired(done: int, total: int) -> bool:
    return done == total


def _any_fired(done: int, total: int) -> bool:
    return done >= 1


class AllOf(Condition):
    """Fires when all constituent events have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, _all_fired, events)


class AnyOf(Condition):
    """Fires when any constituent event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, _any_fired, events)


class _StopRun(BaseException):
    """Internal control-flow exception carrying run()'s return value."""


class Environment:
    """The event loop: a total order on (time, priority, seq, event).

    Parameters
    ----------
    initial_time:
        Starting simulation time (seconds); must be finite.
    sanitize:
        Attach a :class:`~repro.sim.sanitize.ScheduleSanitizer` that
        records same-``(time, priority)`` event cohorts and shared-state
        touches, reporting orderings fixed only by insertion sequence
        (see :meth:`touch` and ``sanitizer.races()``).
    tiebreak:
        How same-``(time, priority)`` events are ordered: ``"fifo"``
        (insertion order, the documented default) or ``"lifo"`` (reverse
        insertion order).  A model free of schedule races produces
        identical traces under both — reversing the tie-break is how
        ``python -m repro sanitize`` confirms suspected races.

    Observers (the sanitizer, :class:`~repro.sim.trace.EventTraceRecorder`)
    attach as dispatch hooks: ``hook(now, priority, event)`` callables in
    ``_hooks``, called in attach order just before each event's callbacks
    run, by :meth:`run` and :meth:`step` alike.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        *,
        sanitize: bool = False,
        tiebreak: str = "fifo",
    ) -> None:
        if tiebreak not in ("fifo", "lifo"):
            raise SimulationError(
                f"tiebreak must be 'fifo' or 'lifo', got {tiebreak!r}"
            )
        self._now = float(initial_time)
        if not math.isfinite(self._now):
            raise SimulationError(f"initial_time must be finite, got {initial_time}")
        # The queue is split by traffic class, preserving one total order
        # (time, priority, tiebreak_sign * seq):
        #
        # * ``_lane_urgent`` / ``_lane_normal`` — deques of events due at
        #   the current timestamp (every URGENT event, and the dominant
        #   NORMAL traffic: every succeed()/fail()/process-termination).
        #   Invariant: dispatch always pops the global minimum, so time
        #   cannot advance while a lane is non-empty — all lane entries
        #   share the current timestamp, and within a lane the
        #   (priority, seq) key is monotone in append order.  fifo reads
        #   from the left end, lifo from the right.
        # * ``_buckets``/``_times`` — the timer store: NORMAL events
        #   with delay > 0 are grouped into per-timestamp buckets
        #   (``{time: [event, ...]}``, append order = seq order; the
        #   tie-break key rides on the event's ``_skey`` slot, saving a
        #   tuple per timer), with a heap over the *distinct* times.
        #   Timestamps in simulated campaigns repeat heavily
        #   (synchronized ticks, common periods), so heap traffic is one
        #   push+pop of a bare float per distinct timestamp.  Bucketing
        #   by exact float equality is the equivalence a tuple heap's
        #   comparison would apply, so the dispatch order is the same.
        # * ``_cur``/``_cur_idx`` — the bucket currently being drained
        #   (its time == ``_now``); ``_cur_idx`` is the fifo read
        #   cursor (lifo consumes from the right with ``pop()``).
        #
        # ``run(until=t)`` queues nothing for its stop: the drain loop
        # fires it at ``t`` before opening any bucket due at ``t``.
        self._lane_urgent: deque[tuple[float, int, int, Event]] = deque()
        self._lane_normal: deque[tuple[float, int, int, Event]] = deque()
        self._buckets: dict[float, list[Event]] = {}
        self._times: list[float] = []
        self._cur: Optional[list[Event]] = None
        self._cur_idx = 0
        # Pre-bound hot-path methods (the containers are only ever
        # mutated in place, never replaced, so these stay valid).
        self._lane_normal_append = self._lane_normal.append
        self._buckets_get = self._buckets.get
        self._seq = 0
        self._cancelled_count = 0
        self._active_process: Optional[Process] = None
        self.tiebreak = tiebreak
        self._tiebreak_sign = 1 if tiebreak == "fifo" else -1
        #: Dispatch hooks, ``hook(now, priority, event)``, in attach order.
        self._hooks: tuple[Callable[[float, int, Event], None], ...] = ()
        if sanitize:
            from .sanitize import ScheduleSanitizer

            self.sanitizer: Optional[ScheduleSanitizer] = ScheduleSanitizer(self)
            self._hooks = (self.sanitizer.begin_event,)
        else:
            self.sanitizer = None

    # -- inspection -------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(
        self,
        delay: float,
        value: Any = None,
        # Private defaults: module/builtin lookups hoisted to definition
        # time for the kernel's hottest factory.
        _new=_new_timeout,
        _Timeout=Timeout,
        _float=float,
        _heappush=heapq.heappush,
    ) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        # Inlined construction: timeout() is the kernel's hottest factory
        # (every simulated wait), so skip the Event.__init__ super-call
        # chain and the schedule() indirection.  Timeout(...) remains the
        # equivalent spelled-out path for direct constructor use.
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        ev = _new(_Timeout)
        ev.env = self
        ev.callbacks = []
        ev._ok = True
        ev._value = value
        ev._defused = False
        ev._cancelled = False
        ev.delay = delay = delay if delay.__class__ is _float else _float(delay)
        seq = self._seq
        self._seq = seq + 1
        t = self._now + delay
        if t == self._now:
            # delay == 0, or small enough to underflow the addition:
            # either way the event fires at the current timestamp, which
            # is exactly what the immediate lane holds (a ``t == now``
            # bucket would escape the bucket-drain's preemption checks
            # under the lifo tie-break).
            self._lane_normal_append((t, NORMAL, self._tiebreak_sign * seq, ev))
        else:
            ev._skey = self._tiebreak_sign * seq
            bucket = self._buckets_get(t)
            if bucket is None:
                self._buckets[t] = [ev]
                _heappush(self._times, t)
            else:
                bucket.append(ev)
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(ev)
        return ev

    def process(self, generator: Generator) -> Process:
        """Start a process from ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: all of ``events``."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: any of ``events``."""
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Schedule ``event`` to fire ``delay`` seconds from now.

        ``NORMAL`` takes any delay >= 0.  ``URGENT`` (process start,
        interrupt delivery) takes delay 0 only: it jumps ahead of the
        NORMAL events due now.  Anything else raises
        :class:`SimulationError` and queues nothing.
        """
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0 and (priority == NORMAL or priority == URGENT):
            # Immediate lane: the events due now.
            entry = (self._now, priority, self._tiebreak_sign * seq, event)
            if priority == NORMAL:
                self._lane_normal.append(entry)
            else:
                self._lane_urgent.append(entry)
        else:
            if not delay >= 0:
                raise SimulationError(f"schedule delay must be >= 0, got {delay}")
            if priority != NORMAL:
                raise SimulationError(
                    "schedule takes NORMAL at any delay or URGENT at delay 0, "
                    f"got priority={priority!r} delay={delay!r}"
                )
            # Timer store: bucket by exact target timestamp.  A delay
            # small enough to underflow (t == now) belongs on the
            # immediate lane, like timeout().
            t = self._now + delay
            if t == self._now:
                self._lane_normal.append((t, NORMAL, self._tiebreak_sign * seq, event))
            else:
                event._skey = self._tiebreak_sign * seq
                bucket = self._buckets.get(t)
                if bucket is None:
                    self._buckets[t] = [event]
                    heapq.heappush(self._times, t)
                else:
                    bucket.append(event)
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(event)

    def cancel(self, event: Event) -> None:
        """Withdraw a scheduled-but-unprocessed event from the queue.

        The event's callbacks never run and its failure (if any) is
        never raised.  Lazy removal with periodic compaction keeps the
        queue bounded by the number of *live* entries, so components that
        routinely abandon timers (e.g. the network fabric re-planning
        around a new stream) do not leak one slot per abandonment.

        Only triggered events sit in the queue; cancelling an untriggered
        or already-processed event is an error.
        """
        if event.processed:
            raise SimulationError(f"cannot cancel processed event {event!r}")
        if not event.triggered:
            raise SimulationError(f"cannot cancel unscheduled event {event!r}")
        if event._cancelled:
            return
        event._cancelled = True
        self._cancelled_count += 1
        if self._cancelled_count > 8 and self._cancelled_count * 2 > self._n_pending():
            self._compact()

    def _n_pending(self) -> int:
        """Total scheduled-but-undispatched entries, tombstones included."""
        n = len(self._lane_urgent) + len(self._lane_normal)
        if self._buckets:
            # integer sum: exact and associative, so bucket-dict order
            # (which tracks timer churn) cannot perturb the count.
            n += sum(map(len, self._buckets.values()))  # repro: noqa[N703]
        cur = self._cur
        if cur is not None:
            n += len(cur)
            if self._tiebreak_sign == 1:
                n -= self._cur_idx
        return n

    def _compact(self) -> None:
        """Drop tombstones from every structure: O(live) amortized.
        All filtering is in-place (``[:] =`` / ``clear``+``extend``) so
        local references held by the fast run loop stay valid across a
        compaction triggered from inside a callback."""
        for lane in (self._lane_urgent, self._lane_normal):
            if lane:
                live = [e for e in lane if not e[3]._cancelled]
                lane.clear()
                lane.extend(live)
        buckets = self._buckets
        if buckets:
            dead_times = []
            for t, bucket in buckets.items():
                bucket[:] = [e for e in bucket if not e._cancelled]
                if not bucket:
                    dead_times.append(t)
            if dead_times:
                for t in dead_times:
                    del buckets[t]
                self._times[:] = buckets.keys()
                heapq.heapify(self._times)
        cur = self._cur
        if cur is not None:
            if self._tiebreak_sign == 1:
                # Filter only the unread tail; the fifo cursor (local
                # copies included) stays valid.
                idx = self._cur_idx
                cur[idx:] = [e for e in cur[idx:] if not e._cancelled]
            else:
                cur[:] = [e for e in cur if not e._cancelled]
        self._cancelled_count = 0

    def touch(self, obj: Any, mode: str = "r", label: Optional[str] = None) -> None:
        """Report a shared-state access to the schedule sanitizer.

        ``mode`` is ``"r"``, ``"w"``, or ``"rw"``; ``label`` overrides
        the deterministic auto-generated object name.  A no-op unless
        the environment was built with ``sanitize=True``, so hot paths
        may call it unconditionally.
        """
        if self.sanitizer is not None:
            self.sanitizer.touch(obj, mode, label)

    def _open_bucket(self) -> Optional[tuple[float, int, int, Event]]:
        """Pop the head of the *earliest* timer bucket, installing any
        remainder as the current bucket.

        Returns None when the timer store is empty, or when the
        earliest bucket held only tombstones (it is dropped; the caller
        re-decides, since a ``run(until=t)`` stop may now come first)."""
        fifo = self._tiebreak_sign == 1
        times = self._times
        if not times:
            return None
        t = heapq.heappop(times)
        bucket = self._buckets.pop(t)
        if fifo:
            idx = 0
            n = len(bucket)
            while idx < n and bucket[idx]._cancelled:
                idx += 1
                self._cancelled_count -= 1
            if idx >= n:
                return None
            event = bucket[idx]
            if idx + 1 < n:
                self._cur = bucket
                self._cur_idx = idx + 1
        else:
            while bucket and bucket[-1]._cancelled:
                bucket.pop()
                self._cancelled_count -= 1
            if not bucket:
                return None
            event = bucket.pop()
            if bucket:
                self._cur = bucket
        return (t, NORMAL, event._skey, event)

    def _pop_now(self) -> Optional[tuple[float, int, int, Event]]:
        """Pop the minimum live entry due at the current timestamp; None
        when time must advance (tombstones met on the way are dropped)."""
        fifo = self._tiebreak_sign == 1
        now = self._now
        lane_u = self._lane_urgent
        while lane_u and (lane_u[0] if fifo else lane_u[-1])[3]._cancelled:
            if fifo:
                lane_u.popleft()
            else:
                lane_u.pop()
            self._cancelled_count -= 1
        if lane_u:
            return lane_u.popleft() if fifo else lane_u.pop()
        lane_n = self._lane_normal
        while lane_n and (lane_n[0] if fifo else lane_n[-1])[3]._cancelled:
            if fifo:
                lane_n.popleft()
            else:
                lane_n.pop()
            self._cancelled_count -= 1
        # NORMAL candidates at the current timestamp: the immediate
        # lane, the current bucket remainder, or an unopened bucket
        # whose time equals now (a timer landing exactly at a timestamp
        # the clock already reached, e.g. through a run(until=t) stop).
        sn = (lane_n[0] if fifo else lane_n[-1])[2] if lane_n else None
        cur = self._cur
        sc = None
        if cur is not None:
            if fifo:
                idx = self._cur_idx
                n = len(cur)
                while idx < n and cur[idx]._cancelled:
                    idx += 1
                    self._cancelled_count -= 1
                self._cur_idx = idx
                if idx >= n:
                    cur = self._cur = None
                else:
                    sc = cur[idx]._skey
            else:
                while cur and cur[-1]._cancelled:
                    cur.pop()
                    self._cancelled_count -= 1
                if not cur:
                    cur = self._cur = None
                else:
                    sc = cur[-1]._skey
        sb = None
        times = self._times
        buckets = self._buckets
        while times and times[0] == now:
            bucket = buckets[now]
            while bucket and (bucket[0] if fifo else bucket[-1])._cancelled:
                if fifo:
                    del bucket[0]
                else:
                    bucket.pop()
                self._cancelled_count -= 1
            if bucket:
                sb = (bucket[0] if fifo else bucket[-1])._skey
                break
            heapq.heappop(times)
            del buckets[now]
        # cur and an unopened now-bucket cannot coexist (one bucket per
        # timestamp, removed from the store when opened), but lane_n can
        # accompany either: pick the smallest seq key.
        best = sn
        src = 1
        if sc is not None and (best is None or sc < best):
            best, src = sc, 2
        if sb is not None and (best is None or sb < best):
            best, src = sb, 3
        if best is None:
            return None
        if src == 1:
            return lane_n.popleft() if fifo else lane_n.pop()
        if src == 2:
            if fifo:
                idx = self._cur_idx
                event = cur[idx]
                idx += 1
                if idx >= len(cur):
                    self._cur = None
                else:
                    self._cur_idx = idx
            else:
                event = cur.pop()
                if not cur:
                    self._cur = None
            return (now, NORMAL, event._skey, event)
        return self._open_bucket()

    def step(self) -> None:
        """Process the next scheduled event.

        The one-event reference for :meth:`run`'s drain loop: the same
        pop order, hooks and failure propagation, one event at a time.
        Raises :class:`SimulationError` if the queue is empty, and
        re-raises the exception of any failed event nobody defused.
        """
        entry = self._pop_now()
        while entry is None:
            if not self._times:
                raise SimulationError("no more events")
            entry = self._open_bucket()  # None: a dead bucket was dropped
        now, priority, _, event = entry
        self._now = now
        for hook in self._hooks:
            hook(now, priority, event)
        callbacks, event.callbacks = event.callbacks, None
        try:
            for callback in callbacks:
                callback(event)
        finally:
            if self.sanitizer is not None:
                self.sanitizer.end_event()
        if event._ok is False and not event._defused:
            exc = event._value
            raise exc

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run until the queue drains, simulation time reaches ``until``
        (a number), or ``until`` (an event) fires — returning its value."""
        stop: Optional[Event] = None
        deferred: Optional[Event] = None
        at = 0.0
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:
                    # Already processed: nothing to run.
                    if stop._ok is False and not stop._defused:
                        raise stop._value
                    return stop._value
                stop.callbacks.append(self._stop_callback)
            else:
                at = float(until)
                if not at >= self._now:  # also rejects NaN
                    raise SimulationError(
                        f"run(until={at}) is in the past (now={self._now})"
                    )
                stop = Event(self)
                stop._ok = True
                stop._value = None
                stop.callbacks.append(self._stop_callback)
                if at == self._now:
                    self.schedule(stop, priority=URGENT)
                else:
                    # Queued nowhere: _run_fast fires it as (at, URGENT)
                    # once nothing earlier than ``at`` is left, so a run
                    # that raises leaves no stale stop behind.
                    deferred = stop
                    if self.sanitizer is not None:
                        self.sanitizer.on_schedule(stop)
        try:
            self._run_fast(deferred, at)
        except _StopRun as stop_exc:
            return stop_exc.args[0]
        finally:
            if self.sanitizer is not None:
                # Close the last firing's cohort: touches and schedules
                # made outside a dispatch record nothing.
                self.sanitizer.end_event()
        if stop is not None and isinstance(until, Event):
            raise SimulationError(
                "run() finished: the until-event was never triggered"
            )
        return None

    # repro: hotpath
    def _run_fast(self, stop: Optional[Event] = None, until: float = 0.0) -> None:
        """Drain the queue: :meth:`run`'s one dispatch loop.

        Byte-identical to calling :meth:`step` until no live entry is
        left — the same pop order, the same hooks, the same failure
        propagation — minus the method-call overhead per event.  With no
        hook attached, an event costs one test of the local ``hooks``.

        ``stop`` (from ``run(until=t)``, ``until`` = t) is queued
        nowhere.  Where the loop would advance time, it opens the next
        timer bucket only if that bucket is due before ``until``;
        otherwise it fires ``stop`` as ``(until, URGENT)``, which is
        where an URGENT entry at ``until`` sorts: after everything
        earlier, before every timer due at ``until``.

        The hot branch drains one timer bucket at a stretch.  While a
        bucket drains, preemption can only arrive through the urgent
        lane (delay-0 URGENT) or the normal lane under the lifo
        tie-break (newer seq wins ties), so only those two are checked
        per event.  Under fifo a lane-normal append (newer seq) sorts
        after every bucket entry and needs no check.
        """
        lane_u = self._lane_urgent
        lane_n = self._lane_normal
        times = self._times
        pop_now = self._pop_now
        lifo = self._tiebreak_sign != 1
        hooks = self._hooks
        while True:
            if lane_u or lane_n:
                if self._cur is not None or (times and times[0] == self._now):
                    # Something else shares the current timestamp: full
                    # multi-way merge, one event at a time.
                    entry = pop_now()
                    if entry is None:
                        continue  # only tombstones were due now
                else:
                    # Lean lane drain: nothing outside the lanes exists
                    # at the current timestamp, and nothing can join it
                    # (delay-0 lands in the lanes; delay>0 lands later).
                    # Urgent entries precede normal ones outright, so no
                    # key comparisons are needed.
                    fifo = not lifo
                    while True:
                        if lane_u:
                            lane = lane_u
                        elif lane_n:
                            lane = lane_n
                        else:
                            break
                        event = (lane.popleft() if fifo else lane.pop())[3]
                        if event._cancelled:
                            self._cancelled_count -= 1
                            continue
                        if hooks:
                            # Lane entries are at ``now``; the lane is the priority.
                            priority = URGENT if lane is lane_u else NORMAL
                            for hook in hooks:
                                hook(self._now, priority, event)
                        callbacks = event.callbacks
                        event.callbacks = None
                        if len(callbacks) == 1:
                            callbacks[0](event)
                        else:
                            for callback in callbacks:
                                callback(event)
                        if event._ok is False and not event._defused:
                            raise event._value
                        if self._cur is not None:
                            break  # a nested run() or step() opened a bucket
                    continue
            elif self._cur is None:
                # Time advances: the earliest timer bucket, unless the
                # stop is due first.
                if times and (stop is None or times[0] < until):
                    entry = self._open_bucket()
                    if entry is None:
                        continue  # dead bucket dropped; re-decide
                elif stop is None:
                    return
                else:
                    entry = (until, URGENT, 0, stop)
            else:
                entry = None  # resume the current bucket
            if entry is not None:
                self._now = entry[0]
                event = entry[3]
                if hooks:
                    for hook in hooks:
                        hook(entry[0], entry[1], event)
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if event._ok is False and not event._defused:
                    raise event._value
                if self._cur is None:
                    continue
            cur = self._cur
            if cur is None or lane_u or (lifo and lane_n):
                continue  # outer loop re-dispatches via the general path
            # Inline drain of the current bucket's remainder.  The
            # fifo bound is captured once (``n``); a compaction inside a
            # callback can shrink ``cur`` and leave ``n`` stale, so the
            # read is guarded by the (zero-cost-until-raised)
            # IndexError as a safety net — every introspection path
            # (_pop_now, _n_pending, _compact) tolerates a
            # fully-read ``_cur``, so exhaustion may be discovered
            # lazily on that read.
            n = len(cur)
            while True:
                if lifo:
                    try:
                        event = cur.pop()
                    except IndexError:
                        self._cur = None
                        break
                else:
                    idx = self._cur_idx
                    try:
                        event = cur[idx]
                    except IndexError:
                        self._cur = None
                        break
                    self._cur_idx = idx + 1
                if event._cancelled:
                    self._cancelled_count -= 1
                    continue
                if hooks:
                    for hook in hooks:
                        hook(self._now, NORMAL, event)
                callbacks = event.callbacks
                event.callbacks = None
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    for callback in callbacks:
                        callback(event)
                if event._ok is False and not event._defused:
                    raise event._value
                if lifo:
                    if not cur:
                        if self._cur is cur:
                            self._cur = None
                        break
                elif self._cur_idx >= n:
                    if self._cur is cur:
                        self._cur = None
                    break
                if self._cur is not cur:
                    break  # swapped out by a nested run()
                if lane_u or (lifo and lane_n):
                    break  # new work may precede the remainder

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok is False and not event._defused:
            raise event._value
        raise _StopRun(event._value)
