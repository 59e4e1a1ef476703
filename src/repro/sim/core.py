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
    "Condition",
    "AllOf",
    "AnyOf",
    "URGENT",
    "NORMAL",
]

#: Scheduling priority for same-timestamp ordering: urgent events (process
#: initialization) fire before normal events (timeouts).
#: These are the only two priorities, and an urgent event always fires
#: at the current timestamp (see :meth:`Environment.schedule`).
URGENT = 0
NORMAL = 1


class _Pending:
    """Sentinel for 'event has no value yet'."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _Pending()


class Event:
    """An event that may succeed (with a value) or fail (with an exception).

    Lifecycle: *pending* → *triggered* (value set, scheduled on the queue)
    → *processed* (callbacks ran).  Callbacks receive the event itself.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_cancelled")

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
        # NORMAL event always joins the normal lane.
        env = self.env
        env._normal_append(self)
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
    raises (failure).  A return nothing waits on ends in place, with no
    exit event queued (a later joiner resumes at once with the value); a
    failure is always queued, so an unjoined one escapes ``run()``."""

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
                if self.callbacks:
                    env.schedule(self, priority=NORMAL)
                else:
                    self.callbacks = None  # nobody joins: end in place
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
    """The event loop: a total order on (time, priority, insertion order).

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
        # The queue keeps one total order, (time, priority, insertion
        # order, reversed under lifo), in three structures:
        #
        # * ``_urgent`` / ``_normal`` — deques of the events due now:
        #   every URGENT event (process start) and every NORMAL event
        #   scheduled with delay 0 (succeed(), fail(), process
        #   termination, zero timeouts).  Time advances only once both
        #   lanes are empty, so every entry shares ``now`` and append
        #   order is insertion order: fifo reads from the left end,
        #   lifo from the right.
        # * ``_timers`` — a heap of ``(time, key, event)`` for NORMAL
        #   events due after ``now``; ``key`` is ``_seq``, the count of
        #   timer pushes, negated under lifo.
        #
        # A timer due now was pushed before the clock reached now, so
        # its insertion precedes every lane entry: it fires before the
        # normal lane under fifo and after it under lifo (see _pop).
        self._urgent: deque[Event] = deque()
        self._normal: deque[Event] = deque()
        self._timers: list[tuple[float, int, Event]] = []
        # Pre-bound for Event.succeed() (the lane is only ever mutated
        # in place, never replaced, so this stays valid).
        self._normal_append = self._normal.append
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
        t = self._now + delay
        if t == self._now:
            # delay == 0, or small enough to underflow the addition:
            # either way the event is due now, which is what the normal
            # lane holds (a timer due now must predate the clock
            # reaching now, or the dispatch rule would misplace it).
            self._normal_append(ev)
        else:
            seq = self._seq
            self._seq = seq + 1
            _heappush(self._timers, (t, self._tiebreak_sign * seq, ev))
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

        ``NORMAL`` takes any delay >= 0.  ``URGENT`` (process start)
        takes delay 0 only: it jumps ahead of the NORMAL events due now.
        Anything else raises :class:`SimulationError` and queues nothing.
        """
        if delay == 0.0 and priority == NORMAL:
            self._normal.append(event)
        elif delay == 0.0 and priority == URGENT:
            self._urgent.append(event)
        else:
            if not delay >= 0:
                raise SimulationError(f"schedule delay must be >= 0, got {delay}")
            if priority != NORMAL:
                raise SimulationError(
                    "schedule takes NORMAL at any delay or URGENT at delay 0, "
                    f"got priority={priority!r} delay={delay!r}"
                )
            # A delay small enough to underflow (t == now) is due now,
            # like timeout()'s.
            t = self._now + delay
            if t == self._now:
                self._normal.append(event)
            else:
                seq = self._seq
                self._seq = seq + 1
                heapq.heappush(self._timers, (t, self._tiebreak_sign * seq, event))
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
        return len(self._urgent) + len(self._normal) + len(self._timers)

    def _compact(self) -> None:
        """Drop tombstones from every structure: O(live).  Filtering is
        in place so the references :meth:`_run_fast` holds stay valid
        across a compaction triggered from inside a callback."""
        for lane in (self._urgent, self._normal):
            live = [e for e in lane if not e._cancelled]
            lane.clear()
            lane.extend(live)
        timers = self._timers
        timers[:] = [entry for entry in timers if not entry[2]._cancelled]
        heapq.heapify(timers)
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

    def _pop(self) -> tuple[int, Event]:
        """Pop the next live event, move the clock to it, and return its
        priority with it.  The dispatch rule, which :meth:`_run_fast`
        inlines:

        * the urgent lane goes first;
        * under fifo a timer due now goes before the normal lane, under
          lifo after it;
        * otherwise the earliest timer advances the clock.

        Tombstones met on the way are dropped, and a popped tombstone
        never moves the clock.  Raises :class:`SimulationError` when no
        live event is left.
        """
        urgent, normal, timers = self._urgent, self._normal, self._timers
        fifo = self._tiebreak_sign == 1
        while True:
            if urgent:
                event = urgent.popleft() if fifo else urgent.pop()
                priority = URGENT
            elif normal and not (fifo and timers and timers[0][0] == self._now):
                event = normal.popleft() if fifo else normal.pop()
                priority = NORMAL
            elif timers:
                t, _, event = heapq.heappop(timers)
                if not event._cancelled:
                    self._now = t
                priority = NORMAL
            else:
                raise SimulationError("no more events")
            if not event._cancelled:
                return priority, event
            self._cancelled_count -= 1

    def step(self) -> None:
        """Process the next scheduled event.

        The one-event reference for :meth:`run`'s drain loop: the same
        pop order, hooks and failure propagation, one event at a time.
        Raises :class:`SimulationError` if the queue is empty, and
        re-raises the exception of any failed event nobody defused.
        """
        priority, event = self._pop()
        now = self._now
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
        (a number), or ``until`` (an event of this environment) fires —
        returning its value.  A run that raises leaves no stop behind."""
        stop: Optional[Event] = None
        deferred: Optional[Event] = None
        at = 0.0
        if until is not None:
            if isinstance(until, Event):
                if until.env is not self:
                    raise SimulationError(
                        "run(until=...) needs an event of this environment"
                    )
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
                    # once nothing earlier than ``at`` is left.
                    deferred = stop
                    if self.sanitizer is not None:
                        self.sanitizer.on_schedule(stop)
        try:
            self._run_fast(deferred, at)
        except _StopRun as stop_exc:
            return stop_exc.args[0]
        finally:
            if stop is not None and stop.callbacks is not None:
                # The stop did not fire: take it back, so that a later
                # run() does not stop on it.
                if stop is until:
                    stop.callbacks.remove(self._stop_callback)
                elif deferred is None:
                    self.cancel(stop)
            if self.sanitizer is not None:
                # Close the last firing's cohort: touches and schedules
                # made outside a dispatch record nothing.
                self.sanitizer.end_event()
        if isinstance(until, Event):
            raise SimulationError(
                "run() finished: the until-event was never triggered"
            )
        return None

    # repro: hotpath
    def _run_fast(self, stop: Optional[Event] = None, until: float = 0.0) -> None:
        """Drain the queue: :meth:`run`'s one dispatch loop.

        Byte-identical to calling :meth:`step` until no live entry is
        left — :meth:`_pop`'s rule inlined, the same hooks, the same
        failure propagation — minus the method calls per event.  With no
        hook attached, an event costs one test of the local ``hooks``.

        ``stop`` (from ``run(until=t)``, ``until`` = t) is queued
        nowhere.  Once both lanes are empty and no timer is due before
        ``until``, the loop fires it as ``(until, URGENT)``, which is
        where an URGENT entry at ``until`` sorts: after everything
        earlier, before every timer due at ``until``.
        """
        urgent = self._urgent
        normal = self._normal
        timers = self._timers
        heappop = heapq.heappop
        fifo = self._tiebreak_sign == 1
        hooks = self._hooks
        while True:
            if urgent:
                event = urgent.popleft() if fifo else urgent.pop()
                priority = URGENT
            elif normal and not (fifo and timers and timers[0][0] == self._now):
                event = normal.popleft() if fifo else normal.pop()
                priority = NORMAL
            elif timers and (stop is None or timers[0][0] < until):
                t, _, event = heappop(timers)
                if not event._cancelled:
                    self._now = t
                priority = NORMAL
            elif stop is None:
                return
            else:
                self._now = until
                event = stop
                priority = URGENT
            if event._cancelled:
                self._cancelled_count -= 1
                continue
            if hooks:
                now = self._now
                for hook in hooks:
                    hook(now, priority, event)
            callbacks = event.callbacks
            event.callbacks = None
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for callback in callbacks:
                    callback(event)
            if event._ok is False and not event._defused:
                raise event._value

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok is False and not event._defused:
            raise event._value
        raise _StopRun(event._value)
