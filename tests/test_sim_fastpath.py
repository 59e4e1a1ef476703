"""Tests for the kernel's split queue: two lanes, one timer heap, one drain.

The kernel keeps one *logical* total order —
``(time, priority, insertion order)``, insertion reversed under lifo —
over two priorities, NORMAL and delay-0 URGENT, and stores entries in
two physical structures: the urgent and normal lanes of events due now,
and a heap of timers due later.  A ``run(until=t)`` stop is queued
nowhere: the drain loop fires it as ``(t, URGENT)`` before popping any
timer due at ``t``.  These tests pin the seams: underflowing delays,
mid-drain scheduling and cancellation, the priority check, timers due
now against the lanes, the stop, compaction mid-drain, and the
fired-condition callback detach.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Environment, EventTraceRecorder
from repro.sim.core import NORMAL, URGENT
from repro.sim.core import _defuse_stale


def _tag(order, name):
    return lambda _event, _o=order, _n=name: _o.append(_n)


def test_underflow_delay_routes_to_immediate_lane():
    """A positive delay too small to advance a large ``now`` fires at the
    current timestamp, ordered by sequence exactly like a zero delay."""
    for tiebreak, expected in (("fifo", ["a", "b", "c"]), ("lifo", ["c", "b", "a"])):
        env = Environment(initial_time=1e16, tiebreak=tiebreak)
        order = []
        env.timeout(0.0).callbacks.append(_tag(order, "a"))
        tiny = env.timeout(1e-3)  # 1e16 + 1e-3 == 1e16: underflows
        assert tiny.delay > 0 and env.now + tiny.delay == env.now
        tiny.callbacks.append(_tag(order, "b"))
        env.timeout(0.0).callbacks.append(_tag(order, "c"))
        env.run()
        assert order == expected, tiebreak


@pytest.mark.parametrize("tiebreak", ["fifo", "lifo"])
def test_repeated_timestamps_keep_seq_order(tiebreak):
    """Timers due at one time fire in tie-break order among
    themselves; across times, time governs."""
    env = Environment(tiebreak=tiebreak)
    order = []
    layout = [(2.0, "a"), (1.0, "b"), (2.0, "c"), (1.0, "d"), (3.0, "e"), (1.0, "f")]
    for delay, name in layout:
        env.timeout(delay).callbacks.append(_tag(order, name))
    env.run()
    by_time = {1.0: ["b", "d", "f"], 2.0: ["a", "c"], 3.0: ["e"]}
    expected = []
    for t in sorted(by_time):
        expected += by_time[t] if tiebreak == "fifo" else by_time[t][::-1]
    assert order == expected


@pytest.mark.parametrize("tiebreak", ["fifo", "lifo"])
def test_mid_drain_zero_delay_preemption(tiebreak):
    """A zero-delay event scheduled while timers due at one time drain
    fires at that time: after the remaining timers under fifo, before
    them under lifo (newest-first)."""
    env = Environment(tiebreak=tiebreak)
    order = []

    def first(_event):
        order.append("first")
        env.timeout(0.0).callbacks.append(_tag(order, "injected"))

    a = env.timeout(1.0)
    b = env.timeout(1.0)
    (a if tiebreak == "fifo" else b).callbacks.append(first)
    (b if tiebreak == "fifo" else a).callbacks.append(_tag(order, "second"))
    env.run()
    if tiebreak == "fifo":
        assert order == ["first", "second", "injected"]
    else:
        assert order == ["first", "injected", "second"]


def test_mid_drain_exotic_priority_is_seen():
    """An exotic-priority event scheduled while timers due at one time
    drain is seen by ``schedule()``: it raises and queues nothing, and
    the rest of those timers and the later ones fire in order."""
    env = Environment()
    order = []
    straggler = env.event()
    straggler._ok, straggler._value = True, None
    straggler.callbacks.append(_tag(order, "exotic"))

    def first(_event):
        order.append("first")
        for priority, delay in ((2, 0.0), (2, 0.25), (URGENT, 0.25)):
            pending = env._n_pending()
            with pytest.raises(SimulationError, match="URGENT at delay 0"):
                env.schedule(straggler, delay=delay, priority=priority)
            assert env._n_pending() == pending
            order.append(f"rejected-{priority}-{delay}")

    env.timeout(1.0).callbacks.append(first)
    env.timeout(1.0).callbacks.append(_tag(order, "second"))
    env.timeout(1.25).callbacks.append(_tag(order, "timer"))
    env.run()
    assert order == [
        "first",
        "rejected-2-0.0",
        "rejected-2-0.25",
        f"rejected-{URGENT}-0.25",
        "second",
        "timer",
    ]
    assert env.now == 1.25 and env._n_pending() == 0


def test_exotic_priorities_total_order():
    """Any priority but NORMAL and URGENT, and an URGENT event in the
    future, is rejected before anything is queued; the two priorities
    left keep the ``(time, priority, seq)`` order."""
    env = Environment()
    for priority, delay in ((2, 0.0), (2, 1.0), (-1, 0.0), (-1, 1.0), (URGENT, 1.0)):
        ev = env.event()
        ev._ok, ev._value = True, None
        with pytest.raises(SimulationError, match="URGENT at delay 0"):
            env.schedule(ev, delay=delay, priority=priority)
        assert env._n_pending() == 0
    fired = []
    for priority, delay in ((NORMAL, 1.0), (URGENT, 0.0), (NORMAL, 0.0)):
        ev = env.event()
        ev._ok, ev._value = True, None
        ev.callbacks.append(lambda e, p=priority, d=delay: fired.append((env.now, p, d)))
        env.schedule(ev, delay=delay, priority=priority)
    env.run()
    assert fired == [(0.0, URGENT, 0.0), (0.0, NORMAL, 0.0), (1.0, NORMAL, 1.0)]


def test_urgent_lane_precedes_normal_at_same_tick():
    """A delay-0 URGENT event scheduled during the t=1 dispatch fires
    before the NORMAL events due at t=1: the process's zero timeout and,
    under either tie-break, the peer timer still pending."""
    expected = {
        "fifo": ["timer-peer", "normal-a", "urgent", "normal-b"],
        "lifo": ["normal-a", "urgent", "normal-b", "timer-peer"],
    }
    for tiebreak, order_expected in expected.items():
        env = Environment(tiebreak=tiebreak)
        order = []
        urgent = env.event()
        urgent._ok, urgent._value = True, None
        urgent.callbacks.append(_tag(order, "urgent"))

        def proc(env):
            yield env.timeout(1.0)
            order.append("normal-a")
            env.schedule(urgent, priority=URGENT)
            yield env.timeout(0.0)
            order.append("normal-b")

        env.process(proc(env))
        # Created before the process first runs: the older timer at t=1.
        env.timeout(1.0).callbacks.append(_tag(order, "timer-peer"))
        env.run()
        assert order == order_expected, tiebreak


@pytest.mark.parametrize("tiebreak", ["fifo", "lifo"])
def test_cancel_inside_current_bucket(tiebreak):
    """Cancelling a timer due at the time *currently draining*, from
    inside an earlier timer's callback, suppresses it."""
    env = Environment(tiebreak=tiebreak)
    order = []
    timers = [env.timeout(1.0) for _ in range(3)]
    victim = timers[2 if tiebreak == "fifo" else 0]

    def first(_event):
        order.append("first")
        env.cancel(victim)

    head = timers[0 if tiebreak == "fifo" else 2]
    head.callbacks.append(first)
    for i, t in enumerate(timers):
        if t is not head and t is not victim:
            t.callbacks.append(_tag(order, f"t{i}"))
    victim.callbacks.append(_tag(order, "victim"))
    env.run()
    assert order == ["first", "t1"]
    assert env.now == 1.0


def test_mass_cancel_compacts_every_structure():
    """Cancelling most of a large mixed population triggers compaction
    (including mid-drain) and the survivors still fire in order."""
    env = Environment()
    order = []
    keep = []
    doomed = []
    for i in range(200):
        t = env.timeout(1.0 + (i % 5))
        if i % 10 == 0:
            t.callbacks.append(_tag(order, i))
            keep.append(i)
        else:
            doomed.append(t)

    def killer(env):
        yield env.timeout(0.5)
        for t in doomed:
            env.cancel(t)
        # Compaction ran (possibly several times); at most a small
        # sub-threshold residue of tombstones may remain.
        assert env._cancelled_count <= 8

    env.process(killer(env))
    env.run()
    assert order == sorted(keep, key=lambda i: (1.0 + (i % 5), i))


def test_fired_condition_detaches_from_pending_timers():
    """Once an AnyOf fires, its long-lived constituents must not keep a
    reference to the condition (or its result dict) alive: the ``_check``
    callback is swapped for the module-level defuser."""
    env = Environment()

    def proc(env):
        short = env.timeout(1.0)
        long = env.timeout(1000.0)
        cond = env.any_of([short, long])
        yield cond
        assert short in cond.value
        # The pending timer now holds only the shared defuser — no bound
        # method pinning the condition.
        assert long.callbacks == [_defuse_stale]
        assert not any(getattr(cb, "__self__", None) is cond for cb in long.callbacks)

    env.process(proc(env))
    env.run(until=2.0)
    gc.collect()  # the detach must not have corrupted anything the
    env.run(until=1001.0)  # late timer still needs to drain cleanly
    assert env.now == 1001.0


def test_traced_cohort_drain_matches_manual_step_loop():
    """A traced ``run()`` dispatches exactly what a manual ``step()``
    loop does, with cohorts of timers due together and one cancelled
    far-future deadline per flow keeping many distinct times live."""
    n_flows, n_ticks, period = 400, 20, 10.0

    def build():
        env = Environment()
        dispatched = EventTraceRecorder(env).lines

        def flow(env, i):
            deadline = env.timeout(10_000.0 + i)  # one distinct time per flow
            for _ in range(n_ticks):
                yield env.timeout(period)
            env.cancel(deadline)

        for i in range(n_flows):
            env.process(flow(env, i))
        return env, dispatched

    env, traced = build()
    env.run()
    env, stepped = build()
    while env._n_pending() > env._cancelled_count:
        env.step()
    assert traced == stepped
    assert len(traced) > n_flows * n_ticks


def test_failed_run_until_leaves_no_stop_behind():
    """A ``run(until=...)`` that raises leaves no stop behind, so the
    next ``run()`` drains instead of stopping on it: for a time ahead of
    ``now`` (queued nowhere), an event (its stop callback is detached),
    ``now`` itself (the queued urgent stop is cancelled) and an event of
    another environment (rejected before anything runs)."""
    env = Environment()
    env.timeout(2.0)
    env.timeout(5.0)
    env.timeout(1.0).callbacks.append(_raise_boom)
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=3.0)
    assert env.now == 1.0
    env.run()
    assert env.now == 5.0

    for follow_up in ("run", "run-until"):
        env = Environment()
        env.timeout(1.0).callbacks.append(_raise_boom)
        five = env.timeout(5.0, value="five")
        env.timeout(8.0)
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=five)
        assert env.now == 1.0
        assert five.callbacks == []
        if follow_up == "run":
            assert env.run() is None
            assert env.now == 8.0
        else:
            env.run(until=10.0)
            assert env.now == 10.0

    env = Environment()
    env.timeout(2.0)
    boom = env.event()
    boom._ok, boom._value = True, None
    boom.callbacks.append(_raise_boom)
    env.schedule(boom, priority=URGENT)
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=0.0)
    env.run()
    assert env.now == 2.0
    assert env._n_pending() == 0

    a, b = Environment(), Environment()
    a.timeout(3.0)
    foreign = b.timeout(2.0)
    b.timeout(9.0)
    with pytest.raises(SimulationError, match="this environment"):
        a.run(until=foreign)
    assert a.now == 0.0 and a._n_pending() == 1
    assert foreign.callbacks == []
    b.run()
    assert b.now == 9.0


def _raise_boom(_event):
    raise RuntimeError("boom")


# -- run() against step() on drawn schedules ----------------------------------

#: Drawn delays: repeats, zero, and — from ``initial_time=1e16``, where
#: one ulp is 2.0 — positive delays that underflow to the current time.
_DELAYS = st.sampled_from([0.0, 1e-3, 1.0, 2.0, 2.0, 3.5])

_OPS = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("succeed")),
    st.tuples(st.just("fail")),
    st.tuples(st.just("schedule"), st.just(URGENT), st.just(0.0)),
    st.tuples(st.just("schedule"), st.just(NORMAL), _DELAYS),
    st.tuples(st.just("process"), st.lists(_DELAYS, max_size=4).map(tuple)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("raise")),
)

#: A schedule is a tuple of ``(op, children)`` nodes; an op that creates
#: an event runs its children inside that event's callback.
_SCHEDULES = st.recursive(
    st.just(()),
    lambda children: st.lists(st.tuples(_OPS, children), max_size=4).map(tuple),
    max_leaves=24,
)


def _dispatch_order(schedule, initial_time, tiebreak, mode, until=None):
    """Build ``schedule`` and drain it; return the ``(now, priority, kind,
    label)`` of every dispatched event and the final ``now``.  A drain
    that a ``raise`` op's callback fails ends with ``("raised", label)``.

    ``mode`` is ``"hooked"`` (a dispatch hook records, ``run()`` drains),
    ``"callbacks"`` (a callback on every event records, no hook attached)
    or ``"step"`` (the hook records, a manual ``step()`` loop drains).
    With ``until``, a hooked drain is ``run(until=until)`` then ``run()``,
    and the hook labels the stop event ``"stop"``.
    """
    env = Environment(initial_time=initial_time, tiebreak=tiebreak)
    order = []
    labels = {}
    events = []  # cancel targets, in creation order

    def watch(event, priority, label, children=()):
        labels[event] = label

        def fired(ev):
            if mode == "callbacks":
                order.append((env.now, priority, type(ev).__name__, label))
            build(children, label)

        event.callbacks.append(fired)
        return event

    def worker(label, delays):
        for i, delay in enumerate(delays):
            timer = watch(env.timeout(delay), NORMAL, f"{label}.t{i}")
            events.append(timer)
            yield timer

    def build(nodes, parent):
        for i, ((kind, *args), children) in enumerate(nodes):
            label = f"{parent}/{i}{kind}"
            if kind == "timeout":
                events.append(watch(env.timeout(args[0]), NORMAL, label, children))
            elif kind == "succeed":
                events.append(watch(env.event(), NORMAL, label, children).succeed())
            elif kind == "fail":
                ev = watch(env.event(), NORMAL, label, children)
                ev.fail(RuntimeError(label))
                ev.defused()
                events.append(ev)
            elif kind == "schedule":
                priority, delay = args
                ev = watch(env.event(), priority, label, children)
                ev._ok, ev._value = True, None
                env.schedule(ev, delay=delay, priority=priority)
                events.append(ev)
            elif kind == "process":
                proc = env.process(worker(label, args[0]))
                watch(proc.target, URGENT, f"{label}.init")
                watch(proc, NORMAL, label, children)
            elif kind == "cancel" and events:
                victim = events[args[0] % len(events)]
                if not victim.processed:
                    env.cancel(victim)
            elif kind == "raise":
                ev = watch(env.event(), NORMAL, label, children)
                ev.callbacks.append(_raise_label)
                events.append(ev.succeed(label))

    def hook(now, priority, event):
        label = labels[event] if until is None else labels.get(event, "stop")
        order.append((now, priority, type(event).__name__, label))

    if mode != "callbacks":
        env._hooks += (hook,)
    build(schedule, "")
    try:
        if mode == "step":
            while env._n_pending() > env._cancelled_count:
                env.step()
        else:
            if until is not None:
                env.run(until=until)
            env.run()
    except _Raised as exc:  # a ``raise`` op failed the drain
        order.append(("raised", exc.args[0]))
    return order, env.now


class _Raised(Exception):
    """Raised by a ``raise`` op's event, carrying the op's label."""


def _raise_label(event):
    raise _Raised(event.value)


@settings(max_examples=200, deadline=None)
@given(_SCHEDULES, st.sampled_from([0.0, 1e16]))
def test_run_dispatches_exactly_what_step_does(schedule, initial_time):
    """``run()``'s loop, with or without a hook, dispatches the same
    events in the same order at the same times as ``step()``."""
    for tiebreak in ("fifo", "lifo"):
        hooked = _dispatch_order(schedule, initial_time, tiebreak, "hooked")
        assert _dispatch_order(schedule, initial_time, tiebreak, "callbacks") == hooked
        assert _dispatch_order(schedule, initial_time, tiebreak, "step") == hooked


@settings(max_examples=200, deadline=None)
@given(_SCHEDULES, st.sampled_from([0.0, 1e16]), _DELAYS)
def test_run_until_then_run_adds_only_the_stop(schedule, initial_time, delay):
    """``run(until=t)`` then ``run()`` dispatches exactly what one
    ``run()`` does, plus one stop at ``(t, URGENT)``: every event before
    the stop is earlier than ``t`` and none after it is.  ``t`` is drawn
    from the delays, so it is often the time of a timer; from
    ``initial_time=1e16`` small delays make ``t == now``, where the stop
    joins the urgent lane like any URGENT event due now."""
    t = initial_time + delay
    stop = (t, URGENT, "Event", "stop")
    for tiebreak in ("fifo", "lifo"):
        whole, whole_now = _dispatch_order(schedule, initial_time, tiebreak, "hooked")
        split, split_now = _dispatch_order(
            schedule, initial_time, tiebreak, "hooked", until=t
        )
        raised = bool(whole) and whole[-1][0] == "raised"
        if stop not in split:
            # The drain raised before reaching t; the split run did too.
            assert raised and split == whole
            continue
        i = split.index(stop)
        assert split.count(stop) == 1
        assert split[:i] + split[i + 1 :] == whole
        before = [e for e in split[:i] if e[0] != "raised"]
        after = [e for e in split[i + 1 :] if e[0] != "raised"]
        assert all(e[0] < t or t == initial_time for e in before)
        assert all(e[0] >= t for e in after)
        if not raised:
            assert split_now == max(whole_now, t)
