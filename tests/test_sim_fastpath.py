"""Tests for the kernel's split queue: lanes, calendar buckets, fast drain.

The optimized kernel keeps one *logical* total order —
``(time, priority, tiebreak_sign * seq)`` — but stores entries in three
physical structures (immediate lanes, per-timestamp timer buckets, and
an exotic heap).  These tests pin the seams between them: underflowing
delays, mid-drain scheduling and cancellation, exotic priorities mixed
into bucket drains, compaction while a bucket is being read, and the
fired-condition callback detach.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, EventTraceRecorder, Interrupt
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
    """Timer buckets group equal target times; within one bucket the
    tie-break governs, across buckets time does."""
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
    """A zero-delay event scheduled from inside a bucket drain fires at
    the same timestamp: after remaining bucket entries under fifo,
    before them under lifo (newest-first)."""
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
    """An exotic-priority event scheduled at ``now`` from inside a bucket
    drain still respects the priority order: NORMAL entries already in
    the bucket (priority 1) fire before the priority-2 straggler."""
    env = Environment()
    order = []
    straggler = env.event()

    def first(_event):
        order.append("first")
        straggler._ok = True
        straggler._value = None
        env.schedule(straggler, delay=0.25, priority=2)

    env.timeout(1.0).callbacks.append(first)
    env.timeout(1.0).callbacks.append(_tag(order, "second"))
    env.timeout(1.25).callbacks.append(_tag(order, "timer"))
    straggler.callbacks.append(_tag(order, "exotic"))
    env.run()
    # At t=1.25 the NORMAL timer (priority 1) precedes the exotic
    # (priority 2) even though the exotic was scheduled first.
    assert order == ["first", "second", "timer", "exotic"]


def test_urgent_lane_precedes_normal_at_same_tick():
    env = Environment()
    order = []
    ev = env.event()
    ev.callbacks.append(_tag(order, "urgent"))

    def proc(env):
        yield env.timeout(1.0)
        order.append("normal-a")
        ev.succeed()  # URGENT: jumps ahead of the pending same-tick timer
        yield env.timeout(0.0)
        order.append("normal-b")

    env.process(proc(env))
    env.timeout(1.0).callbacks.append(_tag(order, "bucket-peer"))
    env.run()
    # bucket-peer's timer was created before the process first ran, so
    # it leads the t=1 bucket; the succeed() then jumps the URGENT lane
    # ahead of the process's own zero-delay NORMAL continuation.
    assert order == ["bucket-peer", "normal-a", "urgent", "normal-b"]


@pytest.mark.parametrize("tiebreak", ["fifo", "lifo"])
def test_cancel_inside_current_bucket(tiebreak):
    """Cancelling a not-yet-drained entry of the *currently draining*
    bucket suppresses it."""
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
    loop does, with one cancelled far-future deadline per flow keeping
    many buckets live."""
    n_flows, n_ticks, period = 400, 20, 10.0

    def build():
        env = Environment()
        dispatched = EventTraceRecorder(env).lines

        def flow(env, i):
            deadline = env.timeout(10_000.0 + i)  # one live bucket per flow
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


def test_exotic_priorities_total_order():
    """Priorities outside {URGENT, NORMAL} disable the fast drain but
    keep the exact (time, priority, seq) order."""
    env = Environment()
    order = []
    spec = [(1.0, 3, "late-exotic"), (1.0, 2, "exotic"), (2.0, 2, "next-tick")]
    for delay, prio, name in spec:
        ev = env.event()
        ev._ok = True
        ev._value = None
        ev.callbacks.append(_tag(order, name))
        env.schedule(ev, delay=delay, priority=prio)
    env.timeout(1.0).callbacks.append(_tag(order, "normal"))
    env.run()
    assert order == ["normal", "exotic", "late-exotic", "next-tick"]


# -- run() against step() on drawn schedules ----------------------------------

#: Drawn delays: repeats, zero, and — from ``initial_time=1e16``, where
#: one ulp is 2.0 — positive delays that underflow to the current time.
_DELAYS = st.sampled_from([0.0, 1e-3, 1.0, 2.0, 2.0, 3.5])

_OPS = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("succeed")),
    st.tuples(st.just("fail")),
    st.tuples(st.just("schedule"), st.sampled_from([URGENT, -1, 2]), _DELAYS),
    st.tuples(st.just("process"), st.lists(_DELAYS, max_size=4).map(tuple)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
    st.tuples(st.just("interrupt"), st.integers(min_value=0, max_value=8)),
)

#: A schedule is a tuple of ``(op, children)`` nodes; an op that creates
#: an event runs its children inside that event's callback.
_SCHEDULES = st.recursive(
    st.just(()),
    lambda children: st.lists(st.tuples(_OPS, children), max_size=4).map(tuple),
    max_leaves=24,
)


def _dispatch_order(schedule, initial_time, tiebreak, mode):
    """Build ``schedule`` and drain it; return the ``(now, priority, kind,
    label)`` of every dispatched event and the final ``now``.

    ``mode`` is ``"hooked"`` (a dispatch hook records, ``run()`` drains),
    ``"callbacks"`` (a callback on every event records, no hook attached)
    or ``"step"`` (the hook records, a manual ``step()`` loop drains).
    """
    env = Environment(initial_time=initial_time, tiebreak=tiebreak)
    order = []
    labels = {}
    events = []  # cancel targets, in creation order
    processes = []

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
            try:
                yield timer
            except Interrupt:
                pass

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
                processes.append(watch(proc, NORMAL, label, children))
            elif kind == "cancel" and events:
                victim = events[args[0] % len(events)]
                if not victim.processed:
                    env.cancel(victim)
            elif kind == "interrupt" and processes:
                proc = processes[args[0] % len(processes)]
                if proc.is_alive:
                    proc.interrupt(label)
                    # the delivery event interrupt() just queued
                    watch(env._lane_urgent[-1][3], URGENT, f"{label}.delivery")

    def hook(now, priority, event):
        order.append((now, priority, type(event).__name__, labels[event]))

    if mode != "callbacks":
        env._hooks += (hook,)
    build(schedule, "")
    try:
        if mode == "step":
            while env._n_pending() > env._cancelled_count:
                env.step()
        else:
            env.run()
    except Interrupt as exc:  # a process interrupted before it started
        order.append(("raised", exc.cause))
    return order, env.now


@settings(max_examples=200, deadline=None)
@given(_SCHEDULES, st.sampled_from([0.0, 1e16]))
def test_run_dispatches_exactly_what_step_does(schedule, initial_time):
    """``run()``'s loop, with or without a hook, dispatches the same
    events in the same order at the same times as ``step()``."""
    for tiebreak in ("fifo", "lifo"):
        hooked = _dispatch_order(schedule, initial_time, tiebreak, "hooked")
        assert _dispatch_order(schedule, initial_time, tiebreak, "callbacks") == hooked
        assert _dispatch_order(schedule, initial_time, tiebreak, "step") == hooked
