"""Unit and property tests for the DES kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import (
    NORMAL,
    URGENT,
    AllOf,
    AnyOf,
    Environment,
    Event,
    EventTraceRecorder,
    Timeout,
)


def test_time_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_initial_time():
    env = Environment(initial_time=100.0)
    assert env.now == 100.0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(5.5)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [5.5]


def test_timeout_value_passed_through_yield():
    env = Environment()
    seen = []

    def proc(env):
        v = yield env.timeout(1, value="payload")
        seen.append(v)

    env.process(proc(env))
    env.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    env = Environment()
    for delay in (-1, float("nan")):
        with pytest.raises(SimulationError, match="timeout delay must be >= 0"):
            env.timeout(delay)
        with pytest.raises(SimulationError, match="timeout delay must be >= 0"):
            Timeout(env, delay)
    assert env.now == 0.0


def test_negative_schedule_delay_rejected():
    env = Environment()
    for delay in (-1, float("nan")):
        for priority in (NORMAL, URGENT):
            ev = env.event()
            ev._ok, ev._value = True, None
            with pytest.raises(SimulationError, match="schedule delay must be >= 0"):
                env.schedule(ev, delay=delay, priority=priority)
    env.run()
    assert env.now == 0.0


def test_non_finite_initial_time_rejected():
    for initial_time in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(SimulationError, match="initial_time must be finite"):
            Environment(initial_time=initial_time)


def test_processes_interleave_in_time_order():
    env = Environment()
    log = []

    def proc(env, name, delays):
        for d in delays:
            yield env.timeout(d)
            log.append((env.now, name))

    env.process(proc(env, "a", [2, 2]))
    env.process(proc(env, "b", [1, 1, 1]))
    env.run()
    assert log == [(1, "b"), (2, "a"), (2, "b"), (3, "b"), (4, "a")]


def test_same_time_fifo_order():
    """Events scheduled for the same instant fire in creation order."""
    env = Environment()
    log = []

    def proc(env, name):
        yield env.timeout(1)
        log.append(name)

    for name in "abcde":
        env.process(proc(env, name))
    env.run()
    assert log == list("abcde")


def test_run_until_time_stops_clock():
    env = Environment()
    ticks = []

    def clock(env):
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(clock(env))
    env.run(until=3.5)
    assert ticks == [1, 2, 3]
    assert env.now == 3.5


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return "result"

    p = env.process(proc(env))
    assert env.run(until=p) == "result"
    assert env.now == 2


def test_run_until_past_raises():
    env = Environment(initial_time=10)
    for until in (5, float("nan")):
        with pytest.raises(SimulationError, match="is in the past"):
            env.run(until=until)
    assert env.now == 10


def test_run_until_never_triggered_event_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError, match="never triggered"):
        env.run(until=ev)


def test_event_succeed_delivers_value():
    env = Environment()
    got = []

    def waiter(env, ev):
        got.append((yield ev))

    def firer(env, ev):
        yield env.timeout(3)
        ev.succeed(42)

    ev = env.event()
    env.process(waiter(env, ev))
    env.process(firer(env, ev))
    env.run()
    assert got == [42]


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_failed_event_throws_into_process():
    env = Environment()
    caught = []

    def waiter(env, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    ev = env.event()
    env.process(waiter(env, ev))
    ev.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_escapes_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("kaput")

    env.process(bad(env))
    with pytest.raises(ValueError, match="kaput"):
        env.run()


def test_undefused_failed_event_escapes_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    log = []

    def late(env, ev):
        yield env.timeout(5)
        v = yield ev  # already fired at t=1
        log.append((env.now, v))

    ev = env.event()

    def firer(env, ev):
        yield env.timeout(1)
        ev.succeed("early")

    env.process(firer(env, ev))
    env.process(late(env, ev))
    env.run()
    assert log == [(5, "early")]


def test_yield_non_event_raises_inside_process():
    env = Environment()
    caught = []

    def proc(env):
        try:
            yield 42
        except SimulationError as exc:
            caught.append("non-event" in str(exc))

    env.process(proc(env))
    env.run()
    assert caught == [True]


def test_process_return_value_is_event_value():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(2)
        return 99

    def parent(env):
        results.append((yield env.process(child(env))))

    env.process(parent(env))
    env.run()
    assert results == [99]


def test_unjoined_process_ends_in_place():
    env = Environment()
    rec = EventTraceRecorder(env)

    def lone(env):
        yield env.timeout(2)
        return 7

    p = env.process(lone(env))
    env.run()
    # Its start and its timer are dispatched; its exit is not queued.
    assert rec.lines == ["0.0 0 Initialize", "2.0 1 Timeout"]
    assert p.processed and not p.is_alive
    assert p.value == 7


def test_late_joiner_resumes_at_once_with_return_value():
    env = Environment()
    seen = []

    def child(env):
        yield env.timeout(1)
        return "result"

    c = env.process(child(env))

    def joiner(env):
        yield env.timeout(5)
        value = yield c  # c returned at t=1 with nobody joined
        seen.append((env.now, value))

    env.process(joiner(env))
    env.run()
    assert seen == [(5.0, "result")]
    assert env.run(until=c) == "result"
    assert env.now == 5.0


def test_all_of_waits_for_slowest():
    env = Environment()
    out = []

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(5, value="b")
        res = yield AllOf(env, [t1, t2])
        out.append((env.now, sorted(res.values())))

    env.process(proc(env))
    env.run()
    assert out == [(5, ["a", "b"])]


def test_any_of_fires_on_fastest():
    env = Environment()
    out = []

    def proc(env):
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(5, value="slow")
        res = yield AnyOf(env, [t1, t2])
        out.append((env.now, list(res.values())))

    env.process(proc(env))
    env.run()
    assert out == [(1, ["fast"])]


def test_empty_all_of_fires_immediately():
    env = Environment()
    out = []

    def proc(env):
        res = yield AllOf(env, [])
        out.append((env.now, res))

    env.process(proc(env))
    env.run()
    assert out == [(0, {})]


def test_condition_failure_propagates():
    env = Environment()
    caught = []

    def proc(env, ev):
        try:
            yield AllOf(env, [env.timeout(10), ev])
        except RuntimeError:
            caught.append(env.now)

    ev = env.event()
    env.process(proc(env, ev))

    def failer(env, ev):
        yield env.timeout(2)
        ev.fail(RuntimeError("part failed"))

    env.process(failer(env, ev))
    env.run()
    assert caught == [2]


def test_step_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=40))
def test_events_fire_in_nondecreasing_time_order(delays):
    """Whatever the scheduling order, observation times are sorted."""
    env = Environment()
    observed = []

    def proc(env, d):
        yield env.timeout(d)
        observed.append(env.now)

    for d in delays:
        env.process(proc(env, d))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(min_value=0.01, max_value=100, allow_nan=False), min_size=1, max_size=5),
        min_size=1,
        max_size=10,
    )
)
def test_total_elapsed_equals_max_process_span(delay_chains):
    """The clock ends at the longest sequential chain of timeouts."""
    env = Environment()

    def proc(env, chain):
        for d in chain:
            yield env.timeout(d)

    for chain in delay_chains:
        env.process(proc(env, chain))
    env.run()
    assert env.now == pytest.approx(max(sum(c) for c in delay_chains))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=50))
def test_determinism_identical_runs(n):
    """Two environments fed identical programs produce identical traces."""

    def build():
        env = Environment()
        trace = []

        def proc(env, i):
            yield env.timeout(i % 7)
            trace.append((env.now, i))
            yield env.timeout((i * 3) % 5)
            trace.append((env.now, -i))

        for i in range(n):
            env.process(proc(env, i))
        env.run()
        return trace

    assert build() == build()


# -- event cancellation --------------------------------------------------------


def test_cancelled_timeout_never_fires():
    env = Environment()
    fired = []
    doomed = env.timeout(5.0)
    doomed.callbacks.append(lambda e: fired.append("doomed"))
    keeper = env.timeout(3.0)
    keeper.callbacks.append(lambda e: fired.append("keeper"))
    env.cancel(doomed)
    env.run()
    assert fired == ["keeper"]
    assert env.now == 3.0  # the clock never advanced to the cancelled event


def test_cancel_is_idempotent_and_queue_compacts():
    env = Environment()
    timeouts = [env.timeout(100.0 + i) for i in range(100)]
    for t in timeouts:
        env.cancel(t)
        env.cancel(t)  # idempotent
    # Tombstone compaction keeps the queue bounded by live entries.
    assert env._n_pending() < 60
    env.run()
    assert env.now == 0.0  # nothing ever fired


def test_cancel_processed_event_raises():
    env = Environment()
    t = env.timeout(1.0)
    env.run()
    with pytest.raises(SimulationError, match="processed"):
        env.cancel(t)


def test_cancel_untriggered_event_raises():
    env = Environment()
    e = env.event()  # never scheduled
    with pytest.raises(SimulationError, match="unscheduled"):
        env.cancel(e)


def test_run_completes_when_tail_is_all_cancelled():
    """run() must not raise 'no more events' when only tombstones remain."""
    env = Environment()
    live = env.timeout(1.0)
    stale = [env.timeout(50.0) for _ in range(3)]
    for t in stale:
        env.cancel(t)
    env.run()
    assert live.processed
    assert env.now == 1.0
