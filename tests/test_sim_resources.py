"""Tests for Resource and Store primitives."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Store


def test_resource_capacity_validated():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_serializes_excess_demand():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user(env, res, name):
        with res.request() as req:
            yield req
            log.append(("start", name, env.now))
            yield env.timeout(10)
            log.append(("end", name, env.now))

    env.process(user(env, res, "a"))
    env.process(user(env, res, "b"))
    env.run()
    assert log == [
        ("start", "a", 0),
        ("end", "a", 10),
        ("start", "b", 10),
        ("end", "b", 20),
    ]


def test_resource_parallel_within_capacity():
    env = Environment()
    res = Resource(env, capacity=3)
    ends = []

    def user(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(5)
            ends.append(env.now)

    for _ in range(3):
        env.process(user(env, res))
    env.run()
    assert ends == [5, 5, 5]


def test_resource_fifo_granting():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, res, name, arrive):
        yield env.timeout(arrive)
        with res.request() as req:
            yield req
            order.append(name)
            yield env.timeout(100)

    env.process(user(env, res, "first", 0))
    env.process(user(env, res, "second", 1))
    env.process(user(env, res, "third", 2))
    env.run()
    assert order == ["first", "second", "third"]


def test_reneging_waiter_releases_queue_slot():
    env = Environment()
    res = Resource(env, capacity=1)
    got = []

    def holder(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(50)

    def waiter(env, res, name, patience):
        with res.request() as req:
            fired = yield env.any_of([req, env.timeout(patience)])
            if req in fired:
                got.append(name)
                yield env.timeout(1)

    env.process(holder(env, res))
    env.process(waiter(env, res, "w1", 10))
    env.process(waiter(env, res, "w2", 100))
    env.run()
    # w1 gave up while queued; w2 must still get the resource.
    assert got == ["w2"]
    assert res.count == 0 and not res.queue


def test_resource_count_tracks_usage():
    env = Environment()
    res = Resource(env, capacity=2)
    samples = []

    def user(env, res, start):
        yield env.timeout(start)
        with res.request() as req:
            yield req
            samples.append(res.count)
            yield env.timeout(10)

    env.process(user(env, res, 0))
    env.process(user(env, res, 1))
    env.run()
    assert samples == [1, 2]
    assert res.count == 0


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    out = []

    def producer(env, store):
        for i in range(5):
            yield env.timeout(1)
            store.put(i)

    def consumer(env, store):
        for _ in range(5):
            item = yield store.get()
            out.append((env.now, item))

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert out == [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    out = []

    def consumer(env, store):
        item = yield store.get()
        out.append((env.now, item))

    def producer(env, store):
        yield env.timeout(42)
        assert store.put("late") is None  # put never blocks: nothing to wait on

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert out == [(42, "late")]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.lists(st.floats(min_value=0.1, max_value=20, allow_nan=False), min_size=1, max_size=25),
)
def test_resource_never_oversubscribed(capacity, hold_times):
    """Property: concurrent holders never exceed capacity, and all jobs run."""
    env = Environment()
    res = Resource(env, capacity=capacity)
    finished = []
    max_seen = [0]

    def user(env, res, hold):
        with res.request() as req:
            yield req
            max_seen[0] = max(max_seen[0], res.count)
            assert res.count <= capacity
            yield env.timeout(hold)
            finished.append(hold)

    for h in hold_times:
        env.process(user(env, res, h))
    env.run()
    assert len(finished) == len(hold_times)
    assert max_seen[0] <= capacity


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(), min_size=0, max_size=30))
def test_store_preserves_items_exactly(items):
    """Property: a store is a faithful FIFO — no loss, no duplication."""
    env = Environment()
    store = Store(env)
    received = []

    def consumer(env):
        for _ in items:
            received.append((yield store.get()))

    for it in items:  # put never blocks, so the producer is a plain loop
        store.put(it)
    env.process(consumer(env))
    env.run()
    assert received == items
