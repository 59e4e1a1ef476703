"""`repro.parallel.imap_ordered` — the ordered worker pool of the data plane.

Covers submission-order results under out-of-order completion, the
bounded read-ahead window, exception propagation with cancellation of
queued work, the one-CPU ``map`` path, fork safety, and concurrent
callers sharing the pool.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time

import pytest

from repro import parallel
from repro.parallel import imap_ordered


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    return 2 * 2  # the in-flight window


def _square(x: int) -> int:
    return x * x


def test_results_in_submission_order_when_tasks_finish_out_of_order(two_workers):
    # Earlier items sleep longer, so later ones finish first.
    def slow_then_fast(i: int) -> int:
        time.sleep(0.002 * (10 - i))
        return i

    assert list(imap_ordered(slow_then_fast, range(10))) == list(range(10))


def test_input_is_read_at_most_one_window_ahead(two_workers):
    window = two_workers
    read = []

    def items():
        for i in range(25):
            read.append(i)
            yield i

    consumed = 0
    for result in imap_ordered(_square, items()):
        assert result == consumed * consumed
        consumed += 1
        assert len(read) <= consumed + window
    assert consumed == 25


def test_exception_propagates_unchanged_and_queued_work_is_cancelled(two_workers):
    window = two_workers
    boom = RuntimeError("boom")
    one_started, release = threading.Event(), threading.Event()
    started: set[int] = set()
    read = []

    def fn(i: int) -> int:
        started.add(i)
        if i == 0:
            one_started.wait(5.0)  # fail only once item 1 holds the other worker
            raise boom
        if i == 1:
            one_started.set()
        release.wait(5.0)
        return i

    def items():
        for i in range(10):
            read.append(i)
            yield i

    try:
        with pytest.raises(RuntimeError) as info:
            next(imap_ordered(fn, items()))
    finally:
        release.set()
    assert info.value is boom
    # Let the pool finish whatever was already running.
    list(imap_ordered(_square, range(4)))
    assert len(read) == window
    # Items 2 and 3 were queued behind two busy workers: the worker
    # freed by the failure may have taken one before the cancel, never both.
    assert {0, 1} <= started <= set(range(window))
    assert len(started & {2, 3}) <= 1


def test_early_close_cancels_queued_work(two_workers):
    release = threading.Event()
    started: set[int] = set()

    def fn(i: int) -> int:
        started.add(i)
        if i:
            release.wait(5.0)
        return i

    results = imap_ordered(fn, range(10))
    try:
        assert next(results) == 0
        # Items 1 and 2 block both workers (or are still queued); 3 and 4
        # wait in the queue.
        results.close()
    finally:
        release.set()
    list(imap_ordered(_square, range(4)))
    assert 0 in started
    assert not started & {3, 4}


def test_one_cpu_is_a_plain_map_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(parallel, "workers", lambda: 1)
    threads = []

    def fn(x: int) -> int:
        threads.append(threading.get_ident())
        return x + 1

    out = imap_ordered(fn, range(5))
    assert isinstance(out, map)
    assert list(out) == [1, 2, 3, 4, 5]
    assert set(threads) == {threading.get_ident()}


def test_nested_call_from_a_worker_runs_serially(two_workers):
    # A pool task waiting on tasks queued behind it would deadlock, so a
    # nested call maps in place.
    def inner_sum(n: int) -> int:
        return sum(imap_ordered(_square, range(n)))

    got = []
    outer = threading.Thread(
        target=lambda: got.extend(imap_ordered(inner_sum, range(8))), daemon=True
    )
    outer.start()
    outer.join(timeout=30)
    assert not outer.is_alive(), "nested imap_ordered deadlocked the pool"
    assert got == [sum(i * i for i in range(n)) for n in range(8)]


def _child_runs_pool() -> None:
    assert list(imap_ordered(_square, range(20))) == [i * i for i in range(20)]


def test_forked_child_gets_a_fresh_pool(two_workers):
    assert list(imap_ordered(_square, range(8))) == [i * i for i in range(8)]
    assert parallel._pool is not None  # the parent's pool is running
    proc = multiprocessing.get_context("fork").Process(target=_child_runs_pool)
    proc.start()
    proc.join(timeout=30)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=5)
        pytest.fail("forked child hung on the inherited pool")
    assert proc.exitcode == 0


def test_concurrent_callers_each_get_their_own_order(monkeypatch):
    # More workers than cores, many callers, a short switch interval.
    monkeypatch.setattr(parallel, "workers", lambda: 6)
    errors: list[str] = []

    def caller(k: int) -> None:
        got = list(imap_ordered(lambda x: (k, x), range(200)))
        if got != [(k, x) for x in range(200)]:
            errors.append(f"caller {k} got results out of order")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
