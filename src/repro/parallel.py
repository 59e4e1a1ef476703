"""Ordered worker pool for the frame-parallel data plane.

The Fig. 3 path handles a movie one frame at a time: one h5lite chunk,
one detection block and one PNG per frame.  The heavy part of each step
is C code that releases the interpreter lock (zlib, scipy.ndimage), so
frames can be worked on side by side by threads.
:func:`imap_ordered` is the one helper every such call site uses:

* results come back in submission order, so every file byte, detection
  and PNG frame is the same as the serial loop's, whatever the worker
  count;
* at most ``2 * workers()`` tasks are in flight, and the input iterable
  is consumed lazily on the caller's thread;
* the thread pool starts on first use, sized by the CPUs this process
  may run on (``taskset -c 0`` gives the serial path), and is forgotten
  in forked children;
* with one CPU, or when called from a pool worker, it is plain ``map``.

Only pure functions of their arguments may run on the pool: file
handles, I/O accounting and any DES code stay on the caller's thread.
"""

from __future__ import annotations

import collections
import itertools
import os
import threading
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, TypeVar

if TYPE_CHECKING:  # imported lazily: campaign runs never start the pool
    from concurrent.futures import Future, ThreadPoolExecutor

__all__ = ["imap_ordered", "workers"]

T = TypeVar("T")
R = TypeVar("R")

_pool: "Optional[ThreadPoolExecutor]" = None
_pool_lock = threading.Lock()
_local = threading.local()


def workers() -> int:
    """Worker count: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _mark_worker() -> None:
    _local.is_worker = True


def _executor(n: int) -> "ThreadPoolExecutor":
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                max_workers=n, thread_name_prefix="repro-parallel", initializer=_mark_worker
            )
        return _pool


def _forget_pool() -> None:
    """A forked child has none of the parent's pool threads: drop the
    executor (and a lock another thread may have held at the fork)."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def imap_ordered(fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
    """``map(fn, items)``, with ``fn`` running on the worker pool.

    Results are yielded in the order of ``items``.  An exception raised
    by ``fn`` is re-raised unchanged when its result is due; it, or
    closing the iterator early, cancels the work not yet started.
    """
    n = workers()
    if n <= 1 or getattr(_local, "is_worker", False):
        # A pool task waiting on tasks queued behind it would deadlock.
        return map(fn, items)
    return _ordered(_executor(n), fn, iter(items), 2 * n)


def _ordered(
    pool: "ThreadPoolExecutor", fn: Callable[[T], R], items: Iterator[T], window: int
) -> Iterator[R]:
    pending: "collections.deque[Future[R]]" = collections.deque()
    try:
        for item in itertools.islice(items, window):
            pending.append(pool.submit(fn, item))
        while pending:
            result = pending.popleft().result()
            for item in itertools.islice(items, 1):
                pending.append(pool.submit(fn, item))
            yield result
    finally:
        for future in pending:
            future.cancel()
