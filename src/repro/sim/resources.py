"""Shared-resource primitives for the DES kernel.

:class:`Resource`
    A counted resource (e.g. compute nodes, transfer slots) with a FIFO
    wait queue.  Requests are events; use them in ``with`` blocks inside
    process generators so releases always happen::

        def job(env, nodes):
            with nodes.request() as req:
                yield req
                yield env.timeout(10)   # hold one unit for 10 s

:class:`Store`
    An unbounded FIFO queue of Python objects with a blocking ``get``
    event — the building block for task queues and mailboxes between
    simulated services.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..errors import SimulationError
from .core import Environment, Event

__all__ = ["Resource", "Request", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource` unit.

    Usable as a context manager: exiting the block releases the unit (or
    cancels the request if it never succeeded).
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._on_request(self)

    def release(self) -> None:
        """Give the unit back (or withdraw a still-queued request)."""
        self.resource._on_release(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.release()


class Resource:
    """``capacity`` interchangeable units with FIFO granting."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Units currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Claim one unit; the returned event fires when granted."""
        return Request(self)

    # -- internal ---------------------------------------------------------
    def _on_request(self, req: Request) -> None:
        self.env.touch(self, "w")
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)

    def _on_release(self, req: Request) -> None:
        self.env.touch(self, "w")
        if req in self.users:
            self.users.remove(req)
            self._grant_next()
        else:
            # Withdrawn before being granted (e.g. a waiter gave up).
            try:
                self.queue.remove(req)
            except ValueError:
                pass

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()


class Store:
    """Unbounded FIFO object queue: ``put`` never blocks, ``get`` blocks
    until an item is there."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def pending_getters(self) -> int:
        """Number of get() requests currently blocked."""
        return len(self._getters)

    def put(self, item: Any) -> None:
        """Add ``item`` and serve the oldest waiting getter.  Nothing to
        wait on: the store has no bound."""
        self.env.touch(self, "w")
        self.items.append(item)
        self._serve()

    def get(self) -> Event:
        """Event that fires with the next item."""
        self.env.touch(self, "w")
        ev = Event(self.env)
        self._getters.append(ev)
        self._serve()
        return ev

    def _serve(self) -> None:
        """Serve the oldest getters from the head of the buffer."""
        items = self.items
        getters = self._getters
        while getters and items:
            getters.popleft().succeed(items.popleft())
