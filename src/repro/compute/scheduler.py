"""A PBS-like batch scheduler for the Polaris stand-in.

The paper's compute endpoint "is configured to acquire compute nodes on
the Polaris supercomputer by using the PBS scheduler" — and its maximum
flow runtimes come from exactly this path: the *first* flow pays a queue
wait, a node boot, and Python-library cache warm-up, while subsequent
flows "are able to reuse nodes already provisioned to the previous
flows" (Sec. 3.3).

:class:`BatchScheduler` models a bounded node pool with FCFS granting,
a stochastic queue delay (the PBS scheduling cycle plus backfill luck),
and a node-boot delay.  The environment-cache cost is charged by the
endpoint on each node's first task.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..errors import SchedulerError
from ..obs import NULL_OBS
from ..rng import RngRegistry, lognormal_from_median
from ..sim import Environment, Resource
from ..sim.resources import Request

__all__ = ["Node", "BatchScheduler"]


@dataclass
class Node:
    """A provisioned compute node."""

    node_id: str
    request: Request  # the scheduler-pool claim backing this node
    env_cached: bool = False  # Python libraries warmed up?
    tasks_run: int = 0
    released: bool = False


class BatchScheduler:
    """Bounded pool of batch nodes with queue + boot delays.

    Parameters
    ----------
    env:
        Simulation environment.
    n_nodes:
        Pool size available to this endpoint's queue.
    queue_median_s / queue_sigma:
        Lognormal PBS queue delay when nodes are free (scheduler cycle,
        prologue).  Real contention (no free node) adds FCFS wait on top.
    boot_median_s / boot_sigma:
        Node startup: prologue scripts, filesystem mounts.
    """

    def __init__(
        self,
        env: Environment,
        n_nodes: int = 4,
        queue_median_s: float = 30.0,
        queue_sigma: float = 0.4,
        boot_median_s: float = 30.0,
        boot_sigma: float = 0.2,
        rngs: Optional[RngRegistry] = None,
        obs: Any = NULL_OBS,
    ) -> None:
        if n_nodes < 1:
            raise SchedulerError(f"n_nodes must be >= 1, got {n_nodes}")
        for name, v in (
            ("queue_median_s", queue_median_s),
            ("queue_sigma", queue_sigma),
            ("boot_median_s", boot_median_s),
            ("boot_sigma", boot_sigma),
        ):
            if not (math.isfinite(v) and v >= 0):
                raise SchedulerError(f"{name} must be finite and >= 0, got {v}")
        self.env = env
        self.pool = Resource(env, capacity=n_nodes)
        self.queue_median_s = float(queue_median_s)
        self.queue_sigma = float(queue_sigma)
        self.boot_median_s = float(boot_median_s)
        self.boot_sigma = float(boot_sigma)
        self.rngs = rngs or RngRegistry(seed=0)
        self.tracer = obs.tracer
        m = obs.metrics
        self._m_provisions = m.counter("scheduler.provisions")
        self._m_releases = m.counter("scheduler.releases")
        self._m_busy = m.gauge("scheduler.busy_nodes")
        self._m_queue_wait = m.histogram("scheduler.queue_wait_s")
        self._ids = itertools.count(1)
        #: Observability counters.
        self.provision_count = 0
        self.release_count = 0

    @property
    def busy_nodes(self) -> int:
        return self.pool.count

    def provision(self) -> Generator:
        """DES sub-process: claim a pool slot, pay queue + boot delays,
        and return a fresh (cold) :class:`Node`.

        Use as ``node = yield from scheduler.provision()``.
        """
        rng = self.rngs.stream("scheduler.delays")
        span = self.tracer.start("scheduler.provision")
        try:
            requested_at = self.env.now
            req = self.pool.request()
            try:
                queue_span = self.tracer.start("scheduler.queue", span)
                try:
                    yield req
                    queue_delay = lognormal_from_median(
                        rng, self.queue_median_s, self.queue_sigma
                    )
                    if queue_delay > 0:
                        yield self.env.timeout(queue_delay)
                finally:
                    queue_span.finish()
                self._m_queue_wait.observe(self.env.now - requested_at)
                boot_span = self.tracer.start("scheduler.boot", span)
                try:
                    boot_delay = lognormal_from_median(
                        rng, self.boot_median_s, self.boot_sigma
                    )
                    if boot_delay > 0:
                        yield self.env.timeout(boot_delay)
                finally:
                    boot_span.finish()
                self.env.touch(self, "w")
                self.provision_count += 1
                self._m_provisions.inc()
                self._m_busy.set(self.pool.count)
                node = Node(node_id=f"node-{next(self._ids):03d}", request=req)
            except BaseException:
                # The kernel threw into us mid-provision (e.g.
                # campaign teardown): the pool claim must not outlive
                # the generator or the slot is gone for the whole run.
                req.release()
                raise
            span.set("node_id", node.node_id)
            return node
        finally:
            span.finish()

    def release(self, node: Node) -> None:
        """Return a node to the pool (idempotence guarded)."""
        if node.released:
            raise SchedulerError(f"{node.node_id} already released")
        node.released = True
        self.env.touch(self, "w")
        node.request.release()
        self.release_count += 1
        self._m_releases.inc()
        self._m_busy.set(self.pool.count)
