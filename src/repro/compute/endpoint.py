"""Compute endpoint agent: node leasing, warm reuse, task execution.

The endpoint receives tasks from the compute service, runs them on
batch nodes, and keeps finished nodes *warm* for an idle window so that
subsequent flows skip provisioning entirely (the paper's key cold/warm
dynamic).  The first task on each fresh node additionally pays the
Python-environment cache warm-up ("cache the Python libraries required
for analysis", Sec. 3.3).

Internally, leased nodes live in a FIFO :class:`~repro.sim.Store`: a
task takes the first available warm node, or triggers a provisioner
that queues on the batch scheduler.  Whichever node shows up first —
freshly booted or just parked by a finishing task — goes to the
longest-waiting task, so demand never deadlocks behind a parked node.
A provisioner that finishes after demand has evaporated returns its
node to the scheduler immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..errors import ComputeError
from ..obs import NULL_OBS
from ..rng import RngRegistry, lognormal_from_median
from ..sim import Environment, Store
from .function import RegisteredFunction
from .scheduler import BatchScheduler, Node

__all__ = ["ComputeEndpoint", "TaskOutcome"]


@dataclass
class TaskOutcome:
    """What the endpoint reports back per task."""

    result: Any = None
    error: Optional[str] = None
    node_id: str = ""
    cold_start: bool = False  # first task ever on its node?
    env_cache_paid: bool = False  # did it pay library warm-up?
    queued_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    node_failures: int = 0  # chaos: nodes lost under this task

    @property
    def ok(self) -> bool:
        return self.error is None


class ComputeEndpoint:
    """A user-deployed endpoint agent on the HPC side.

    Parameters
    ----------
    env, name, scheduler:
        Environment, endpoint id, and the batch system behind it.
    env_cache_median_s / env_cache_sigma:
        Library warm-up on a node's first task.
    idle_timeout_s:
        Warm nodes are parked this long before being released back to
        the batch pool.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        scheduler: BatchScheduler,
        env_cache_median_s: float = 60.0,
        env_cache_sigma: float = 0.2,
        idle_timeout_s: float = 600.0,
        rngs: Optional[RngRegistry] = None,
        obs: Any = NULL_OBS,
    ) -> None:
        for field, v in (
            ("env_cache_median_s", env_cache_median_s),
            ("env_cache_sigma", env_cache_sigma),
            ("idle_timeout_s", idle_timeout_s),
        ):
            if not (math.isfinite(v) and v >= 0):
                raise ComputeError(f"{field} must be finite and >= 0, got {v}")
        self.env = env
        self.name = name
        self.scheduler = scheduler
        self.env_cache_median_s = float(env_cache_median_s)
        self.env_cache_sigma = float(env_cache_sigma)
        self.idle_timeout_s = float(idle_timeout_s)
        self.rngs = rngs or RngRegistry(seed=0)
        self.tracer = obs.tracer
        m = self._metrics = obs.metrics
        self._m_tasks = m.counter(f"endpoint.{name}.tasks")
        self._m_cold = m.counter(f"endpoint.{name}.cold_starts")
        self._m_warm = m.gauge(f"endpoint.{name}.warm_nodes")
        self._m_queue_wait = m.histogram(f"endpoint.{name}.queue_wait_s")
        self._available: Store = Store(env)  # parked warm + fresh nodes
        self._park_epoch: dict[str, int] = {}  # reaper invalidation tokens
        #: Chaos hooks: a node-failure spec (duck-typed, see
        #: :class:`repro.chaos.NodeFailureSpec`) plus its RNG stream.
        #: ``None`` (the default) makes zero draws and zero extra events.
        self.node_chaos: Any = None
        self.chaos_rng: Any = None
        #: Observability.
        self.tasks_executed = 0
        self.cold_starts = 0
        self.provisions_wasted = 0
        self.node_failures = 0

    # -- node pool management -------------------------------------------------
    @property
    def warm_nodes(self) -> int:
        return len(self._available)

    def _bump_epoch(self, node: Node) -> int:
        epoch = self._park_epoch.get(node.node_id, 0) + 1
        self._park_epoch[node.node_id] = epoch
        return epoch

    def _park(self, node: Node) -> None:
        """Make ``node`` available again; reap it if idle past timeout."""
        epoch = self._bump_epoch(node)
        self._available.put(node)
        self._m_warm.set(len(self._available))
        self.env.process(self._reap_after_idle(node, epoch))

    def _reap_after_idle(self, node: Node, epoch: int) -> Generator:
        yield self.env.timeout(self.idle_timeout_s)
        still_parked = node in self._available.items
        if still_parked and self._park_epoch.get(node.node_id) == epoch:
            self._available.items.remove(node)
            self._m_warm.set(len(self._available))
            self.scheduler.release(node)

    def _provisioner(self) -> Generator:
        node = yield from self.scheduler.provision()
        if self._available.pending_getters == 0:
            # Demand evaporated while we sat in the batch queue (another
            # task's node was reused instead): hand the node straight back.
            self.provisions_wasted += 1
            self.scheduler.release(node)
            return
        self._bump_epoch(node)
        self._available.put(node)
        self._m_warm.set(len(self._available))

    # -- task execution ----------------------------------------------------------
    def execute(
        self,
        func: RegisteredFunction,
        args: tuple,
        kwargs: dict,
        span: Any,
    ) -> Generator:
        """DES sub-process: ``outcome = yield from ep.execute(...)`` runs a
        task to its :class:`TaskOutcome` (``error`` is set rather than
        raised, so pollers see FAILED status).  ``span`` is the caller's
        task span; endpoint phases trace as its children."""
        outcome = TaskOutcome(queued_at=self.env.now)
        while True:
            wait_span = self.tracer.start("compute.queue_wait", span)
            try:
                if len(self._available) == 0:
                    # No warm node parked right now: ask the batch system
                    # for one.  If a warm node frees up first, we take it
                    # and the fresh node is returned (see _provisioner).
                    self.env.process(self._provisioner())
                node: Node = yield self._available.get()
                self._m_warm.set(len(self._available))
                self._bump_epoch(node)  # invalidate any pending reaper
                outcome.node_id = node.node_id
                outcome.cold_start = node.tasks_run == 0
                if outcome.cold_start:
                    self.cold_starts += 1
                    self._m_cold.inc()
                outcome.started_at = self.env.now
                wait_span.set("node_id", node.node_id).set(
                    "cold_start", outcome.cold_start
                )
            finally:
                wait_span.finish()
            self._m_queue_wait.observe(outcome.started_at - outcome.queued_at)
            node_lost = False
            try:
                if not node.env_cached:
                    warm_span = self.tracer.start("compute.env_cache", span)
                    try:
                        warmup = lognormal_from_median(
                            self.rngs.stream("endpoint.envcache"),
                            self.env_cache_median_s,
                            self.env_cache_sigma,
                        )
                        if warmup > 0:
                            yield self.env.timeout(warmup)
                        node.env_cached = True
                        outcome.env_cache_paid = True
                        warm_span.set("node_id", node.node_id)
                    finally:
                        warm_span.finish()
                exec_span = self.tracer.start("compute.exec", span).set(
                    "function", func.name
                )
                try:
                    charge = func.charge(args, kwargs)
                    fail_frac = (
                        self.node_chaos.draw(self.chaos_rng)
                        if self.node_chaos is not None
                        else None
                    )
                    if fail_frac is not None:
                        # The node dies mid-task: burn part of the work,
                        # lose the node (back to the batch pool, not the
                        # warm store), and re-queue under the budget.
                        burn = charge * fail_frac
                        if burn > 0:
                            yield self.env.timeout(burn)
                        node_lost = True
                        outcome.node_failures += 1
                        self.node_failures += 1
                        # Registered on first failure: a clean campaign's
                        # export carries no chaos instrument.
                        self._metrics.counter(
                            f"endpoint.{self.name}.node_failures"
                        ).inc()
                        exec_span.set("ok", False).set("node_failed", True)
                        self.scheduler.release(node)
                        if outcome.node_failures <= self.node_chaos.retry_budget:
                            continue
                        outcome.error = (
                            f"node {node.node_id} died mid-task; retry budget "
                            f"({self.node_chaos.retry_budget}) exhausted after "
                            f"{outcome.node_failures} node failures"
                        )
                    else:
                        if charge > 0:
                            yield self.env.timeout(charge)
                        try:
                            outcome.result = func.fn(*args, **kwargs)
                        except Exception as exc:  # the *user function* failed
                            outcome.error = f"{type(exc).__name__}: {exc}"
                        exec_span.set("ok", outcome.ok)
                        node.tasks_run += 1
                        self.tasks_executed += 1
                        self._m_tasks.inc()
                finally:
                    exec_span.finish()
            finally:
                outcome.finished_at = self.env.now
                if not node_lost:
                    self._park(node)
            return outcome
