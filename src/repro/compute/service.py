"""The federated compute service (Globus Compute / funcX stand-in).

Clients register functions, then submit invocations addressed to an
endpoint; the cloud service routes the task, the endpoint executes it on
batch resources, and clients poll the task id for status and results —
the exact interaction pattern of Sec. 2.2.2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Generator, Optional

from ..auth import ScopeAuthorizer, Token
from ..auth.identity import COMPUTE_SCOPE, AuthClient
from ..errors import ComputeError, EndpointError
from ..obs import NULL_OBS
from ..rng import RngRegistry, lognormal_from_median
from ..sim import Environment, Process
from .endpoint import ComputeEndpoint, TaskOutcome
from .function import CostModel, FunctionRegistry

__all__ = ["ComputeService", "ComputeTaskStatus", "ComputeTask"]


class ComputeTaskStatus(str, Enum):
    PENDING = "PENDING"
    RUNNING = "RUNNING"
    SUCCESS = "SUCCESS"
    FAILED = "FAILED"

    @property
    def terminal(self) -> bool:
        return self in (ComputeTaskStatus.SUCCESS, ComputeTaskStatus.FAILED)


@dataclass
class ComputeTask:
    """One submitted invocation and its observable record."""

    task_id: str
    owner: str
    endpoint: str
    function_id: str
    submitted_at: float
    status: ComputeTaskStatus = ComputeTaskStatus.PENDING
    outcome: Optional[TaskOutcome] = None
    completed_at: Optional[float] = None


class ComputeService:
    """Routes function invocations to registered endpoints."""

    def __init__(
        self,
        env: Environment,
        auth: AuthClient,
        rngs: Optional[RngRegistry] = None,
        api_latency_s: float = 0.2,
        latency_sigma: float = 0.3,
        obs: Any = NULL_OBS,
    ) -> None:
        self.env = env
        self.authorizer = ScopeAuthorizer(auth, COMPUTE_SCOPE)
        self.rngs = rngs or RngRegistry(seed=0)
        self.api_latency_s = float(api_latency_s)
        self.latency_sigma = float(latency_sigma)
        #: Chaos hook: a duck-typed outage gate (see
        #: :class:`repro.chaos.ServiceGate`).  ``None`` means always up.
        self.gate: Any = None
        self.tracer = obs.tracer
        m = obs.metrics
        self._m_submitted = m.counter("compute.tasks_submitted")
        self._m_succeeded = m.counter("compute.tasks_succeeded")
        self._m_failed = m.counter("compute.tasks_failed")
        self._m_duration = m.histogram("compute.task_duration_s")
        self.functions = FunctionRegistry()
        self._endpoints: dict[str, ComputeEndpoint] = {}
        self._tasks: dict[str, ComputeTask] = {}
        self._drives: dict[str, Process] = {}
        self._ids = itertools.count(1)

    # -- registry ---------------------------------------------------------------
    def register_endpoint(self, endpoint: ComputeEndpoint) -> None:
        if endpoint.name in self._endpoints:
            raise EndpointError(f"endpoint already registered: {endpoint.name!r}")
        self._endpoints[endpoint.name] = endpoint

    def endpoint(self, name: str) -> ComputeEndpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise EndpointError(f"unknown compute endpoint: {name!r}") from None

    def register_function(
        self,
        fn: Callable[..., Any],
        cost_model: CostModel,
        name: Optional[str] = None,
    ) -> str:
        """Register ``fn`` with its simulated cost model."""
        return self.functions.register(fn, cost_model, name)

    # -- client API ---------------------------------------------------------------
    def check_available(self) -> None:
        """Raise :class:`~repro.errors.ServiceUnavailable` when a chaos
        gate has the cloud API inside an outage window.  Tasks already
        routed to an endpoint keep executing — only the API is down."""
        if self.gate is not None:
            self.gate.check(self.env.now)

    def submit(
        self,
        token: Token,
        endpoint: str,
        function_id: str,
        *args: Any,
        **kwargs: Any,
    ) -> str:
        """Submit an invocation; returns a task id immediately."""
        self.check_available()
        identity = self.authorizer.authorize(token, self.env.now)
        ep = self.endpoint(endpoint)
        func = self.functions.get(function_id)  # raises if unknown
        task = ComputeTask(
            task_id=f"ctask-{next(self._ids):06d}",
            owner=identity.username,
            endpoint=endpoint,
            function_id=function_id,
            submitted_at=self.env.now,
        )
        self._tasks[task.task_id] = task
        # The task span opens at ``submitted_at`` and closes exactly at
        # ``completed_at`` so its duration equals the active time the
        # compute action provider reports for Fig. 4.
        self._m_submitted.inc()
        span = (
            self.tracer.start("compute.task")
            .set("action_id", task.task_id)
            .set("endpoint", endpoint)
            .set("function", function_id)
        )
        self._drives[task.task_id] = self.env.process(
            self._drive(task, ep, func, args, kwargs, span)
        )
        return task.task_id

    def task_record(self, task_id: str) -> ComputeTask:
        """The task record by id, which the compute provider and the
        stream launch poll for status and outcome."""
        self.check_available()
        try:
            return self._tasks[task_id]
        except KeyError:
            raise ComputeError(f"unknown task: {task_id!r}") from None

    def wait(self, task_id: str) -> Process:
        """The task's drive process, which ends with the task record at
        completion; the stream launch joins it alongside delivery."""
        try:
            return self._drives[task_id]
        except KeyError:
            raise ComputeError(f"unknown task: {task_id!r}") from None

    # -- internals -------------------------------------------------------------------
    def _drive(
        self,
        task: ComputeTask,
        ep: ComputeEndpoint,
        func,
        args: tuple,
        kwargs: dict,
        span: Any,
    ) -> Generator:
        # Cloud routing hop: service receives the task, ships it to the
        # endpoint's queue.
        try:
            rng = self.rngs.stream("compute.latency")
            yield self.env.timeout(
                lognormal_from_median(rng, self.api_latency_s, self.latency_sigma)
            )
            task.status = ComputeTaskStatus.RUNNING
            outcome: TaskOutcome = yield from ep.execute(func, args, kwargs, span=span)
            task.outcome = outcome
            task.completed_at = self.env.now
            task.status = (
                ComputeTaskStatus.SUCCESS if outcome.ok else ComputeTaskStatus.FAILED
            )
            span.set("status", task.status.value).set(
                "node_id", outcome.node_id
            ).set("cold_start", outcome.cold_start)
        finally:
            span.finish()
        if outcome.ok:
            self._m_succeeded.inc()
        else:
            self._m_failed.inc()
        self._m_duration.observe(task.completed_at - task.submitted_at)
        return task
