"""The flows service: deploys definitions and executes runs.

This is the Globus Flows / Gladier execution model (Sec. 2.2): a cloud
run steps through a flow's action states in order; on each state it
submits the action to its provider, then **polls** for completion under
the exponential-backoff policy.  Every state transition costs a service
round-trip (``transition_latency_s``), and each poll costs a small API
latency — together these produce the orchestration overhead the paper
measures at 49.2% / 21.1% of median runtime.

Runs execute concurrently ("Globus services allow parallel flow
execution that enables us to start new flows even when previous ones
are still running", Sec. 3.3).

Reliability (Globus Flows "manages the reliable execution of each
step"): each provider may carry a :class:`~repro.flows.retry.RetryPolicy`
— bounded re-submission with seeded-jitter backoff, a per-attempt
sim-time timeout whose deadline timer is withdrawn with
``Environment.cancel`` on normal completion, dead-letter records for
runs that exhaust retries on a critical state, and graceful degradation
(skip + catch-up backlog) for non-critical ones.  With no policies
configured the executor is bit-identical to the retry-free one: no
extra events, no RNG draws, no extra spans.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Iterator, Optional

from ..auth import ScopeAuthorizer, Token
from ..auth.identity import FLOWS_SCOPE, AuthClient
from ..errors import ActionTimeout, FlowError, ServiceUnavailable
from ..obs import NULL_OBS
from ..obs.tracer import NULL_SPAN
from ..rng import RngRegistry, lognormal_from_median
from ..sim import Environment
from .action import ActionProvider, ActionState, ActionStatus
from .backoff import PAPER_BACKOFF, ExponentialBackoff
from .definition import FlowDefinition
from .retry import (
    AttemptRecord,
    BacklogEntry,
    DEFAULT_RETRY_POLICY,
    DeadLetter,
    RetryPolicy,
)
from .run import FlowRun, RunStatus, StepRecord

__all__ = ["FlowsService"]


class FlowsService:
    """Deploy + run flows against registered action providers.

    Parameters
    ----------
    env:
        Simulation environment.
    auth:
        Identity provider (runs require the flows scope).
    transition_latency_s / transition_sigma:
        Median cloud round-trip per state transition (enter state,
        resolve parameters, submit action) and per flow start/finish.
    poll_latency_s:
        API round-trip added to each poll.
    backoff:
        Polling policy (defaults to the paper's 1 s → 10 min doubling).
    retry_policies:
        Optional ``{provider name: RetryPolicy}``; providers without an
        entry get the no-retry :data:`DEFAULT_RETRY_POLICY`.
    """

    def __init__(
        self,
        env: Environment,
        auth: AuthClient,
        rngs: Optional[RngRegistry] = None,
        transition_latency_s: float = 1.5,
        transition_sigma: float = 0.35,
        poll_latency_s: float = 0.15,
        backoff: ExponentialBackoff = PAPER_BACKOFF,
        retry_policies: "dict[str, RetryPolicy] | None" = None,
        obs: Any = NULL_OBS,
    ) -> None:
        self.env = env
        self.authorizer = ScopeAuthorizer(auth, FLOWS_SCOPE)
        self.rngs = rngs or RngRegistry(seed=0)
        self.transition_latency_s = float(transition_latency_s)
        self.transition_sigma = float(transition_sigma)
        self.poll_latency_s = float(poll_latency_s)
        self.backoff = backoff
        self.retry_policies: dict[str, RetryPolicy] = dict(retry_policies or {})
        self.tracer = obs.tracer
        m = self._metrics = obs.metrics
        self._m_started = m.counter("flows.runs_started")
        self._m_succeeded = m.counter("flows.runs_succeeded")
        self._m_failed = m.counter("flows.runs_failed")
        self._m_polls = m.counter("flows.polls")
        self._m_transitions = m.counter("flows.transitions")
        self._m_runtime = m.histogram("flows.runtime_s")
        self._m_active_runs = m.gauge("flows.active_runs")
        # Retries, degraded steps and dead letters are counted where they
        # fire, so a clean campaign's export carries none of them.
        self._providers: dict[str, ActionProvider] = {}
        self._definitions: dict[str, FlowDefinition] = {}
        self._runs: dict[str, FlowRun] = {}
        self._flow_ids = itertools.count(1)
        self._run_ids = itertools.count(1)
        #: Dead-letter records for runs that exhausted critical retries.
        self.dead_letters: list[DeadLetter] = []
        #: Catch-up queue of degraded (skipped) non-critical actions.
        self.backlog: list[BacklogEntry] = []

    # -- registry ----------------------------------------------------------
    def register_provider(self, provider: ActionProvider) -> None:
        if provider.name in self._providers:
            raise FlowError(f"provider already registered: {provider.name!r}")
        self._providers[provider.name] = provider

    def provider(self, name: str) -> ActionProvider:
        try:
            return self._providers[name]
        except KeyError:
            raise FlowError(f"unknown action provider: {name!r}") from None

    def retry_policy(self, provider_name: str) -> RetryPolicy:
        """The retry policy in force for ``provider_name``."""
        return self.retry_policies.get(provider_name, DEFAULT_RETRY_POLICY)

    def deploy(self, definition: FlowDefinition) -> str:
        """Validate provider references and register the flow."""
        for state in definition.states:
            self.provider(state.provider)  # raises if missing
        flow_id = f"flow-{next(self._flow_ids):03d}"
        self._definitions[flow_id] = definition
        return flow_id

    def definition(self, flow_id: str) -> FlowDefinition:
        try:
            return self._definitions[flow_id]
        except KeyError:
            raise FlowError(f"unknown flow id: {flow_id!r}") from None

    # -- execution ------------------------------------------------------------
    def run_flow(self, token: Token, flow_id: str, input: dict[str, Any]) -> FlowRun:
        """Start a run; returns immediately with an ACTIVE FlowRun."""
        self.authorizer.authorize(token, self.env.now)
        definition = self.definition(flow_id)
        run = FlowRun(
            run_id=f"run-{next(self._run_ids):06d}",
            flow_title=definition.title,
            input=dict(input),
            started_at=self.env.now,
            completed=self.env.event(),
        )
        self.env.touch(self._runs, "w", label="flows.runs")
        self._runs[run.run_id] = run
        self._m_started.inc()
        self._m_active_runs.add(1)
        run_span = (
            self.tracer.start("flow.run")
            .set("run_id", run.run_id)
            .set("flow", definition.title)
        )
        self.env.process(self._execute(definition, run, run_span))
        return run

    @property
    def runs(self) -> list[FlowRun]:
        return sorted(self._runs.values(), key=lambda r: r.run_id)

    # -- internals ---------------------------------------------------------------
    def _transition(self) -> Generator:
        rng = self.rngs.stream("flows.latency")
        delay = lognormal_from_median(
            rng, self.transition_latency_s, self.transition_sigma
        )
        if delay > 0:
            yield self.env.timeout(delay)

    def _attempt(
        self,
        provider: ActionProvider,
        body: dict[str, Any],
        step: StepRecord,
        step_span: Any,
        policy: RetryPolicy,
    ) -> Generator:
        """Drive one submission attempt to a terminal :class:`ActionStatus`.

        Raises :class:`ServiceUnavailable` when the provider's service is
        in an outage window, and :class:`ActionTimeout` when the policy's
        per-attempt sim-time budget runs out.  The deadline timer (when
        configured) is withdrawn via :meth:`Environment.cancel` on every
        exit path so abandoned attempts never leak queue entries.
        """
        deadline = (
            self.env.timeout(policy.attempt_timeout_s)
            if policy.attempt_timeout_s is not None
            else None
        )
        try:
            step.action_id = provider.run(body)
            step.submitted_at = self.env.now
            step_span.set("action_id", step.action_id)
            for interval in self.backoff.intervals():
                poll_span = self.tracer.start("flow.poll", step_span)
                try:
                    wait = self.env.timeout(interval + self.poll_latency_s)
                    if deadline is None:
                        yield wait
                    else:
                        yield self.env.any_of([wait, deadline])
                        if deadline.processed and not wait.processed:
                            self.env.cancel(wait)
                            poll_span.set("state", "TIMEOUT")
                            raise ActionTimeout(
                                f"action {step.action_id} exceeded its "
                                f"{policy.attempt_timeout_s}s attempt budget"
                            )
                    step.polls += 1
                    self._m_polls.inc()
                    try:
                        status = provider.status(step.action_id)
                    except ServiceUnavailable:
                        poll_span.set("state", "UNAVAILABLE")
                        raise
                    poll_span.set("state", status.state.value)
                    if status.state.terminal:
                        return status
                finally:
                    poll_span.finish()
        finally:
            if deadline is not None and not deadline.processed:
                self.env.cancel(deadline)

    def _retry_intervals(self, policy: RetryPolicy) -> Iterator[float]:
        """Backoff intervals between attempts; jitter draws come from the
        dedicated ``flows.retry`` stream (touched only on retries)."""
        rng = (
            self.rngs.stream("flows.retry")
            if getattr(policy.backoff, "jitter", 0.0)
            else None
        )
        return policy.backoff.intervals(rng)

    def _drive_state(
        self,
        state: Any,
        provider: ActionProvider,
        body: dict[str, Any],
        run: FlowRun,
        step: StepRecord,
        step_span: Any,
    ) -> Generator:
        """Run one flow state under its provider's retry policy.

        Returns the terminal :class:`ActionStatus` on success, or
        ``None`` when the state was *degraded* (skipped + backlogged).
        Raises :class:`FlowError` when the run must fail.
        """
        policy = self.retry_policy(state.provider)
        retry_waits: Optional[Iterator[float]] = None
        last_status: Optional[ActionStatus] = None
        while True:
            attempt = AttemptRecord(
                number=len(step.attempt_history) + 1, started_at=self.env.now
            )
            step.attempt_history.append(attempt)
            failure: Optional[str] = None
            try:
                status: ActionStatus = yield from self._attempt(
                    provider, body, step, step_span, policy
                )
            except ServiceUnavailable as exc:
                attempt.outcome = "unavailable"
                attempt.error = str(exc)
                failure = f"service unavailable: {exc}"
                # The client hangs for the connect timeout before the
                # error surfaces — charge that wait in sim time.
                if exc.connect_timeout_s > 0:
                    yield self.env.timeout(exc.connect_timeout_s)
            except ActionTimeout as exc:
                attempt.outcome = "timeout"
                attempt.error = str(exc)
                failure = str(exc)
            else:
                if status.state is ActionState.FAILED:
                    last_status = status
                    attempt.outcome = "failed"
                    attempt.error = status.error
                    failure = status.error or "action failed"
                else:
                    attempt.outcome = "succeeded"
                    attempt.ended_at = self.env.now
                    return status
            attempt.ended_at = self.env.now

            if len(step.attempt_history) < policy.max_attempts:
                self._metrics.counter("flows.retries").inc()
                retry_span = (
                    self.tracer.start("flow.retry", step_span)
                    .set("attempt", attempt.number)
                    .set("error", attempt.error or "")
                )
                try:
                    if retry_waits is None:
                        retry_waits = self._retry_intervals(policy)
                    delay = next(retry_waits)
                    if delay > 0:
                        yield self.env.timeout(delay)
                finally:
                    retry_span.finish()
                continue

            # Exhausted.  Non-critical states degrade; critical ones
            # dead-letter and fail the run.
            if not policy.critical:
                self._metrics.counter("flows.degraded_steps").inc()
                step.degraded = True
                step.error = failure
                run.degraded = True
                self.env.touch(self.backlog, "w", label="flows.backlog")
                self.backlog.append(
                    BacklogEntry(
                        run_id=run.run_id,
                        state=state.name,
                        provider=state.provider,
                        body=dict(body),
                        enqueued_at=self.env.now,
                    )
                )
                step_span.set("degraded", True)
                return None
            self._metrics.counter("flows.dead_letters").inc()
            self.dead_letters.append(
                DeadLetter(
                    run_id=run.run_id,
                    flow_title=run.flow_title,
                    state=state.name,
                    provider=state.provider,
                    attempts=list(step.attempt_history),
                    error=failure or "unknown failure",
                    recorded_at=self.env.now,
                )
            )
            # Same terminal bookkeeping the success path gets, so a
            # failed step's span and StepRecord still agree on timing.
            step.detected_at = self.env.now
            if last_status is not None:
                step.active_seconds = last_status.active_seconds
            step.error = failure
            step_span.set("polls", step.polls)
            step_span.set("active_s", step.active_seconds)
            step_span.set("status", "FAILED").finish()
            raise FlowError(f"state {state.name!r} failed: {failure}")

    def _execute(
        self, definition: FlowDefinition, run: FlowRun, run_span: Any
    ) -> Generator:
        context: dict[str, Any] = {"input": run.input, "states": {}}
        step_span = NULL_SPAN
        try:
            for state in definition.states:
                step = StepRecord(
                    name=state.name, provider=state.provider, entered_at=self.env.now
                )
                run.steps.append(step)
                step_span = (
                    self.tracer.start("flow.step", run_span)
                    .set("state", state.name)
                    .set("provider", state.provider)
                )
                # Cloud transition: enter state, resolve, submit.
                t_span = self.tracer.start("flow.transition", step_span)
                try:
                    yield from self._transition()
                finally:
                    t_span.finish()
                self._m_transitions.inc()
                provider = self.provider(state.provider)
                body = state.resolve(context)

                status = yield from self._drive_state(
                    state, provider, body, run, step, step_span
                )
                step.detected_at = self.env.now
                step_span.set("polls", step.polls)
                if status is None:
                    # Degraded: the state was skipped and backlogged.
                    step.result = {}
                    step_span.set("active_s", 0.0)
                    step_span.set("status", "DEGRADED").finish()
                    step_span = NULL_SPAN
                    self.env.touch(run, "w", label=f"flows.{run.run_id}.states")
                    context["states"][state.name] = {}
                    continue
                step.active_seconds = status.active_seconds
                step_span.set("active_s", status.active_seconds)
                step.result = status.result
                step_span.set("status", "SUCCEEDED").finish()
                step_span = NULL_SPAN
                self.env.touch(run, "w", label=f"flows.{run.run_id}.states")
                context["states"][state.name] = status.result

            # Final transition: mark the run complete in the cloud.
            t_span = self.tracer.start("flow.transition", run_span)
            try:
                yield from self._transition()
            finally:
                t_span.finish()
            self._m_transitions.inc()
            run.status = RunStatus.SUCCEEDED
        except FlowError as exc:
            run.status = RunStatus.FAILED
            run.error = str(exc)
        except Exception as exc:
            # A non-FlowError escaping a provider or template resolution
            # used to leave the run terminally ACTIVE while `completed`
            # fired — waiters observed a "completed" run in a
            # non-terminal state.  Record the failure, then re-raise so
            # the kernel still surfaces the programming error loudly.
            run.status = RunStatus.FAILED
            run.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            # Close any step span left open by an abnormal exit.
            if not step_span.ended:
                step_span.set("status", run.status.value).finish()
            run.finished_at = self.env.now
            run_span.set("status", run.status.value)
            if run.degraded:
                run_span.set("degraded", True)
            run_span.finish()
            self._m_active_runs.add(-1)
            if run.status is RunStatus.SUCCEEDED:
                self._m_succeeded.inc()
            else:
                self._m_failed.inc()
            self._m_runtime.observe(run.finished_at - run.started_at)
            if run.completed is not None:
                run.completed.succeed(run)
