"""Property-based tests for the flow executor's timing invariants."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.auth import AuthClient
from repro.auth.identity import FLOWS_SCOPE
from repro.flows import (
    ActionState,
    ActionStatus,
    ExponentialBackoff,
    FlowDefinition,
    FlowState,
    FlowsService,
    RunStatus,
)
from repro.rng import RngRegistry
from repro.sim import Environment


class TimedProvider:
    """Completes action k after its assigned duration."""

    name = "timed"

    def __init__(self, env, durations):
        self.env = env
        self.durations = list(durations)
        self._ids = itertools.count(0)
        self._start = {}

    def run(self, body):
        k = next(self._ids)
        self._start[k] = (self.env.now, self.durations[k % len(self.durations)])
        return str(k)

    def status(self, action_id):
        start, duration = self._start[int(action_id)]
        # A poll that lands on the completion instant can read ``now`` a
        # few ulps early: poll k's time is a chain of k rounded sums, not
        # ``start + duration``.  Use the same 1e-9 slack as the asserted
        # properties so such a poll counts as done.
        if self.env.now < start + duration - 1e-9:
            return ActionStatus(state=ActionState.ACTIVE)
        return ActionStatus(
            state=ActionState.SUCCEEDED, result={}, active_seconds=duration
        )


def run_flow_with(durations, backoff=None, transition=0.0, poll=0.0):
    env = Environment()
    auth = AuthClient()
    alice = auth.register_identity("a")
    token = auth.issue_token(alice, [FLOWS_SCOPE], now=0.0)
    svc = FlowsService(
        env,
        auth,
        RngRegistry(0),
        transition_latency_s=transition,
        transition_sigma=0.0,
        poll_latency_s=poll,
        backoff=backoff or ExponentialBackoff(),
    )
    svc.register_provider(TimedProvider(env, durations))
    states = tuple(
        FlowState(name=f"S{i}", provider="timed") for i in range(len(durations))
    )
    d = FlowDefinition(title="t", states=states)
    run = svc.run_flow(token, svc.deploy(d), {})
    env.run(until=run.completed)
    return run


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=500), min_size=1, max_size=5),
)
def test_timing_invariants(durations):
    """For any step durations: runtime ≥ active; overhead ≥ 0; each
    step's detection never precedes its completion; backoff detection lag
    is bounded by the last poll interval."""
    run = run_flow_with(durations)
    assert run.status is RunStatus.SUCCEEDED
    assert run.runtime_seconds >= run.active_seconds - 1e-9
    assert run.overhead_seconds >= 0
    assert run.active_seconds == pytest.approx(sum(durations))
    for step, d in zip(run.steps, durations):
        observed = step.observed_seconds
        assert observed >= d - 1e-9
        # Detection happens at the first poll >= completion; with 1,2,4…
        # polling the lag is less than the total observed time itself and
        # bounded by the next poll gap.
        assert step.polls >= 1
        assert step.overhead_seconds <= observed


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.1, max_value=300))
def test_detection_at_poll_boundaries(duration):
    """With zero latencies the terminal poll time is exactly the first
    cumulative backoff point at or after the action duration."""
    run = run_flow_with([duration])
    # cumulative poll times: 1, 3, 7, 15, ...
    t, cum = 1.0, 1.0
    points = []
    for _ in range(40):
        points.append(cum)
        t = min(t * 2, 600.0)
        cum += t
    expected = next(p for p in points if p >= duration - 1e-9)
    assert run.steps[0].observed_seconds == pytest.approx(expected)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.floats(min_value=0.5, max_value=60), min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=5.0),
)
# Completion exactly on the first and on the third cumulative poll.
@example([1.0], 0.644)
@example([7.0], 0.503037601080481)
def test_transition_latency_additivity(durations, transition):
    """Total runtime grows by exactly (n_states + 1) * transition when a
    deterministic transition latency is added."""
    base = run_flow_with(durations, transition=0.0)
    with_t = run_flow_with(durations, transition=transition)
    expected_extra = (len(durations) + 1) * transition
    assert with_t.runtime_seconds - base.runtime_seconds == pytest.approx(
        expected_extra, abs=1e-6
    )
