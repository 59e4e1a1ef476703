"""Tests for the flows substrate: backoff, definitions, executor, Gladier."""

from __future__ import annotations

import itertools

import pytest

from repro.auth import AuthClient
from repro.auth.identity import FLOWS_SCOPE
from repro.errors import FlowDefinitionError, FlowError
from repro.flows import (
    ActionState,
    ActionStatus,
    ExponentialBackoff,
    FlowDefinition,
    FlowState,
    FlowsService,
    GladierClient,
    GladierTool,
    PAPER_BACKOFF,
    RetryPolicy,
    RunStatus,
    resolve_template,
)
from repro.rng import RngRegistry
from repro.sim import Environment


# -- backoff -------------------------------------------------------------------


def test_paper_backoff_doubles_to_ten_minutes():
    it = PAPER_BACKOFF.intervals()
    seq = [next(it) for _ in range(12)]
    assert seq[:5] == [1, 2, 4, 8, 16]
    assert max(seq) == 600.0
    assert seq[-1] == 600.0  # capped


def test_backoff_validation():
    with pytest.raises(FlowError):
        ExponentialBackoff(initial=0)
    with pytest.raises(FlowError):
        ExponentialBackoff(factor=0.5)
    with pytest.raises(FlowError):
        ExponentialBackoff(initial=10, max_interval=5)
    # Non-finite values would poll at NaN or never again.
    nan, inf = float("nan"), float("inf")
    for bad in (
        dict(initial=nan),
        dict(factor=nan),
        dict(max_interval=nan),
        dict(max_interval=inf),
    ):
        with pytest.raises(FlowError, match="must be finite"):
            ExponentialBackoff(**bad)
    # The retry policy that spaces attempts with a backoff.
    for bad in (
        dict(max_attempts=0),
        dict(max_attempts=2.5),
        dict(attempt_timeout_s=0.0),
        dict(attempt_timeout_s=nan),
        dict(attempt_timeout_s=inf),
    ):
        with pytest.raises(FlowError):
            RetryPolicy(**bad)
    RetryPolicy(max_attempts=3, attempt_timeout_s=30.0)


def test_constant_backoff():
    """Constant polling is the one policy with factor 1."""
    it = ExponentialBackoff(initial=2.5, factor=1.0, max_interval=2.5).intervals()
    assert [next(it) for _ in range(3)] == [2.5, 2.5, 2.5]


def test_backoff_jitter_validation():
    with pytest.raises(FlowError):
        ExponentialBackoff(jitter=-0.1)
    with pytest.raises(FlowError):
        ExponentialBackoff(jitter=1.0)
    ExponentialBackoff(jitter=0.999)  # open upper bound


def test_jittered_backoff_requires_rng():
    policy = ExponentialBackoff(initial=1.0, jitter=0.5)
    with pytest.raises(FlowError):
        next(policy.intervals())


def test_jittered_backoff_deterministic_under_seed():
    policy = ExponentialBackoff(initial=1.0, factor=2.0, max_interval=64.0, jitter=0.5)

    def draw():
        rng = RngRegistry(seed=42).stream("flows.retry")
        it = policy.intervals(rng)
        return [next(it) for _ in range(10)]

    a, b = draw(), draw()
    assert a == b  # bit-identical under the same seed
    assert draw() != [
        next(policy.intervals(RngRegistry(seed=43).stream("flows.retry")))
        for _ in range(10)
    ]


def test_jittered_backoff_stays_within_spread():
    policy = ExponentialBackoff(initial=2.0, factor=2.0, max_interval=600.0, jitter=0.25)
    rng = RngRegistry(seed=0).stream("flows.retry")
    base = ExponentialBackoff(initial=2.0, factor=2.0, max_interval=600.0)
    base_it, jit_it = base.intervals(), policy.intervals(rng)
    for _ in range(12):
        nominal, jittered = next(base_it), next(jit_it)
        assert nominal * 0.75 <= jittered <= nominal * 1.25


def test_zero_jitter_is_bit_identical_and_touches_no_rng():
    plain = ExponentialBackoff(initial=1.0, factor=2.0, max_interval=600.0)
    zero = ExponentialBackoff(initial=1.0, factor=2.0, max_interval=600.0, jitter=0.0)
    rng = RngRegistry(seed=7).stream("flows.retry")
    before = rng.bit_generator.state["state"]["state"]
    plain_it, zero_it = plain.intervals(), zero.intervals(rng)
    assert [next(plain_it) for _ in range(12)] == [next(zero_it) for _ in range(12)]
    # the RNG stream was handed over but never drawn from
    assert rng.bit_generator.state["state"]["state"] == before


# -- templates -------------------------------------------------------------------


def test_resolve_template_paths():
    ctx = {"input": {"path": "/a.emd"}, "states": {"T": {"dest": "/b.emd"}}}
    assert resolve_template("$.input.path", ctx) == "/a.emd"
    assert resolve_template("$.states.T.dest", ctx) == "/b.emd"
    assert resolve_template({"x": "$.input.path", "y": 5}, ctx) == {"x": "/a.emd", "y": 5}
    assert resolve_template(["$.input.path", "lit"], ctx) == ["/a.emd", "lit"]
    assert resolve_template("literal", ctx) == "literal"


def test_resolve_template_missing_path():
    with pytest.raises(FlowDefinitionError):
        resolve_template("$.input.nope", {"input": {}})


# -- definitions -------------------------------------------------------------------


def linear_def(n=3):
    states = tuple(FlowState(name=f"S{i}", provider="mock") for i in range(n))
    return FlowDefinition(title="t", states=states)


def test_definition_valid_linear():
    d = linear_def()
    assert [s.name for s in d.states] == ["S0", "S1", "S2"]


def test_definition_rejects_empty():
    with pytest.raises(FlowDefinitionError, match="no states"):
        FlowDefinition(title="t", states=())


def test_definition_rejects_duplicates():
    with pytest.raises(FlowDefinitionError, match="duplicate"):
        FlowDefinition(title="t", states=(FlowState("a", "p"), FlowState("a", "p")))


# -- executor with a mock provider ------------------------------------------------------


class MockProvider:
    """Completes each action a fixed duration after submission."""

    name = "mock"

    def __init__(self, env, duration=5.0, fail=False):
        self.env = env
        self.duration = duration
        self.fail = fail
        self._ids = itertools.count(1)
        self._start: dict[str, float] = {}
        self.bodies: list[dict] = []

    def run(self, body):
        self.bodies.append(body)
        aid = f"mock-{next(self._ids)}"
        self._start[aid] = self.env.now
        return aid

    def status(self, action_id):
        elapsed = self.env.now - self._start[action_id]
        if elapsed < self.duration:
            return ActionStatus(state=ActionState.ACTIVE)
        if self.fail:
            return ActionStatus(
                state=ActionState.FAILED, error="mock exploded", active_seconds=self.duration
            )
        return ActionStatus(
            state=ActionState.SUCCEEDED,
            result={"mock": True},
            active_seconds=self.duration,
        )


def make_flows(env, duration=5.0, fail=False, transition=0.0, poll=0.0, backoff=PAPER_BACKOFF):
    auth = AuthClient()
    alice = auth.register_identity("alice")
    token = auth.issue_token(alice, [FLOWS_SCOPE], now=0.0)
    svc = FlowsService(
        env,
        auth,
        RngRegistry(0),
        transition_latency_s=transition,
        transition_sigma=0.0,
        poll_latency_s=poll,
        backoff=backoff,
    )
    provider = MockProvider(env, duration=duration, fail=fail)
    svc.register_provider(provider)
    return svc, token, provider


def test_flow_run_succeeds_and_records_steps():
    env = Environment()
    svc, token, provider = make_flows(env, duration=5.0)
    flow_id = svc.deploy(linear_def(2))
    run = svc.run_flow(token, flow_id, {"x": 1})
    env.run(until=run.completed)
    assert run.status is RunStatus.SUCCEEDED
    assert len(run.steps) == 2
    for step in run.steps:
        assert step.active_seconds == 5.0
        assert step.polls >= 1
        assert step.result == {"mock": True}


def test_polling_detection_overhead():
    """A 5 s action under 1,2,4,... backoff is detected at poll t=7 →
    2 s of detection overhead per step."""
    env = Environment()
    svc, token, provider = make_flows(env, duration=5.0)
    flow_id = svc.deploy(linear_def(1))
    run = svc.run_flow(token, flow_id, {})
    env.run(until=run.completed)
    step = run.steps[0]
    assert step.polls == 3  # polls at 1, 3, 7
    assert step.observed_seconds == pytest.approx(7.0)
    assert step.overhead_seconds == pytest.approx(2.0)
    assert run.runtime_seconds == pytest.approx(7.0)
    assert run.overhead_seconds == pytest.approx(2.0)


def test_transition_latency_counts_as_overhead():
    env = Environment()
    svc, token, provider = make_flows(env, duration=5.0, transition=2.0)
    flow_id = svc.deploy(linear_def(2))
    run = svc.run_flow(token, flow_id, {})
    env.run(until=run.completed)
    # 3 transitions x 2 s + 2 steps x 2 s detection lag = 10 s overhead
    assert run.active_seconds == pytest.approx(10.0)
    assert run.overhead_seconds == pytest.approx(10.0)
    assert run.overhead_fraction == pytest.approx(0.5)


def test_flow_failure_recorded():
    env = Environment()
    svc, token, provider = make_flows(env, duration=3.0, fail=True)
    flow_id = svc.deploy(linear_def(2))
    run = svc.run_flow(token, flow_id, {})
    env.run(until=run.completed)
    assert run.status is RunStatus.FAILED
    assert "mock exploded" in run.error
    assert len(run.steps) == 1  # stopped at the failing step
    assert run.steps[0].error == "mock exploded"


def test_template_threading_between_states():
    env = Environment()
    svc, token, provider = make_flows(env, duration=1.0)
    states = (
        FlowState("A", "mock", parameters={"path": "$.input.path"}),
        FlowState("B", "mock", parameters={"prev_ok": "$.states.A.mock"}),
    )
    d = FlowDefinition(title="t", states=states)
    run = svc.run_flow(token, svc.deploy(d), {"path": "/x.emd"})
    env.run(until=run.completed)
    assert provider.bodies[0] == {"path": "/x.emd"}
    assert provider.bodies[1] == {"prev_ok": True}


def test_parallel_runs_interleave():
    env = Environment()
    svc, token, provider = make_flows(env, duration=5.0)
    flow_id = svc.deploy(linear_def(1))
    r1 = svc.run_flow(token, flow_id, {})
    r2 = svc.run_flow(token, flow_id, {})
    env.run()
    assert r1.status is RunStatus.SUCCEEDED
    assert r2.status is RunStatus.SUCCEEDED
    # Both ran concurrently: wall clock is one flow's runtime, not two.
    assert env.now == pytest.approx(7.0)


def test_unknown_provider_rejected_at_deploy():
    env = Environment()
    svc, token, provider = make_flows(env)
    bad = FlowDefinition(title="t", states=(FlowState("a", "ghost"),))
    with pytest.raises(FlowError, match="unknown action provider"):
        svc.deploy(bad)


def test_unknown_flow_and_run_ids():
    env = Environment()
    svc, token, provider = make_flows(env)
    with pytest.raises(FlowError):
        svc.run_flow(token, "flow-404", {})


def test_duplicate_provider_rejected():
    env = Environment()
    svc, token, provider = make_flows(env)
    with pytest.raises(FlowError, match="already registered"):
        svc.register_provider(MockProvider(env))


def test_constant_backoff_reduces_overhead():
    env1 = Environment()
    svc1, token1, _ = make_flows(env1, duration=50.0)
    r1 = svc1.run_flow(token1, svc1.deploy(linear_def(1)), {})
    env1.run(until=r1.completed)

    env2 = Environment()
    constant = ExponentialBackoff(initial=1.0, factor=1.0, max_interval=1.0)
    svc2, token2, _ = make_flows(env2, duration=50.0, backoff=constant)
    r2 = svc2.run_flow(token2, svc2.deploy(linear_def(1)), {})
    env2.run(until=r2.completed)

    assert r2.overhead_seconds < r1.overhead_seconds


# -- gladier ---------------------------------------------------------------------


def test_gladier_compose_chains_tools():
    env = Environment()
    svc, token, provider = make_flows(env, duration=1.0)
    t1 = GladierTool("transfer", (FlowState("Transfer", "mock"),))
    t2 = GladierTool(
        "analyze", (FlowState("Analyze", "mock"), FlowState("Publish", "mock"))
    )
    client = GladierClient(svc, token)
    d = client.compose("pipeline", [t1, t2])
    assert d.states == t1.states + t2.states
    run = client.run_flow(d, {})
    env.run(until=run.completed)
    assert run.status is RunStatus.SUCCEEDED
    assert [step.name for step in run.steps] == ["Transfer", "Analyze", "Publish"]


def test_gladier_deploy_memoized():
    env = Environment()
    svc, token, provider = make_flows(env, duration=1.0)
    client = GladierClient(svc, token)
    d = client.compose("pipeline", [GladierTool("t", (FlowState("A", "mock"),))])
    id1 = client.deploy(d)
    id2 = client.deploy(d)
    assert id1 == id2


def test_gladier_rejects_empty_and_duplicates():
    env = Environment()
    svc, token, provider = make_flows(env)
    client = GladierClient(svc, token)
    with pytest.raises(FlowDefinitionError):
        client.compose("x", [])
    with pytest.raises(FlowDefinitionError):
        GladierTool("empty", ())
    dup = GladierTool("d", (FlowState("Same", "mock"),))
    with pytest.raises(FlowDefinitionError, match="duplicate"):
        client.compose("x", [dup, dup])


# -- executor lifecycle bugfixes ----------------------------------------------


class ExplodingProvider:
    """Raises a non-FlowError from run() — a programming error, not an
    action failure."""

    name = "mock"

    def run(self, body):
        raise ValueError("provider blew up")

    def status(self, action_id):  # pragma: no cover - never reached
        raise AssertionError("status() must not be called")


def test_non_flow_error_still_terminates_the_run():
    """A ValueError escaping a provider used to leave the run ACTIVE
    forever while its completed event fired; it must be marked FAILED
    (with the error recorded), and the original exception must still
    escape the kernel so the bug stays loud."""
    env = Environment()
    auth = AuthClient()
    alice = auth.register_identity("alice")
    token = auth.issue_token(alice, [FLOWS_SCOPE], now=0.0)
    svc = FlowsService(env, auth, RngRegistry(0), transition_latency_s=0.0)
    svc.register_provider(ExplodingProvider())
    run = svc.run_flow(token, svc.deploy(linear_def(1)), {})

    witnessed = []

    def waiter():
        result = yield run.completed
        witnessed.append(result.status)

    env.process(waiter())
    with pytest.raises(ValueError, match="provider blew up"):
        env.run()
    assert run.status is RunStatus.FAILED
    assert run.error == "ValueError: provider blew up"
    assert run.finished_at is not None
    # The waiter saw a *terminal* run, not an ACTIVE one.
    assert witnessed == [RunStatus.FAILED]


def test_flow_error_does_not_escape_the_kernel():
    """Action failures are expected outcomes: FAILED run, no exception."""
    env = Environment()
    svc, token, provider = make_flows(env, duration=1.0, fail=True)
    run = svc.run_flow(token, svc.deploy(linear_def(1)), {})
    env.run(until=run.completed)
    assert run.status is RunStatus.FAILED
    assert "mock exploded" in run.error


# -- in-flight runtime -------------------------------------------------------


def test_in_flight_runtime_reads_the_sim_clock():
    """runtime_seconds of an ACTIVE run used to fall back to
    ``started_at`` arithmetic and report 0.0; it must report the elapsed
    runtime so far."""
    env = Environment()
    svc, token, provider = make_flows(env, duration=50.0)
    run = svc.run_flow(token, svc.deploy(linear_def(1)), {})
    env.run(until=20.0)
    assert run.status is RunStatus.ACTIVE
    assert run.runtime_seconds == pytest.approx(20.0)
    assert run.overhead_seconds == pytest.approx(20.0)  # no active time yet

    env.run(until=run.completed)
    assert run.status is RunStatus.SUCCEEDED
    assert run.runtime_seconds == pytest.approx(run.finished_at - run.started_at)


def test_clockless_run_record_still_reports_zero():
    """Hand-built records (no completed event) cannot see a clock."""
    from repro.flows import FlowRun

    run = FlowRun(run_id="r", flow_title="t", input={}, started_at=5.0)
    assert run.runtime_seconds == 0.0
    assert run.overhead_fraction == 0.0
