"""Tier-1 self-check for the chaos fault-injection subsystem.

Guards the three promises :mod:`repro.chaos` makes:

1. **Disabled chaos is free** — a campaign run with the default
   :data:`~repro.chaos.NO_CHAOS` plan is *bit-identical* to one run with
   no chaos argument at all: same event trace, same spans, same Table 1.
2. **Enabled chaos is deterministic** — the same scenario under the same
   seed produces an identical fault schedule, identical retry counts,
   identical dead-letter sets, and identical delivery breakdowns.
3. **No run hangs** — under the shipped outage scenario every flow run
   reaches a terminal state: delivered, degraded-and-caught-up, or
   dead-lettered, never silently ACTIVE.
"""

from __future__ import annotations

import itertools

import pytest

from repro.auth import AuthClient
from repro.auth.identity import FLOWS_SCOPE
from repro.chaos import (
    SCENARIOS,
    BitRotWindow,
    ChaosPlan,
    DataCorruptionSpec,
    LinkDegradation,
    NO_CHAOS,
    NodeFailureSpec,
    OutageWindow,
    ServiceGate,
    WatcherCrash,
    delivery_breakdown,
    run_chaos_campaign,
)
from repro.core import run_campaign
from repro.core.sanitize import campaign_trace
from repro.errors import ChaosError, FlowError, ServiceUnavailable
from repro.flows import (
    ActionState,
    ActionStatus,
    ExponentialBackoff,
    FlowDefinition,
    FlowState,
    FlowsService,
    RetryPolicy,
    RunStatus,
)
from repro.rng import RngRegistry
from repro.sim import Environment
from repro.transfer import FaultPlan


# -- plan validation -----------------------------------------------------------


def test_outage_window_validation():
    with pytest.raises(ChaosError):
        OutageWindow("globus", start_s=0, duration_s=10)  # unknown service
    with pytest.raises(ChaosError):
        OutageWindow("transfer", start_s=-1, duration_s=10)
    with pytest.raises(ChaosError):
        OutageWindow("transfer", start_s=0, duration_s=0)


def test_plan_rejects_overlapping_windows_per_service():
    with pytest.raises(ChaosError, match="overlap"):
        ChaosPlan(
            outages=(
                OutageWindow("transfer", start_s=0, duration_s=100),
                OutageWindow("transfer", start_s=50, duration_s=100),
            )
        )
    # same span on *different* services is fine
    ChaosPlan(
        outages=(
            OutageWindow("transfer", start_s=0, duration_s=100),
            OutageWindow("search", start_s=0, duration_s=100),
        )
    )


def test_degradation_validation():
    with pytest.raises(ChaosError):
        LinkDegradation("a", "b", start_s=0, duration_s=10, scale=1.5)
    with pytest.raises(ChaosError):
        LinkDegradation("a", "b", start_s=0, duration_s=10, scale=-0.1)
    LinkDegradation("a", "b", start_s=0, duration_s=10, scale=0.0)  # blackout ok


def test_node_failure_spec_draw_is_optional_and_bounded():
    spec = NodeFailureSpec(prob=1.0, min_frac=0.25, max_frac=0.75)
    rng = RngRegistry(0).stream("chaos.nodes")
    for _ in range(20):
        frac = spec.draw(rng)
        assert frac is not None and 0.25 <= frac <= 0.75
    none_spec = NodeFailureSpec(prob=0.0)
    state = rng.bit_generator.state["state"]["state"]
    assert none_spec.draw(rng) is None
    assert rng.bit_generator.state["state"]["state"] == state  # no draw made


def test_plan_enabled_flag():
    assert not NO_CHAOS.enabled
    # retry policies alone count: they change FlowsService configuration
    assert ChaosPlan(retry_policies=(("transfer", RetryPolicy()),)).enabled
    assert ChaosPlan(
        outages=(OutageWindow("transfer", start_s=0, duration_s=1),)
    ).enabled
    assert ChaosPlan(node_failures=NodeFailureSpec(prob=0.1)).enabled
    assert ChaosPlan(watcher_crashes=(WatcherCrash(at_s=1, down_s=1),)).enabled
    # transfer faults compare by value: a fresh inject-nothing FaultPlan
    # is as disabled as NO_FAULTS itself
    assert not ChaosPlan(transfer_faults=FaultPlan()).enabled
    assert ChaosPlan(transfer_faults=FaultPlan(transient_prob=0.1)).enabled
    assert not NO_CHAOS.corrupts
    assert SCENARIOS["corruption"].corrupts
    assert not SCENARIOS["full-storm"].corrupts


# -- gate unit -----------------------------------------------------------------


def test_service_gate_raises_only_inside_windows():
    gate = ServiceGate(
        "transfer",
        (OutageWindow("transfer", start_s=10, duration_s=5),),
        connect_timeout_s=7.5,
    )
    gate.check(9.9)  # before: fine
    with pytest.raises(ServiceUnavailable) as info:
        gate.check(10.0)
    assert info.value.connect_timeout_s == 7.5
    assert gate.rejections == 1
    gate.check(15.0)  # window is half-open: [start, end)
    assert gate.rejections == 1


# -- FlowsService retry machinery ----------------------------------------------


class FlakyProvider:
    """Raises ServiceUnavailable for the first ``down`` submissions,
    then completes each action ``duration`` sim-seconds after submit."""

    name = "mock"
    input_schema: dict = {}

    def __init__(self, env, down=1, duration=5.0, fail_forever=False):
        self.env = env
        self.down = down
        self.duration = duration
        self.fail_forever = fail_forever
        self.submissions = 0
        self._ids = itertools.count(1)
        self._start: dict[str, float] = {}

    def run(self, body):
        self.submissions += 1
        if self.fail_forever or self.submissions <= self.down:
            raise ServiceUnavailable("mock outage", connect_timeout_s=2.0)
        aid = f"mock-{next(self._ids)}"
        self._start[aid] = self.env.now
        return aid

    def status(self, action_id):
        if self.env.now - self._start[action_id] < self.duration:
            return ActionStatus(state=ActionState.ACTIVE)
        return ActionStatus(
            state=ActionState.SUCCEEDED, result={}, active_seconds=self.duration
        )


def _every(seconds):
    """Constant retry or poll spacing: the exponential policy with factor 1."""
    return ExponentialBackoff(initial=seconds, factor=1.0, max_interval=seconds)


def _flows(env, provider, policy):
    auth = AuthClient()
    alice = auth.register_identity("alice")
    token = auth.issue_token(alice, [FLOWS_SCOPE], now=0.0)
    svc = FlowsService(
        env,
        auth,
        RngRegistry(0),
        transition_latency_s=0.0,
        transition_sigma=0.0,
        poll_latency_s=0.0,
        backoff=_every(1.0),
        retry_policies={provider.name: policy},
    )
    svc.register_provider(provider)
    flow_id = svc.deploy(
        FlowDefinition(title="t", states=(FlowState("A", "mock"),))
    )
    return svc, token, flow_id


def test_retry_recovers_from_service_outage():
    env = Environment()
    provider = FlakyProvider(env, down=2)
    policy = RetryPolicy(max_attempts=3, backoff=_every(10.0))
    svc, token, flow_id = _flows(env, provider, policy)
    run = svc.run_flow(token, flow_id, {})
    env.run(until=run.completed)
    assert run.status is RunStatus.SUCCEEDED
    step = run.steps[0]
    assert step.attempts == 3
    assert [a.outcome for a in step.attempt_history] == [
        "unavailable", "unavailable", "succeeded",
    ]
    # two connect timeouts (2 s) + two retry waits (10 s) + action 5 s
    assert env.now >= 2 * 2.0 + 2 * 10.0 + 5.0
    assert svc.dead_letters == []


def test_critical_exhaustion_dead_letters_never_hangs():
    env = Environment()
    provider = FlakyProvider(env, fail_forever=True)
    policy = RetryPolicy(max_attempts=2, backoff=_every(5.0), critical=True)
    svc, token, flow_id = _flows(env, provider, policy)
    run = svc.run_flow(token, flow_id, {})
    env.run()
    assert run.status is RunStatus.FAILED  # terminal, not hung-ACTIVE
    assert run.error and "unavailable" in run.error
    assert len(svc.dead_letters) == 1
    dead = svc.dead_letters[0]
    assert dead.run_id == run.run_id
    assert len(dead.attempts) == 2
    assert all(a.outcome == "unavailable" for a in dead.attempts)


def test_noncritical_exhaustion_degrades_and_backlogs():
    env = Environment()
    provider = FlakyProvider(env, fail_forever=True)
    policy = RetryPolicy(max_attempts=2, backoff=_every(5.0), critical=False)
    svc, token, flow_id = _flows(env, provider, policy)
    run = svc.run_flow(token, flow_id, {})
    env.run(until=run.completed)
    assert run.status is RunStatus.SUCCEEDED  # the run survives
    assert run.degraded
    assert run.steps[0].degraded
    assert svc.dead_letters == []
    assert len(svc.backlog) == 1
    entry = svc.backlog[0]
    assert entry.run_id == run.run_id and not entry.recovered


def test_attempt_timeout_bounds_a_stuck_action():
    env = Environment()
    provider = FlakyProvider(env, down=0, duration=1e9)  # never finishes
    policy = RetryPolicy(
        max_attempts=1, backoff=_every(1.0), attempt_timeout_s=30.0
    )
    svc, token, flow_id = _flows(env, provider, policy)
    run = svc.run_flow(token, flow_id, {})
    env.run()
    assert run.status is RunStatus.FAILED
    assert len(svc.dead_letters) == 1
    assert svc.dead_letters[0].attempts[0].outcome == "timeout"
    assert env.now < 100.0  # the deadline fired, not the action


def test_default_policy_is_single_attempt():
    env = Environment()
    svc = FlowsService(env, AuthClient(), RngRegistry(0))
    policy = svc.retry_policy("anything")
    assert policy.max_attempts == 1
    assert policy.attempt_timeout_s is None
    assert policy.critical


# -- chaos-disabled bit-identity -----------------------------------------------


def test_no_chaos_campaign_is_bit_identical():
    base = run_campaign("hyperspectral", duration_s=400.0, seed=3, obs=True)
    spans = lambda r: [
        (s.name, s.start, s.end, tuple(sorted(s.attrs.items())))
        for s in r.testbed.obs.tracer.spans
    ]
    # NO_CHAOS itself, and an equal plan built afresh
    for plan in (NO_CHAOS, ChaosPlan(transfer_faults=FaultPlan())):
        off = run_campaign(
            "hyperspectral", duration_s=400.0, seed=3, obs=True, chaos=plan
        )
        assert off.chaos is None  # the controller is never even built
        assert campaign_trace(base) == campaign_trace(off)
        assert spans(base) == spans(off)
        assert base.table1() == off.table1()


# -- scenario determinism and the no-hung-runs guarantee -----------------------


def _fingerprint(result):
    flows = result.testbed.flows
    return {
        "injections": result.chaos.injections,
        "breakdown": delivery_breakdown(result),
        "dead_letters": [d.summary() for d in flows.dead_letters],
        "degraded": sorted(r.run_id for r in result.runs if r.degraded),
        "retries": sum(
            max(0, s.attempts - 1) for r in flows.runs for s in r.steps
        ),
        "backlog": [
            (e.run_id, e.state, e.recovered, e.caught_up_at) for e in flows.backlog
        ],
    }


@pytest.fixture(scope="module")
def outage_results():
    kw = dict(duration_s=1800.0, seed=5, chaos="outage")
    return run_campaign("hyperspectral", **kw), run_campaign("hyperspectral", **kw)


def test_outage_scenario_deterministic_under_seed(outage_results):
    a, b = outage_results
    assert _fingerprint(a) == _fingerprint(b)
    assert a.chaos.report() == b.chaos.report()


def test_outage_scenario_no_hung_runs(outage_results):
    result, _ = outage_results
    assert all(r.status.terminal for r in result.runs)
    breakdown = delivery_breakdown(result)
    assert breakdown["still_active"] == 0
    assert breakdown["runs"] > 0
    assert (
        breakdown["delivered"]
        + breakdown["degraded"]
        + breakdown["dead_lettered"]
        + breakdown["failed_other"]
    ) == breakdown["runs"]


def test_outage_scenario_actually_injects(outage_results):
    result, _ = outage_results
    report = result.chaos.report()
    kinds = {inj["kind"] for inj in report["injections"]}
    assert "outage_start" in kinds and "outage_end" in kinds
    assert sum(report["gate_rejections"].values()) > 0
    # every backlogged step either caught up or carries an error
    assert report["backlog_pending"] == 0


@pytest.mark.parametrize("ingest", ["file", "stream"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_drains_to_terminal_records(name, ingest):
    """The drain contract of ``run_campaign``: under every shipped
    scenario, in both ingest modes, no run or session is left ACTIVE and
    no quarantined record reached the search index."""
    res = run_campaign(
        "hyperspectral", chaos=name, ingest=ingest, duration_s=900.0, seed=1
    )
    assert res.chaos is not None
    assert all(r.status.terminal for r in res.runs)
    assert all(s.terminal for s in res.stream_sessions)
    assert res.runs or res.stream_sessions
    if res.ledger is not None:
        index = res.testbed.portal_index
        indexed = set(index.query(limit=len(index)).subjects())
        assert not {q.subject for q in res.ledger.quarantined} & indexed


def test_unknown_scenario_rejected():
    with pytest.raises(ChaosError, match="unknown scenario"):
        run_campaign("hyperspectral", chaos="nope", duration_s=10.0)
    with pytest.raises(ChaosError, match="unknown scenario"):
        run_chaos_campaign("nope", duration_s=10.0)


# -- fault targets the testbed lacks ------------------------------------------
# Unchecked, a misspelt filesystem disarms its fault silently (a clean run
# with the ledger armed) and a misspelt link fails mid-run; the plan must
# fail before the clock starts, naming what the testbed has.


def _run_with(plan):
    return run_campaign("hyperspectral", duration_s=600.0, seed=1, chaos=plan)


def test_bitrot_on_unknown_filesystem_fails_up_front():
    window = BitRotWindow(
        fs="picoprobe_user", start_s=0.0, duration_s=600.0, prob=1.0
    )
    plan = ChaosPlan(corruption=DataCorruptionSpec(bitrot=(window,)))
    with pytest.raises(ChaosError, match=r"\['picoprobe_user'\].*'picoprobe-user'"):
        _run_with(plan)


def test_meta_mismatch_on_unknown_filesystem_fails_up_front():
    spec = DataCorruptionSpec(meta_mismatch_prob=1.0, meta_mismatch_fs="nope")
    with pytest.raises(ChaosError, match=r"\['nope'\].*'eagle'"):
        _run_with(ChaosPlan(corruption=spec))


def test_degradation_of_unknown_link_fails_up_front():
    link = LinkDegradation("a", "b", start_s=100.0, duration_s=60.0, scale=0.5)
    with pytest.raises(
        ChaosError, match=r"\['a--b'\].*'picoprobe-user-machine--site-switch'"
    ):
        _run_with(ChaosPlan(degradations=(link,)))


# -- watcher crash mid-campaign ------------------------------------------------


def test_watcher_crash_no_duplicate_no_lost_dispatch():
    """Kill the observer mid-campaign and restart it from the app's
    CheckpointStore: every dataset the instrument produced is dispatched
    into exactly one flow — none doubled by the restart replay, none
    lost to the downtime window.  (File persistence of the store is
    ``tests/test_watcher.py::test_checkpoint_persists_across_restart``.)"""
    result = run_campaign(
        "hyperspectral", duration_s=1800.0, seed=7, chaos="watcher-crash"
    )

    crashes = [
        inj for inj in result.chaos.injections
        if inj["kind"] in ("watcher_crash", "watcher_restart")
    ]
    assert len(crashes) == 2  # the crash happened and the restart replayed

    produced = [
        f.path for f in result.observer.vfs.listdir(result.observer.prefix)
        if f.path.endswith(".emd")
    ]
    dispatched = sorted(r.input["source_path"] for r in result.runs)
    assert len(dispatched) == len(set(dispatched))  # no duplicates
    assert sorted(produced) == dispatched  # no losses
    # the replay hit the checkpoint for files dispatched before the crash
    assert result.app.skipped > 0
    assert all(r.status.terminal for r in result.runs)
