"""Property/regression tests: span ↔ StepRecord timing consistency.

Across seeds (and including a run that fails mid-flow), the span tree
must reproduce the executor's StepRecord accounting: per-step
``overhead = observed - active``, per-run runtime equal to the root
span's duration, and critical-path tiles summing exactly to runtime.
Fault-path instruments enter the metrics export only once they fire.
"""

from __future__ import annotations

import itertools

import pytest

from repro.auth import AuthClient
from repro.auth.identity import FLOWS_SCOPE
from repro.flows import (
    ActionState,
    ActionStatus,
    FlowDefinition,
    FlowState,
    FlowsService,
    RunStatus,
)
from repro.core import run_campaign
from repro.obs import Observability, critical_path, derive_runs
from repro.rng import RngRegistry
from repro.sim import Environment

TOL = 1e-6


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_step_overhead_identity_across_seeds(seed):
    res = run_campaign("hyperspectral", duration_s=1200.0, seed=seed, obs=True)
    traces = {r.run_id: r for r in derive_runs(res.testbed.obs.tracer.spans)}
    checked = 0
    for record in res.completed_runs:
        trace = traces[record.run_id]
        assert len(trace.steps) == len(record.steps)
        for srec, strace in zip(record.steps, trace.steps):
            assert strace.name == srec.name
            assert strace.action_id == srec.action_id
            assert strace.polls == srec.polls
            # The span window is [entered_at, detected_at].
            assert strace.start == pytest.approx(srec.entered_at, abs=TOL)
            assert strace.end == pytest.approx(srec.detected_at, abs=TOL)
            # Identity: overhead == observed - active, from spans alone.
            assert strace.active_seconds == pytest.approx(
                srec.active_seconds, abs=TOL
            )
            assert strace.overhead_seconds == pytest.approx(
                srec.overhead_seconds, abs=TOL
            )
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("seed", [1, 5])
def test_critical_path_tiles_every_run_exactly(seed):
    res = run_campaign("hyperspectral", duration_s=1200.0, seed=seed, obs=True)
    runs = derive_runs(res.testbed.obs.tracer.spans)
    assert runs
    for run in runs:
        segs = critical_path(run)
        assert sum(s.duration for s in segs) == pytest.approx(
            run.runtime_seconds, abs=TOL
        )
        # Tiles are contiguous and ordered.
        for a, b in zip(segs, segs[1:]):
            assert b.start >= a.end - TOL


# -- failing mid-flow run -----------------------------------------------------


class FlakyProvider:
    """Succeeds the first action, fails every later one after 2 s."""

    name = "mock"

    def __init__(self, env):
        self.env = env
        self._ids = itertools.count(1)
        self._start = {}

    def run(self, body):
        aid = f"mock-{next(self._ids)}"
        self._start[aid] = self.env.now
        return aid

    def status(self, action_id):
        if self.env.now - self._start[action_id] < 2.0:
            return ActionStatus(state=ActionState.ACTIVE)
        if action_id == "mock-1":
            return ActionStatus(
                state=ActionState.SUCCEEDED, result={}, active_seconds=2.0
            )
        return ActionStatus(
            state=ActionState.FAILED, error="boom", active_seconds=2.0
        )


def test_failed_run_trace_matches_records():
    env = Environment()
    obs = Observability(env)
    auth = AuthClient()
    alice = auth.register_identity("alice")
    token = auth.issue_token(alice, [FLOWS_SCOPE], now=0.0)
    svc = FlowsService(
        env,
        auth,
        RngRegistry(0),
        transition_latency_s=1.0,
        transition_sigma=0.0,
        poll_latency_s=0.0,
        obs=obs,
    )
    svc.register_provider(FlakyProvider(env))
    definition = FlowDefinition(
        title="two-step",
        states=(
            FlowState(name="A", provider="mock"),
            FlowState(name="B", provider="mock"),
        ),
    )
    run = svc.run_flow(token, svc.deploy(definition), {})
    env.run(until=run.completed)
    assert run.status is RunStatus.FAILED

    (trace,) = derive_runs(obs.tracer.spans)
    assert trace.status == "FAILED"
    assert trace.runtime_seconds == pytest.approx(run.runtime_seconds, abs=TOL)
    assert len(trace.steps) == 2
    assert trace.steps[0].status == "SUCCEEDED"
    assert trace.steps[1].status == "FAILED"
    # The failed step's span still matches its StepRecord accounting.
    for srec, strace in zip(run.steps, trace.steps):
        assert strace.active_seconds == pytest.approx(srec.active_seconds, abs=TOL)
        assert strace.overhead_seconds == pytest.approx(
            srec.overhead_seconds, abs=TOL
        )
    # Failed runs are excluded from Fig. 4 but still tile cleanly.
    segs = critical_path(trace)
    assert sum(s.duration for s in segs) == pytest.approx(
        trace.runtime_seconds, abs=TOL
    )


# -- fault-path instruments -------------------------------------------------

#: Instruments a service fetches from the registry only where a fault
#: fires (retries, chaos injections, integrity events, stream repairs).
FAULT_INSTRUMENTS = frozenset({
    "flows.retries",
    "flows.degraded_steps",
    "flows.dead_letters",
    "endpoint.alcf-polaris.node_failures",
    "chaos.corruptions",
    "chaos.outages",
    "chaos.degradations",
    "chaos.watcher_crashes",
    "chaos.recovery_latency_s",
    "net.streams_aborted",
    "integrity.detections",
    "integrity.repairs",
    "integrity.quarantined",
    "stream.renegotiations",
    "stream.retransmits",
    "stream.naks",
})

_STORM = {
    "chaos.degradations",
    "chaos.outages",
    "chaos.watcher_crashes",
    "endpoint.alcf-polaris.node_failures",
}


@pytest.mark.parametrize(
    "ingest, scenario, fired",
    [
        ("file", None, set()),
        ("file", "full-storm", _STORM),
        (
            "file",
            "corruption",
            {
                "chaos.corruptions",
                "flows.dead_letters",
                "flows.retries",
                "integrity.detections",
                "integrity.quarantined",
            },
        ),
        ("stream", None, set()),
        ("stream", "full-storm", _STORM),
        (
            "stream",
            "corruption",
            {
                "chaos.corruptions",
                "integrity.detections",
                "integrity.quarantined",
                "integrity.repairs",
                "stream.naks",
                "stream.retransmits",
            },
        ),
    ],
)
def test_fault_instruments_enter_the_export_when_they_fire(ingest, scenario, fired):
    chaos = {} if scenario is None else {"chaos": scenario}
    res = run_campaign(
        "hyperspectral", duration_s=900.0, seed=1, obs=True, ingest=ingest, **chaos
    )
    exported = {
        inst.name: inst
        for inst in res.testbed.obs.metrics.instruments()
        if inst.name in FAULT_INSTRUMENTS
    }
    assert set(exported) == fired
    for inst in exported.values():
        # Registered where it fires, so never exported at zero.
        assert (inst.count if inst.kind == "histogram" else inst.value) > 0
