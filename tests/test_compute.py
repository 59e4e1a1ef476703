"""Tests for the compute service, endpoint agent, and batch scheduler."""

from __future__ import annotations

import pytest

from repro.auth import AuthClient
from repro.auth.identity import COMPUTE_SCOPE, TRANSFER_SCOPE
from repro.compute import (
    BatchScheduler,
    ComputeEndpoint,
    ComputeService,
    ComputeTaskStatus,
)
from repro.errors import (
    ComputeError,
    EndpointError,
    FunctionNotRegistered,
    PermissionDenied,
    SchedulerError,
)
from repro.rng import RngRegistry
from repro.sim import Environment
from tests.cost_models import constant_cost


def make_world(
    n_nodes=2,
    queue_median=10.0,
    boot_median=20.0,
    env_cache=30.0,
    idle_timeout=300.0,
):
    env = Environment()
    auth = AuthClient()
    alice = auth.register_identity("alice")
    token = auth.issue_token(alice, [COMPUTE_SCOPE], now=0.0)
    rngs = RngRegistry(0)
    sched = BatchScheduler(
        env,
        n_nodes=n_nodes,
        queue_median_s=queue_median,
        queue_sigma=0.0,
        boot_median_s=boot_median,
        boot_sigma=0.0,
        rngs=rngs,
    )
    ep = ComputeEndpoint(
        env,
        "polaris",
        sched,
        env_cache_median_s=env_cache,
        env_cache_sigma=0.0,
        idle_timeout_s=idle_timeout,
        rngs=rngs,
    )
    service = ComputeService(env, auth, rngs, api_latency_s=0.0, latency_sigma=0.0)
    service.register_endpoint(ep)
    return env, service, token, ep, sched, auth, alice


def test_task_runs_function_and_returns_result():
    env, service, token, *_ = make_world()
    fid = service.register_function(lambda x: x * 2, constant_cost(5.0))
    tid = service.submit(token, "polaris", fid, 21)
    env.run(until=service.wait(tid))
    task = service.task_record(tid)
    assert task.status is ComputeTaskStatus.SUCCESS
    assert task.outcome.result == 42
    # queue 10 + boot 20 + env cache 30 + cost 5
    assert env.now == pytest.approx(65.0)


def test_cold_then_warm_node_reuse():
    env, service, token, ep, sched, *_ = make_world()
    fid = service.register_function(lambda: "ok", constant_cost(5.0))

    def run(env):
        t1 = service.submit(token, "polaris", fid)
        yield service.wait(t1)
        first_done = env.now
        t2 = service.submit(token, "polaris", fid)
        yield service.wait(t2)
        second_done = env.now
        results.append((first_done, second_done, t1, t2))

    results = []
    env.process(run(env))
    env.run()
    first_done, second_done, t1, t2 = results[0]
    assert first_done == pytest.approx(65.0)  # cold: 10+20+30+5
    assert second_done - first_done == pytest.approx(5.0)  # warm: just 5
    assert service.task_record(t1).outcome.cold_start is True
    assert service.task_record(t2).outcome.cold_start is False
    assert service.task_record(t1).outcome.node_id == service.task_record(t2).outcome.node_id
    assert sched.provision_count == 1


def test_idle_timeout_releases_node():
    env, service, token, ep, sched, *_ = make_world(idle_timeout=100.0)
    fid = service.register_function(lambda: None, constant_cost(1.0))

    def run(env):
        t1 = service.submit(token, "polaris", fid)
        yield service.wait(t1)
        yield env.timeout(150.0)  # exceed idle timeout
        t2 = service.submit(token, "polaris", fid)
        yield service.wait(t2)
        results.append(service.task_record(t2).outcome.cold_start)

    results = []
    env.process(run(env))
    env.run()
    assert results == [True]
    assert sched.release_count == 2  # both nodes eventually reaped
    assert sched.busy_nodes == 0


def test_reuse_before_idle_timeout_keeps_node():
    env, service, token, ep, sched, *_ = make_world(idle_timeout=100.0)
    fid = service.register_function(lambda: None, constant_cost(1.0))

    def run(env):
        t1 = service.submit(token, "polaris", fid)
        yield service.wait(t1)
        yield env.timeout(50.0)  # reuse within the idle window
        t2 = service.submit(token, "polaris", fid)
        yield service.wait(t2)
        results.append(service.task_record(t2).outcome.cold_start)

    results = []
    env.process(run(env))
    env.run()
    assert results == [False]
    assert sched.provision_count == 1


def test_parallel_tasks_share_pool_fcfs():
    env, service, token, ep, sched, *_ = make_world(n_nodes=1, queue_median=0, boot_median=0, env_cache=0)
    fid = service.register_function(lambda: None, constant_cost(10.0))
    t1 = service.submit(token, "polaris", fid)
    t2 = service.submit(token, "polaris", fid)
    env.run()
    o1 = service.task_record(t1).outcome
    o2 = service.task_record(t2).outcome
    # Single warm pool slot: second task starts when the first finishes.
    assert o1.finished_at == pytest.approx(10.0)
    assert o2.finished_at == pytest.approx(20.0)
    assert o2.cold_start is False  # reused the parked node


def test_function_error_reported_not_raised():
    env, service, token, *_ = make_world()

    def boom():
        raise RuntimeError("analysis exploded")

    fid = service.register_function(boom, constant_cost(1.0))
    tid = service.submit(token, "polaris", fid)
    env.run()
    task = service.task_record(tid)
    assert task.status is ComputeTaskStatus.FAILED
    assert "analysis exploded" in task.outcome.error


def test_unknown_function_rejected_at_submit():
    env, service, token, *_ = make_world()
    with pytest.raises(FunctionNotRegistered):
        service.submit(token, "polaris", "func-9999")


def test_unknown_endpoint_rejected():
    env, service, token, *_ = make_world()
    fid = service.register_function(lambda: None, constant_cost(0.0))
    with pytest.raises(EndpointError):
        service.submit(token, "theta", fid)


def test_wrong_scope_rejected():
    env, service, token, ep, sched, auth, alice = make_world()
    bad = auth.issue_token(alice, [TRANSFER_SCOPE], now=0.0)
    fid = service.register_function(lambda: None, constant_cost(0.0))
    with pytest.raises(PermissionDenied):
        service.submit(bad, "polaris", fid)


def test_unknown_task_poll():
    env, service, token, *_ = make_world()
    with pytest.raises(ComputeError):
        service.task_record("ctask-404")


def test_cost_model_receives_arguments():
    env, service, token, *_ = make_world(queue_median=0, boot_median=0, env_cache=0)

    def cost(args, kwargs):
        return args[0] * 2.0  # 2 s per unit of work

    fid = service.register_function(lambda n: n, cost)
    tid = service.submit(token, "polaris", fid, 7)
    env.run(until=service.wait(tid))
    assert env.now == pytest.approx(14.0)


def test_negative_cost_model_rejected():
    env, service, token, *_ = make_world(queue_median=0, boot_median=0, env_cache=0)
    fid = service.register_function(lambda: None, lambda a, k: -1.0)
    tid = service.submit(token, "polaris", fid)
    with pytest.raises(ValueError):
        env.run()


def test_scheduler_validation():
    env = Environment()
    with pytest.raises(SchedulerError):
        BatchScheduler(env, n_nodes=0)
    with pytest.raises(SchedulerError):
        BatchScheduler(env, queue_median_s=-1)
    for field in ("queue_median_s", "queue_sigma", "boot_median_s", "boot_sigma"):
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(SchedulerError, match=f"{field} must be finite"):
                BatchScheduler(env, **{field: bad})


def test_endpoint_durations_must_be_finite_and_non_negative():
    env = Environment()
    sched = BatchScheduler(env)
    for field in ("env_cache_median_s", "env_cache_sigma", "idle_timeout_s"):
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ComputeError, match=f"{field} must be finite"):
                ComputeEndpoint(env, "polaris", sched, **{field: bad})
    assert ComputeEndpoint(env, "polaris", sched).name == "polaris"


def test_double_release_rejected():
    env = Environment()
    sched = BatchScheduler(env, n_nodes=1, queue_median_s=0, boot_median_s=0)

    def run(env):
        node = yield from sched.provision()
        sched.release(node)
        with pytest.raises(SchedulerError):
            sched.release(node)

    env.process(run(env))
    env.run()


def test_endpoint_observability_counters():
    env, service, token, ep, sched, *_ = make_world()
    fid = service.register_function(lambda: None, constant_cost(1.0))

    def run(env):
        for _ in range(3):
            tid = service.submit(token, "polaris", fid)
            yield service.wait(tid)

    env.process(run(env))
    env.run()
    assert ep.tasks_executed == 3
    assert ep.cold_starts == 1
    assert ep.warm_nodes <= 1
