"""Tests for the transfer service (endpoints, tasks, faults, checksums)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.auth import AccessPolicy, AuthClient
from repro.auth.identity import TRANSFER_SCOPE
from repro.errors import EndpointError, PermissionDenied, TransferError
from repro.net import NetworkFabric, Topology
from repro.rng import RngRegistry
from repro.sim import Environment
from repro.storage import VirtualFS
from repro.transfer import (
    FaultPlan,
    TaskStatus,
    TransferEndpoint,
    TransferService,
)
from repro.units import MB, Gbps


@pytest.fixture
def world():
    """A minimal two-endpoint world with an authenticated user."""
    env = Environment()
    topo = Topology()
    topo.add_node("user-machine")
    topo.add_node("eagle-dtn")
    topo.add_link("user-machine", "eagle-dtn", Gbps(1), latency_s=0.001)
    fabric = NetworkFabric(env, topo)
    auth = AuthClient()
    alice = auth.register_identity("alice")
    token = auth.issue_token(alice, [TRANSFER_SCOPE], now=0.0)

    src_fs = VirtualFS("picoprobe")
    dst_fs = VirtualFS("eagle")
    src_ep = TransferEndpoint(
        name="picoprobe-user",
        host="user-machine",
        vfs=src_fs,
        policy=AccessPolicy().allow_write(alice),
    )
    dst_ep = TransferEndpoint(
        name="alcf-eagle",
        host="eagle-dtn",
        vfs=dst_fs,
        policy=AccessPolicy().allow_write(alice),
    )
    service = TransferService(env, fabric, auth, RngRegistry(1), latency_sigma=0.0)
    service.register_endpoint(src_ep)
    service.register_endpoint(dst_ep)
    return env, service, token, src_fs, dst_fs, auth, alice


def test_successful_transfer_moves_file(world):
    env, service, token, src_fs, dst_fs, *_ = world
    f = src_fs.create("/transfer/a.emd", MB(125), created_at=0)
    tid = service.submit(token, "picoprobe-user", "/transfer/a.emd", "alcf-eagle", "/data/a.emd")
    env.run()
    task = service.task_record(tid)
    assert task.status is TaskStatus.SUCCEEDED
    assert dst_fs.exists("/data/a.emd")
    assert dst_fs.stat("/data/a.emd").checksum == f.checksum
    # ~1 s at 1 Gbps + API latency + checksum time
    assert 1.0 < env.now < 2.5


def test_task_snapshot_pollable(world):
    env, service, token, src_fs, *_ = world
    src_fs.create("/transfer/a.emd", MB(10), created_at=0)
    tid = service.submit(token, "picoprobe-user", "/transfer/a.emd", "alcf-eagle", "/d/a.emd")
    task = service.task_record(tid)
    assert task.status in (TaskStatus.QUEUED, TaskStatus.ACTIVE)
    env.run()
    assert task.status is TaskStatus.SUCCEEDED
    assert task.nbytes == MB(10)


def test_missing_source_rejected_at_submit(world):
    env, service, token, *_ = world
    with pytest.raises(EndpointError, match="does not exist"):
        service.submit(token, "picoprobe-user", "/nope.emd", "alcf-eagle", "/d/a.emd")


def test_unknown_endpoint_rejected(world):
    env, service, token, src_fs, *_ = world
    src_fs.create("/transfer/a.emd", 1, created_at=0)
    with pytest.raises(EndpointError, match="unknown endpoint"):
        service.submit(token, "mystery", "/transfer/a.emd", "alcf-eagle", "/d/a.emd")


def test_acl_denies_unauthorized_writer(world):
    env, service, token, src_fs, dst_fs, auth, alice = world
    bob = auth.register_identity("bob")
    bob_token = auth.issue_token(bob, [TRANSFER_SCOPE], now=0.0)
    src_fs.create("/transfer/a.emd", 1, created_at=0)
    with pytest.raises(PermissionDenied):
        service.submit(bob_token, "picoprobe-user", "/transfer/a.emd", "alcf-eagle", "/d/a.emd")


def test_wrong_scope_rejected(world):
    env, service, token, src_fs, dst_fs, auth, alice = world
    from repro.auth.identity import COMPUTE_SCOPE

    bad = auth.issue_token(alice, [COMPUTE_SCOPE], now=0.0)
    src_fs.create("/transfer/a.emd", 1, created_at=0)
    with pytest.raises(PermissionDenied):
        service.submit(bad, "picoprobe-user", "/transfer/a.emd", "alcf-eagle", "/d/a.emd")


def test_unknown_task_poll_raises(world):
    env, service, token, *_ = world
    with pytest.raises(TransferError):
        service.task_record("xfer-999999")


def test_duplicate_endpoint_registration(world):
    env, service, *_ = world
    with pytest.raises(EndpointError, match="already registered"):
        service.register_endpoint(
            TransferEndpoint(name="alcf-eagle", host="eagle-dtn", vfs=VirtualFS("x"))
        )


def test_endpoint_efficiency_slows_transfer(world):
    env, service, token, src_fs, dst_fs, auth, alice = world
    slow = TransferEndpoint(
        name="slow-dest",
        host="eagle-dtn",
        vfs=dst_fs,
        policy=AccessPolicy().allow_write(alice),
        efficiency=0.1,
    )
    service.register_endpoint(slow)
    src_fs.create("/transfer/a.emd", MB(125), created_at=0)
    tid = service.submit(token, "picoprobe-user", "/transfer/a.emd", "slow-dest", "/d/a.emd")
    env.run()
    assert service.task_record(tid).status is TaskStatus.SUCCEEDED
    # 125 MB at 10% of 1 Gbps ≈ 10 s.
    assert 9.5 < env.now < 12.0


def test_endpoint_validation():
    with pytest.raises(ValueError):
        TransferEndpoint(name="x", host="h", vfs=VirtualFS("v"), efficiency=0)
    with pytest.raises(ValueError):
        TransferEndpoint(name="x", host="h", vfs=VirtualFS("v"), startup_latency_s=-1)


def test_transient_fault_retries_and_succeeds():
    env = Environment()
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", Gbps(1))
    fabric = NetworkFabric(env, topo)
    auth = AuthClient()
    alice = auth.register_identity("alice")
    token = auth.issue_token(alice, [TRANSFER_SCOPE], now=0.0)
    src_fs, dst_fs = VirtualFS("s"), VirtualFS("d")
    service = TransferService(
        env,
        fabric,
        auth,
        RngRegistry(4),
        latency_sigma=0.0,
        fault_plan=FaultPlan(transient_prob=0.5, max_attempts=10),
    )
    service.register_endpoint(
        TransferEndpoint(name="s", host="a", vfs=src_fs, policy=AccessPolicy().allow_write(alice))
    )
    service.register_endpoint(
        TransferEndpoint(name="d", host="b", vfs=dst_fs, policy=AccessPolicy().allow_write(alice))
    )
    src_fs.create("/f", MB(125), created_at=0)

    # Run several transfers; with p=0.5 at least one retries, all succeed.
    tids = [
        service.submit(token, "s", "/f", "d", f"/out{i}")
        for i in range(6)
    ]
    env.run()
    tasks = [service.task_record(t) for t in tids]
    assert all(t.status is TaskStatus.SUCCEEDED for t in tasks)
    assert any(t.attempts > 1 for t in tasks)
    assert all(dst_fs.exists(f"/out{i}") for i in range(6))


def test_permanent_failure_after_max_attempts():
    env = Environment()
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", Gbps(1))
    fabric = NetworkFabric(env, topo)
    auth = AuthClient()
    alice = auth.register_identity("alice")
    token = auth.issue_token(alice, [TRANSFER_SCOPE], now=0.0)
    src_fs, dst_fs = VirtualFS("s"), VirtualFS("d")
    service = TransferService(
        env,
        fabric,
        auth,
        RngRegistry(0),
        latency_sigma=0.0,
        fault_plan=FaultPlan(transient_prob=1.0, max_attempts=3),
    )
    service.register_endpoint(
        TransferEndpoint(name="s", host="a", vfs=src_fs, policy=AccessPolicy().allow_write(alice))
    )
    service.register_endpoint(
        TransferEndpoint(name="d", host="b", vfs=dst_fs, policy=AccessPolicy().allow_write(alice))
    )
    src_fs.create("/f", MB(10), created_at=0)
    tid = service.submit(token, "s", "/f", "d", "/out")
    env.run()
    task = service.task_record(tid)
    assert task.status is TaskStatus.FAILED
    assert task.attempts == 3
    assert "transient" in task.error
    assert not dst_fs.exists("/out")


def test_corruption_retransmits():
    env = Environment()
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", Gbps(1))
    fabric = NetworkFabric(env, topo)
    auth = AuthClient()
    alice = auth.register_identity("alice")
    token = auth.issue_token(alice, [TRANSFER_SCOPE], now=0.0)
    src_fs, dst_fs = VirtualFS("s"), VirtualFS("d")

    class OneCorruptionPlan(FaultPlan):
        """Corrupt exactly the first attempt."""

        def __init__(self):
            super().__init__(corrupt_prob=0.0, max_attempts=4)
            object.__setattr__(self, "_fired", [False])

        def draw(self, rng):
            if not self._fired[0]:
                self._fired[0] = True
                return "corrupt"
            return None

    service = TransferService(
        env, fabric, auth, RngRegistry(0), latency_sigma=0.0, fault_plan=OneCorruptionPlan()
    )
    service.register_endpoint(
        TransferEndpoint(name="s", host="a", vfs=src_fs, policy=AccessPolicy().allow_write(alice))
    )
    service.register_endpoint(
        TransferEndpoint(name="d", host="b", vfs=dst_fs, policy=AccessPolicy().allow_write(alice))
    )
    src_fs.create("/f", MB(125), created_at=0)
    tid = service.submit(token, "s", "/f", "d", "/out")
    env.run()
    task = service.task_record(tid)
    assert task.status is TaskStatus.SUCCEEDED
    assert task.attempts == 2
    assert "checksum mismatch" in task.faults[0]
    # Two full transmissions ≈ 2 s + checksums.
    assert env.now > 2.0


def test_fault_plan_validation():
    with pytest.raises(TransferError):
        FaultPlan(transient_prob=1.5)
    with pytest.raises(TransferError):
        FaultPlan(max_attempts=0)


def test_fault_plan_rejects_probability_sum_above_one():
    """Each prob alone is valid, but the single-uniform draw partitions
    [0, 1) — a sum above 1 would silently truncate the corrupt region
    instead of modelling what the caller asked for."""
    with pytest.raises(TransferError, match="must not exceed 1"):
        FaultPlan(transient_prob=0.7, corrupt_prob=0.5)
    # The boundary itself is legal: corruption fills the remainder.
    plan = FaultPlan(transient_prob=0.6, corrupt_prob=0.4)
    assert plan.transient_prob + plan.corrupt_prob == 1.0


def test_parallel_transfers_contend_for_switch(world):
    """Two simultaneous 125 MB transfers through the shared 1 Gbps link
    take ~2x a single one — the Sec. 3.3 contention effect."""
    env, service, token, src_fs, dst_fs, *_ = world
    src_fs.create("/a", MB(125), created_at=0)
    src_fs.create("/b", MB(125), created_at=0)
    t1 = service.submit(token, "picoprobe-user", "/a", "alcf-eagle", "/d/a")
    t2 = service.submit(token, "picoprobe-user", "/b", "alcf-eagle", "/d/b")
    env.run()
    d1 = service.task_record(t1).duration
    d2 = service.task_record(t2).duration
    assert d1 > 1.8 and d2 > 1.8

def _faulty_world(fault_plan):
    """A two-host world with a metered fabric for byte accounting."""
    from repro.obs import Observability

    env = Environment()
    obs = Observability(env)
    metrics = obs.metrics
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", Gbps(1))
    fabric = NetworkFabric(env, topo, obs=obs)
    auth = AuthClient()
    alice = auth.register_identity("alice")
    token = auth.issue_token(alice, [TRANSFER_SCOPE], now=0.0)
    src_fs, dst_fs = VirtualFS("s"), VirtualFS("d")
    service = TransferService(
        env, fabric, auth, RngRegistry(0), latency_sigma=0.0, fault_plan=fault_plan
    )
    service.register_endpoint(
        TransferEndpoint(name="s", host="a", vfs=src_fs, policy=AccessPolicy().allow_write(alice))
    )
    service.register_endpoint(
        TransferEndpoint(name="d", host="b", vfs=dst_fs, policy=AccessPolicy().allow_write(alice))
    )
    return env, service, token, src_fs, metrics


def test_retry_bytes_counted_once_per_wire_traversal():
    """Regression: a retransmitted file must hit ``net.bytes_delivered``
    exactly once per wire traversal — no double counting of the retry,
    no crediting the partial transient attempt with the full size."""

    class ScriptedPlan(FaultPlan):
        """Corrupt attempt 1, then clean."""

        def __init__(self):
            super().__init__(max_attempts=4)
            object.__setattr__(self, "_calls", [0])

        def draw(self, rng):
            self._calls[0] += 1
            return "corrupt" if self._calls[0] == 1 else None

    nbytes = MB(125)

    # Baseline: a clean transfer crosses the wire exactly once.
    env, service, token, src_fs, metrics = _faulty_world(FaultPlan())
    src_fs.create("/f", nbytes, created_at=0)
    service.submit(token, "s", "/f", "d", "/out")
    env.run()
    assert metrics.counter("net.bytes_delivered").value == pytest.approx(nbytes)

    # One corrupt attempt: the file crosses the wire exactly twice.
    env, service, token, src_fs, metrics = _faulty_world(ScriptedPlan())
    src_fs.create("/f", nbytes, created_at=0)
    tid = service.submit(token, "s", "/f", "d", "/out")
    env.run()
    task = service.task_record(tid)
    assert task.status is TaskStatus.SUCCEEDED
    assert task.attempts == 2
    assert metrics.counter("net.bytes_delivered").value == pytest.approx(2 * nbytes)
    # The fault ledger matches the attempt count: every non-final
    # attempt left exactly one fault record.
    assert len(task.faults) == task.attempts - 1


def test_transient_retry_partial_bytes_accounting():
    """A transient fault burns only the partial fraction on the wire;
    delivered bytes land strictly between one and two full traversals."""

    class OneTransientPlan(FaultPlan):
        def __init__(self):
            super().__init__(max_attempts=4)
            object.__setattr__(self, "_calls", [0])

        def draw(self, rng):
            self._calls[0] += 1
            return "transient" if self._calls[0] == 1 else None

    nbytes = MB(125)
    env, service, token, src_fs, metrics = _faulty_world(OneTransientPlan())
    src_fs.create("/f", nbytes, created_at=0)
    tid = service.submit(token, "s", "/f", "d", "/out")
    env.run()
    task = service.task_record(tid)
    assert task.status is TaskStatus.SUCCEEDED
    assert task.attempts == 2
    assert len(task.faults) == 1 and "transient" in task.faults[0]
    assert metrics.counter("net.streams_started").value == 2  # partial + full
    delivered = metrics.counter("net.bytes_delivered").value
    # partial fraction is drawn from [0.05, 0.9] — never free, never full
    assert nbytes * 1.05 <= delivered <= nbytes * 1.9


def test_source_deleted_before_execution_fails_task(world):
    """Regression: a source vanishing between submission and execution
    start used to kill the execute process, leaving the task stuck
    ACTIVE for every poller."""
    env, service, token, src_fs, dst_fs, *_ = world
    src_fs.create("/transfer/gone.emd", MB(10), created_at=0)
    tid = service.submit(
        token, "picoprobe-user", "/transfer/gone.emd", "alcf-eagle", "/data/gone.emd"
    )
    src_fs.delete("/transfer/gone.emd")  # vanishes before execution starts
    env.run()
    task = service.task_record(tid)
    assert task.status is TaskStatus.FAILED
    assert task.completed_at is not None
    assert "disappeared" in task.error
    assert not dst_fs.exists("/data/gone.emd")
