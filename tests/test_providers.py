"""Direct unit tests for the flow action providers."""

from __future__ import annotations

import pytest

from repro.auth import AccessPolicy, AuthClient
from repro.auth.identity import (
    COMPUTE_SCOPE,
    SEARCH_INGEST_SCOPE,
    TRANSFER_SCOPE,
)
from repro.compute import BatchScheduler, ComputeEndpoint, ComputeService
from repro.errors import FlowError
from repro.flows import (
    ActionState,
    ComputeActionProvider,
    SearchIngestActionProvider,
    TransferActionProvider,
)
from repro.net import NetworkFabric, Topology
from repro.rng import RngRegistry
from repro.search import SearchService, make_record
from repro.sim import Environment
from repro.storage import VirtualFS
from repro.transfer import TransferEndpoint, TransferService
from repro.units import Gbps, MB
from tests.cost_models import constant_cost


@pytest.fixture
def world():
    env = Environment()
    auth = AuthClient()
    alice = auth.register_identity("alice")
    token = auth.issue_token(
        alice, [TRANSFER_SCOPE, COMPUTE_SCOPE, SEARCH_INGEST_SCOPE], now=0.0
    )
    return env, auth, alice, token


def test_transfer_provider_lifecycle(world):
    env, auth, alice, token = world
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", Gbps(1))
    fabric = NetworkFabric(env, topo)
    svc = TransferService(env, fabric, auth, RngRegistry(0), latency_sigma=0.0)
    src, dst = VirtualFS("s"), VirtualFS("d")
    svc.register_endpoint(
        TransferEndpoint(name="s", host="a", vfs=src, policy=AccessPolicy().allow_write(alice))
    )
    svc.register_endpoint(
        TransferEndpoint(name="d", host="b", vfs=dst, policy=AccessPolicy().allow_write(alice))
    )
    src.create("/f", MB(125), created_at=0)

    provider = TransferActionProvider(svc, token)
    aid = provider.run(
        {
            "source_endpoint": "s",
            "source_path": "/f",
            "dest_endpoint": "d",
            "dest_path": "/out",
        }
    )
    assert provider.status(aid).state is ActionState.ACTIVE
    env.run()
    st = provider.status(aid)
    assert st.state is ActionState.SUCCEEDED
    assert st.result["bytes"] == MB(125)
    assert st.result["dest_path"] == "/out"
    assert st.active_seconds > 0.9


def test_compute_provider_reports_failure(world):
    env, auth, alice, token = world
    sched = BatchScheduler(env, n_nodes=1, queue_median_s=0, boot_median_s=0, rngs=RngRegistry(0))
    ep = ComputeEndpoint(env, "p", sched, env_cache_median_s=0, rngs=RngRegistry(0))
    svc = ComputeService(env, auth, RngRegistry(0), api_latency_s=0.0, latency_sigma=0.0)
    svc.register_endpoint(ep)

    def boom():
        raise ValueError("bad cube")

    fid = svc.register_function(boom, constant_cost(1.0))
    provider = ComputeActionProvider(svc, token)
    aid = provider.run({"endpoint": "p", "function_id": fid})
    env.run()
    st = provider.status(aid)
    assert st.state is ActionState.FAILED
    assert "bad cube" in st.error


def test_compute_provider_passes_args_kwargs(world):
    env, auth, alice, token = world
    sched = BatchScheduler(env, n_nodes=1, queue_median_s=0, boot_median_s=0, rngs=RngRegistry(0))
    ep = ComputeEndpoint(env, "p", sched, env_cache_median_s=0, rngs=RngRegistry(0))
    svc = ComputeService(env, auth, RngRegistry(0), api_latency_s=0.0, latency_sigma=0.0)
    svc.register_endpoint(ep)
    fid = svc.register_function(lambda a, b=0: a + b, constant_cost(0.0))
    provider = ComputeActionProvider(svc, token)
    aid = provider.run({"endpoint": "p", "function_id": fid, "args": [2], "kwargs": {"b": 40}})
    env.run()
    assert provider.status(aid).result["output"] == 42


def test_search_provider_ingest_and_unknown_action(world):
    env, auth, alice, token = world
    svc = SearchService(env, auth, RngRegistry(0), latency_sigma=0.0)
    idx = svc.create_index("portal")
    provider = SearchIngestActionProvider(env, svc, token)
    aid = provider.run(
        {
            "index": "portal",
            "subject": "s1",
            "content": make_record("d1", "title", ["alice"], 2023),
        }
    )
    env.run()
    st = provider.status(aid)
    assert st.state is ActionState.SUCCEEDED
    assert len(idx) == 1
    with pytest.raises(FlowError, match="unknown ingest action"):
        provider.status("ingest-999999")


def test_search_provider_reports_schema_failure(world):
    env, auth, alice, token = world
    svc = SearchService(env, auth, RngRegistry(0), latency_sigma=0.0)
    svc.create_index("portal")
    provider = SearchIngestActionProvider(env, svc, token)
    aid = provider.run({"index": "portal", "subject": "s1", "content": {"nope": 1}})
    env.run()
    st = provider.status(aid)
    assert st.state is ActionState.FAILED
    assert "SchemaError" in st.error
