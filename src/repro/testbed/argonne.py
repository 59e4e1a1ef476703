"""The canonical Argonne-like testbed: everything wired together.

Builds the full Sec. 2 world on one DES environment:

* topology — PicoProbe user machine → 1 Gbps site switch → 200 Gbps
  backbone → ALCF (Eagle DTN, Polaris);
* storage — the user machine's transfer directory and the Eagle store;
* services — auth, transfer (with both Globus-Connect endpoints),
  compute (Polaris endpoint behind the PBS scheduler), search (with the
  portal index), flows (with all three action providers);
* the instrument and a Gladier client for the operator identity.

:func:`build_testbed` returns a :class:`Testbed` handle exposing all of
it; campaigns, examples, and benches build on this one constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..auth import AccessPolicy, AuthClient, Identity, Token
from ..auth.identity import (
    COMPUTE_SCOPE,
    FLOWS_SCOPE,
    SEARCH_INGEST_SCOPE,
    SEARCH_QUERY_SCOPE,
    TRANSFER_SCOPE,
)
from ..compute import BatchScheduler, ComputeEndpoint, ComputeService
from ..flows import (
    ComputeActionProvider,
    ExponentialBackoff,
    FlowsService,
    GladierClient,
    SearchIngestActionProvider,
    TransferActionProvider,
)
from ..instrument import PicoProbe
from ..net import NetworkFabric, Topology
from ..obs import NULL_OBS
from ..rng import RngRegistry
from ..search import SearchIndex, SearchService
from ..sim import Environment
from ..storage import VirtualFS
from ..transfer import TransferEndpoint, TransferService
from .calibration import DEFAULT_CALIBRATION, Calibration

__all__ = ["Testbed", "build_testbed", "PICOPROBE_EP", "EAGLE_EP", "POLARIS_EP", "PORTAL_INDEX"]

PICOPROBE_EP = "picoprobe-user"
EAGLE_EP = "alcf-eagle"
POLARIS_EP = "alcf-polaris"
PORTAL_INDEX = "picoprobe-portal"


@dataclass
class Testbed:
    """Handles onto every component of the built world."""

    env: Environment
    rngs: RngRegistry
    calibration: Calibration
    topology: Topology
    fabric: NetworkFabric
    auth: AuthClient
    operator: Identity
    token: Token  # all scopes, for the operator's apps
    user_fs: VirtualFS
    eagle_fs: VirtualFS
    transfer: TransferService
    scheduler: BatchScheduler
    polaris: ComputeEndpoint
    compute: ComputeService
    search: SearchService
    portal_index: SearchIndex
    flows: FlowsService
    gladier: GladierClient
    instrument: PicoProbe
    obs: Any = NULL_OBS  # Observability bundle (NULL_OBS when disabled)


def build_testbed(
    env: Optional[Environment] = None,
    seed: int = 0,
    calibration: Calibration = DEFAULT_CALIBRATION,
    operator_name: str = "operator",
    obs: Any = NULL_OBS,
) -> Testbed:
    """Construct the full testbed on ``env`` (a fresh one by default).

    Pass an :class:`~repro.obs.Observability` bundle as ``obs`` to
    thread one tracer + metrics registry through every service; by
    default tracing is off and every instrumentation point is a no-op.
    A chaos campaign's :class:`~repro.chaos.ChaosController` sets the
    transfer fault plan and the flow retry policies on the built
    services.
    """
    env = env or Environment()
    rngs = RngRegistry(seed=seed)
    cal = calibration

    # -- network ------------------------------------------------------------
    topo = Topology()
    topo.add_node("picoprobe-user-machine")
    topo.add_node("site-switch", kind="switch")
    topo.add_node("anl-backbone", kind="switch")
    topo.add_node("eagle-dtn")
    topo.add_node("polaris-mom")
    topo.add_link(
        "picoprobe-user-machine", "site-switch", cal.site_switch_bps,
        latency_s=cal.wan_latency_s / 4,
    )
    topo.add_link(
        "site-switch", "anl-backbone", cal.backbone_bps, latency_s=cal.wan_latency_s / 4
    )
    topo.add_link(
        "anl-backbone", "eagle-dtn", cal.alcf_lan_bps, latency_s=cal.wan_latency_s / 4
    )
    topo.add_link(
        "anl-backbone", "polaris-mom", cal.alcf_lan_bps, latency_s=cal.wan_latency_s / 4
    )
    fabric = NetworkFabric(env, topo, obs=obs)

    # -- identities ----------------------------------------------------------
    auth = AuthClient()
    operator = auth.register_identity(operator_name, organization="ANL")
    token = auth.issue_token(
        operator,
        [
            TRANSFER_SCOPE,
            COMPUTE_SCOPE,
            SEARCH_INGEST_SCOPE,
            SEARCH_QUERY_SCOPE,
            FLOWS_SCOPE,
        ],
        now=env.now,
        lifetime=7 * 24 * 3600.0,
    )

    # -- storage + transfer -----------------------------------------------------
    user_fs = VirtualFS("picoprobe-user")
    eagle_fs = VirtualFS("eagle")
    transfer = TransferService(
        env,
        fabric,
        auth,
        rngs,
        api_latency_s=cal.transfer_api_latency_s,
        latency_sigma=cal.transfer_latency_sigma,
        throughput_sigma=cal.transfer_throughput_sigma,
        checksum_bytes_per_s=cal.checksum_bytes_per_s,
        obs=obs,
    )
    transfer.register_endpoint(
        TransferEndpoint(
            name=PICOPROBE_EP,
            host="picoprobe-user-machine",
            vfs=user_fs,
            policy=AccessPolicy().allow_write(operator),
            efficiency=cal.endpoint_efficiency,
            ramp_bytes=cal.endpoint_ramp_bytes,
            startup_latency_s=cal.transfer_startup_src_s,
        )
    )
    transfer.register_endpoint(
        TransferEndpoint(
            name=EAGLE_EP,
            host="eagle-dtn",
            vfs=eagle_fs,
            policy=AccessPolicy().allow_write(operator),
            efficiency=1.0,  # the DTN is not the bottleneck
            startup_latency_s=cal.transfer_startup_dst_s,
        )
    )

    # -- compute -------------------------------------------------------------------
    scheduler = BatchScheduler(
        env,
        n_nodes=cal.polaris_nodes,
        queue_median_s=cal.pbs_queue_median_s,
        queue_sigma=cal.pbs_queue_sigma,
        boot_median_s=cal.node_boot_median_s,
        boot_sigma=cal.node_boot_sigma,
        rngs=rngs,
        obs=obs,
    )
    polaris = ComputeEndpoint(
        env,
        POLARIS_EP,
        scheduler,
        env_cache_median_s=cal.env_cache_median_s,
        env_cache_sigma=cal.env_cache_sigma,
        idle_timeout_s=cal.node_idle_timeout_s,
        rngs=rngs,
        obs=obs,
    )
    compute = ComputeService(
        env,
        auth,
        rngs,
        api_latency_s=cal.compute_api_latency_s,
        latency_sigma=cal.compute_latency_sigma,
        obs=obs,
    )
    compute.register_endpoint(polaris)

    # -- search ------------------------------------------------------------------------
    search = SearchService(
        env,
        auth,
        rngs,
        ingest_latency_s=cal.search_ingest_latency_s,
        latency_sigma=cal.search_latency_sigma,
        obs=obs,
    )
    portal_index = search.create_index(PORTAL_INDEX)

    # -- flows ---------------------------------------------------------------------------
    flows = FlowsService(
        env,
        auth,
        rngs,
        transition_latency_s=cal.transition_latency_s,
        transition_sigma=cal.transition_sigma,
        poll_latency_s=cal.poll_latency_s,
        backoff=ExponentialBackoff(
            initial=cal.backoff_initial_s,
            factor=cal.backoff_factor,
            max_interval=cal.backoff_max_s,
        ),
        obs=obs,
    )
    flows.register_provider(TransferActionProvider(transfer, token))
    flows.register_provider(ComputeActionProvider(compute, token))
    flows.register_provider(SearchIngestActionProvider(env, search, token, obs=obs))
    gladier = GladierClient(flows, token)

    instrument = PicoProbe(rngs, operator=operator_name)

    return Testbed(
        env=env,
        rngs=rngs,
        calibration=cal,
        topology=topo,
        fabric=fabric,
        auth=auth,
        operator=operator,
        token=token,
        user_fs=user_fs,
        eagle_fs=eagle_fs,
        transfer=transfer,
        scheduler=scheduler,
        polaris=polaris,
        compute=compute,
        search=search,
        portal_index=portal_index,
        flows=flows,
        gladier=gladier,
        instrument=instrument,
        obs=obs,
    )
