"""Tests for the Argonne testbed wiring and calibration."""

from __future__ import annotations

import pytest

from repro.errors import CalibrationError
from repro.testbed import (
    DEFAULT_CALIBRATION,
    EAGLE_EP,
    PICOPROBE_EP,
    POLARIS_EP,
    Calibration,
    build_testbed,
)
from repro.units import MB, Gbps


def test_build_testbed_wires_everything():
    tb = build_testbed(seed=0)
    assert tb.transfer.endpoint(PICOPROBE_EP).host == "picoprobe-user-machine"
    assert tb.transfer.endpoint(EAGLE_EP).host == "eagle-dtn"
    assert tb.compute.endpoint(POLARIS_EP) is tb.polaris
    assert tb.portal_index.name == "picoprobe-portal"
    # All three providers registered.
    for name in ("transfer", "compute", "search_ingest"):
        tb.flows.provider(name)
    assert tb.operator.username == "operator"


def test_topology_matches_paper_capacities():
    tb = build_testbed()
    assert tb.topology.bottleneck_capacity(
        "picoprobe-user-machine", "eagle-dtn"
    ) == Gbps(1)
    assert tb.topology.bottleneck_capacity("anl-backbone", "eagle-dtn") == Gbps(200)


def test_token_covers_all_services():
    tb = build_testbed()
    # Each service authorizer accepts the operator token.
    tb.transfer.authorizer.authorize(tb.token, now=0.0)
    tb.compute.authorizer.authorize(tb.token, now=0.0)
    tb.flows.authorizer.authorize(tb.token, now=0.0)


def test_calibration_validation():
    with pytest.raises(CalibrationError):
        Calibration(site_switch_bps=0)
    with pytest.raises(CalibrationError):
        Calibration(endpoint_efficiency=1.5)
    with pytest.raises(CalibrationError):
        Calibration(backoff_initial_s=2.0, backoff_max_s=1.0)
    # Every field is finite and >= 0: a NaN latency or sigma would make
    # waits free or endless instead of failing here.
    nan, inf = float("nan"), float("inf")
    for bad in (
        dict(transition_latency_s=nan),
        dict(pbs_queue_sigma=nan),
        dict(endpoint_ramp_bytes=nan),
        dict(poll_latency_s=-5.0),
        dict(backoff_initial_s=nan),
        dict(node_idle_timeout_s=nan),
        dict(wan_latency_s=inf),
        dict(site_switch_bps=inf),
    ):
        with pytest.raises(CalibrationError, match="finite and >= 0"):
            Calibration(**bad)
    with pytest.raises(CalibrationError, match="integer"):
        Calibration(polaris_nodes=2.5)
    with pytest.raises(CalibrationError, match="positive"):
        Calibration(polaris_nodes=0)


def test_effective_rate_concave_in_size():
    cal = DEFAULT_CALIBRATION
    small = cal.effective_rate_bps(MB(91))
    large = cal.effective_rate_bps(MB(1200))
    assert small < large
    # Paper-derived targets: ~6 MB/s small, ~10.4 MB/s large.
    assert 4e6 < small < 8e6
    assert 9e6 < large < 12e6


def test_cold_start_budget():
    cal = DEFAULT_CALIBRATION
    assert 40 < cal.cold_start_budget_s() < 120


def test_same_seed_same_testbed_behaviour():
    import repro.core as core

    a = core.run_campaign("hyperspectral", duration_s=300, seed=5)
    b = core.run_campaign("hyperspectral", duration_s=300, seed=5)
    ra = [round(r.runtime_seconds, 6) for r in a.completed_runs]
    rb = [round(r.runtime_seconds, 6) for r in b.completed_runs]
    assert ra == rb
