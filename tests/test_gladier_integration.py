"""Additional integration coverage: flow failure paths end to end."""

from __future__ import annotations

import pytest

from repro.core import (
    FlowTriggerApp,
    hyperspectral_cost_model,
    picoprobe_flow,
)
from repro.flows import RunStatus
from repro.instrument import HYPERSPECTRAL_USE_CASE
from repro.testbed import DEFAULT_CALIBRATION, build_testbed
from repro.transfer import FaultPlan
from repro.watcher import SimObserver


def emit(tb, index=0):
    uc = HYPERSPECTRAL_USE_CASE
    md = tb.instrument.stamp_metadata(
        uc.signal_type, uc.shape, uc.dtype, uc.sample, acquired_at=tb.env.now
    )
    return tb.user_fs.create(
        f"/transfer/f{index:03d}.emd", uc.file_size_bytes,
        created_at=tb.env.now, metadata=md,
    )


def build_app(tb, fn):
    fid = tb.compute.register_function(
        fn, hyperspectral_cost_model(DEFAULT_CALIBRATION, tb.rngs)
    )
    definition = picoprobe_flow(tb.gladier, "picoprobe-hyperspectral")
    app = FlowTriggerApp(tb, definition, fid)
    obs = SimObserver(tb.user_fs, prefix="/transfer")
    app.attach(obs)
    return app


def test_transfer_permanent_failure_fails_flow_cleanly():
    tb = build_testbed(
        seed=0, fault_plan=FaultPlan(transient_prob=1.0, max_attempts=2)
    )
    app = build_app(tb, lambda file: {"identifier": "x"})
    emit(tb)
    run = app.runs[0]
    tb.env.run(until=run.completed)
    assert run.status is RunStatus.FAILED
    assert "TransferData" in run.error
    # No downstream steps executed; nothing was published.
    assert [s.name for s in run.steps] == ["TransferData"]
    assert len(tb.portal_index) == 0
    # The file never landed on Eagle.
    assert len(tb.eagle_fs) == 0


def test_analysis_exception_fails_flow_and_reports_error():
    tb = build_testbed(seed=0)

    def exploding(file):
        raise RuntimeError("cube was corrupt")

    app = build_app(tb, exploding)
    emit(tb)
    run = app.runs[0]
    tb.env.run(until=run.completed)
    assert run.status is RunStatus.FAILED
    assert "cube was corrupt" in run.error
    # The transfer DID complete before the analysis failed.
    assert tb.eagle_fs.exists("/picoprobe/data/f000.emd")
    assert len(tb.portal_index) == 0


def test_invalid_record_fails_publication_step():
    tb = build_testbed(seed=0)
    # Returns a document that violates the DataCite schema.
    app = build_app(tb, lambda file: {"title": "missing everything"})
    emit(tb)
    run = app.runs[0]
    tb.env.run(until=run.completed)
    assert run.status is RunStatus.FAILED
    assert "PublishResults" in run.error
    assert "SchemaError" in run.error
    assert len(tb.portal_index) == 0


def test_failed_flow_still_releases_gating():
    """A gated campaign must not stall when a flow fails."""
    from repro.chaos import ChaosPlan
    from repro.core import run_campaign

    res = run_campaign(
        "hyperspectral",
        duration_s=1200,
        seed=6,
        chaos=ChaosPlan(transfer_faults=FaultPlan(transient_prob=0.45, max_attempts=2)),
    )
    statuses = {r.status for r in res.runs if r.status.terminal}
    # Some fail permanently (p=0.2 per flow), yet the campaign continues.
    assert RunStatus.FAILED in statuses
    assert RunStatus.SUCCEEDED in statuses
    assert len(res.copier.emitted) >= 8
