"""Integration tests: the full Transfer → Analyze → Publish flow and the
Sec. 3.3 campaigns over all substrates."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.chaos import ChaosPlan
from repro.core import (
    ANALYZE_STATE,
    PUBLISH_STATE,
    TRANSFER_STATE,
    CampaignConfig,
    FlowTriggerApp,
    analyze_virtual_hyperspectral,
    fig4_samples,
    fig4_svg,
    hyperspectral_cost_model,
    picoprobe_flow,
    render_table1,
    run_campaign,
    table1_row,
    use_case_by_name,
)
from repro.core.extensions import ZSTD_LIKE
from repro.errors import ChaosError, ConfigError
from repro.flows import RunStatus
from repro.instrument import HYPERSPECTRAL_USE_CASE, FileCopier
from repro.portal import Portal
from repro.testbed import DEFAULT_CALIBRATION, build_testbed
from repro.transfer import FaultPlan
from repro.watcher import CheckpointStore, SimObserver


def make_app(tb, checkpoint=None):
    fid = tb.compute.register_function(
        analyze_virtual_hyperspectral,
        hyperspectral_cost_model(DEFAULT_CALIBRATION, tb.rngs),
    )
    definition = picoprobe_flow(tb.gladier, "picoprobe-hyperspectral")
    app = FlowTriggerApp(tb, definition, fid, checkpoint=checkpoint)
    observer = SimObserver(tb.user_fs, prefix="/transfer")
    app.attach(observer)
    return app


def emit_file(tb, index=0, at=None):
    uc = HYPERSPECTRAL_USE_CASE
    md = tb.instrument.stamp_metadata(
        uc.signal_type, uc.shape, uc.dtype, uc.sample, acquired_at=tb.env.now
    )
    return tb.user_fs.create(
        f"/transfer/hyper_{index:04d}.emd",
        size_bytes=uc.file_size_bytes,
        created_at=tb.env.now,
        metadata=md,
    )


def test_single_flow_end_to_end():
    tb = build_testbed(seed=0)
    app = make_app(tb)
    emit_file(tb)
    assert len(app.runs) == 1
    run = app.runs[0]
    tb.env.run(until=run.completed)
    assert run.status is RunStatus.SUCCEEDED
    # Transfer actually landed the file on Eagle.
    assert tb.eagle_fs.exists("/picoprobe/data/hyper_0000.emd")
    # Publication actually indexed the record.
    assert len(tb.portal_index) == 1
    hit = tb.portal_index.query(q="hyperspectral").hits[0]
    assert hit.content["experiment"]["signal_type"] == "hyperspectral"
    assert hit.content["data_location"] == "/picoprobe/data/hyper_0000.emd"
    # Steps recorded in order with sane timings.
    names = [s.name for s in run.steps]
    assert names == [TRANSFER_STATE, ANALYZE_STATE, PUBLISH_STATE]
    assert run.step(TRANSFER_STATE).active_seconds > 5
    assert run.step(ANALYZE_STATE).active_seconds > 1
    assert run.overhead_seconds > 0


def test_flow_record_is_portal_renderable():
    tb = build_testbed(seed=0)
    app = make_app(tb)
    emit_file(tb)
    tb.env.run(until=app.runs[0].completed)
    portal = Portal(tb.portal_index)
    html = portal.render_index()
    assert "Experiments (1)" in html
    subject = tb.portal_index.query().hits[0].subject
    page = portal.render_record(subject)
    assert "Beam energy (keV)" in page


def test_checkpoint_prevents_duplicate_flows():
    tb = build_testbed(seed=0)
    ckpt = CheckpointStore()
    app = make_app(tb, checkpoint=ckpt)
    f = emit_file(tb)
    # The "rebooted user machine" re-stages the same file content.
    tb.user_fs.create(
        f.path, f.size_bytes, created_at=1.0, checksum=f.checksum,
        metadata=f.metadata, overwrite=True,
    )
    assert len(app.runs) == 1
    assert app.skipped == 1


def test_new_content_at_same_path_triggers_again():
    tb = build_testbed(seed=0)
    app = make_app(tb)
    f = emit_file(tb)
    tb.user_fs.create(
        f.path, f.size_bytes, created_at=1.0, checksum="different-content",
        metadata=f.metadata, overwrite=True,
    )
    assert len(app.runs) == 2


def test_cold_start_then_warm_reuse_across_flows():
    tb = build_testbed(seed=0)
    app = make_app(tb)

    def driver(env):
        emit_file(tb, 0)
        yield app.runs[0].completed
        emit_file(tb, 1)
        yield app.runs[1].completed

    tb.env.process(driver(tb.env))
    tb.env.run()
    r0, r1 = app.runs
    assert r0.step(ANALYZE_STATE).result["cold_start"] is True
    assert r1.step(ANALYZE_STATE).result["cold_start"] is False
    # Warm analysis is dramatically faster.
    assert (
        r1.step(ANALYZE_STATE).active_seconds
        < r0.step(ANALYZE_STATE).active_seconds / 3
    )


def test_campaign_short_horizon_counts():
    res = run_campaign("hyperspectral", duration_s=600, seed=3)
    assert len(res.completed_runs) >= 5
    row = res.table1()
    assert row.total_runs == len(res.completed_runs)
    assert row.total_data_gb == pytest.approx(91e6 * row.total_runs / 1e9)
    assert row.min_runtime_s <= row.mean_runtime_s <= row.max_runtime_s
    assert 0 < row.median_overhead_pct < 100


def test_campaign_table1_shape_matches_paper():
    """The headline Table 1 relationships must hold."""
    hyper = run_campaign("hyperspectral", duration_s=1800, seed=1).table1()
    spatio = run_campaign("spatiotemporal", duration_s=1800, seed=2).table1()
    # Hyperspectral completes ~4-6x more runs…
    assert 3.0 < hyper.total_runs / spatio.total_runs < 7.0
    # …but moves less total data.
    assert spatio.total_data_gb > hyper.total_data_gb
    # Spatiotemporal flows are ~4-5x longer.
    assert 3.5 < spatio.mean_runtime_s / hyper.mean_runtime_s < 6.0
    # Orchestration overhead dominates the short flow, not the long one.
    assert hyper.median_overhead_pct > 35
    assert spatio.median_overhead_pct < 30
    assert hyper.median_overhead_pct > spatio.median_overhead_pct


def test_campaign_periodic_mode_overlaps_flows():
    res = run_campaign("hyperspectral", duration_s=600, seed=0, copier_mode="periodic")
    # Strict 30 s cadence: 20 files emitted in 600 s.
    assert len(res.copier.emitted) == 20
    assert len(res.runs) == 20


def test_campaign_with_faults_still_completes():
    res = run_campaign(
        "hyperspectral",
        duration_s=900,
        seed=4,
        chaos=ChaosPlan(transfer_faults=FaultPlan(transient_prob=0.3, max_attempts=5)),
    )
    done = res.completed_runs
    assert len(done) >= 3
    assert all(r.status is RunStatus.SUCCEEDED for r in done)
    # At least one transfer needed a retry (visible in attempts).
    attempts = [r.step(TRANSFER_STATE).result.get("attempts", 1) for r in done]
    assert max(attempts) > 1


def test_fig4_samples_and_svg():
    res = run_campaign("hyperspectral", duration_s=900, seed=1)
    samples = fig4_samples(res.runs)
    n = len(res.completed_runs)
    for key in ("Transfer", "Analysis", "Publication", "Active", "Overhead"):
        assert len(samples[key]) == n
    # Transfer dominates active time (the paper's bottleneck finding).
    assert np.median(samples["Transfer"]) > np.median(samples["Analysis"])
    assert np.median(samples["Transfer"]) > np.median(samples["Publication"])
    svg = fig4_svg(res.runs, "Hyperspectral flow")
    assert svg.startswith("<svg") and "Overhead" in svg


def test_render_table1_text():
    res = run_campaign("hyperspectral", duration_s=600, seed=1)
    text = render_table1([res.table1()])
    assert "Total flow runs" in text
    assert "Hyperspectral" in text
    with pytest.raises(ValueError):
        render_table1([])


def test_use_case_lookup():
    assert use_case_by_name("hyperspectral").period_s == 30
    with pytest.raises(ValueError):  # a ConfigError is a ValueError
        use_case_by_name("tomography")


def test_config_runs_like_its_keywords():
    config = CampaignConfig("hyperspectral", duration_s=600.0, seed=2)
    a, b = run_campaign(config), run_campaign("hyperspectral", duration_s=600.0, seed=2)
    assert a.config == b.config == config
    assert a.table1() == b.table1()
    with pytest.raises(ConfigError, match="seed"):  # a config runs as given
        run_campaign(config, seed=3)


#: One invalid setting per row (on top of the hyperspectral use case),
#: and the error it must raise.
_INVALID = {
    "duration-inf": ({"duration_s": float("inf")}, ConfigError),
    "duration-nan": ({"duration_s": float("nan")}, ConfigError),
    "duration-negative": ({"duration_s": -5.0}, ConfigError),
    "duration-str": ({"duration_s": "600"}, ConfigError),
    "seed-negative": ({"seed": -1}, ConfigError),
    "seed-float": ({"seed": 1.5}, ConfigError),
    "tiebreak": ({"tiebreak": "random"}, ConfigError),
    "copier-mode": ({"copier_mode": "burst"}, ConfigError),
    "ingest": ({"ingest": "carrier-pigeon"}, ConfigError),
    "use-case-name": ({"use_case": "tomography"}, ConfigError),
    "use-case-type": ({"use_case": 3}, ConfigError),
    "signal-type": (
        {"use_case": replace(HYPERSPECTRAL_USE_CASE, signal_type="tomography")},
        ConfigError,
    ),
    "compression-type": ({"compression": object()}, ConfigError),
    "compression-stream": ({"compression": ZSTD_LIKE, "ingest": "stream"}, ConfigError),
    "chaos-type": ({"chaos": 3}, ChaosError),
    "corruption-unverified": ({"chaos": "corruption", "integrity": False}, ConfigError),
    "scenario": ({"chaos": "bogus"}, ChaosError),
}


@pytest.mark.parametrize(
    "settings, error", list(_INVALID.values()), ids=list(_INVALID)
)
def test_invalid_settings_fail_before_anything_is_built(monkeypatch, settings, error):
    import repro.core.campaign as campaign

    def no_build(*args, **kwargs):
        raise AssertionError("an environment was built for an invalid config")

    monkeypatch.setattr(campaign, "Environment", no_build)
    with pytest.raises(error):
        run_campaign(**{"use_case": "hyperspectral", **settings})


def test_table1_requires_completed_runs():
    with pytest.raises(ValueError):
        table1_row("x", 30, 91e6, [])
