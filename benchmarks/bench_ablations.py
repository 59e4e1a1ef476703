"""Ablations of the design choices the paper calls out (Sec. 3.3 + 5).

1. **Polling backoff** — the paper blames its 49.2% overhead on the
   exponential backoff "which we are working to improve": replacing it
   with constant 1 s polling collapses overhead.
2. **Cold vs warm nodes** — the max runtimes "are associated with the
   first flows, as they have to request a compute node on Polaris":
   quantify the cold-start penalty and the warm-reuse win.
3. **Switch contention** — strict-periodic emission overlaps flows on
   the shared 1 Gbps switch; transfers slow as concurrency rises (the
   motivation for the paper's on-site upgrades).
4. **Site uplink upgrade** — future work item (1): a 10 Gbps site switch
   shifts the bottleneck off the transfer step.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import run_campaign
from repro.core.tools import TRANSFER_STATE
from repro.testbed import DEFAULT_CALIBRATION
from repro.units import Gbps

from conftest import report


def _median_overhead_pct(res):
    done = res.completed_runs
    return float(np.median([100 * r.overhead_fraction for r in done]))


def test_ablation_backoff_policy(output_dir):
    """Constant 1 s polling vs the paper's exponential backoff."""
    fast_poll = replace(
        DEFAULT_CALIBRATION, backoff_factor=1.0, backoff_max_s=1.0, backoff_initial_s=1.0
    )
    fixed = run_campaign("hyperspectral", seed=1, calibration=fast_poll)
    paper_mode = run_campaign("hyperspectral", seed=1)

    ovh_fixed = _median_overhead_pct(fixed)
    ovh_paper = _median_overhead_pct(paper_mode)
    mean_fixed = float(np.mean([r.runtime_seconds for r in fixed.completed_runs]))
    mean_paper = float(np.mean([r.runtime_seconds for r in paper_mode.completed_runs]))
    report(
        "ablation_backoff",
        [
            f"exponential backoff (paper): median overhead {ovh_paper:.1f}%, mean runtime {mean_paper:.1f}s",
            f"constant 1 s polling       : median overhead {ovh_fixed:.1f}%, mean runtime {mean_fixed:.1f}s",
            f"runs completed             : {len(paper_mode.completed_runs)} -> {len(fixed.completed_runs)}",
        ],
        output_dir,
    )
    # The fix the paper is "working to improve" towards: a large overhead
    # cut (the residue is transition latency + 1 s poll quantization).
    assert ovh_fixed < ovh_paper * 0.65
    assert mean_fixed < mean_paper
    assert len(fixed.completed_runs) > len(paper_mode.completed_runs)


def test_ablation_cold_vs_warm(output_dir):
    """Quantify the first-flow cold-start penalty."""
    res = run_campaign("hyperspectral", seed=5)
    runs = res.completed_runs
    cold = [
        r
        for r in runs
        if r.step("AnalyzeData").result.get("cold_start")
    ]
    warm = [r for r in runs if r not in cold]
    assert cold and warm
    cold_mean = float(np.mean([r.runtime_seconds for r in cold]))
    warm_mean = float(np.mean([r.runtime_seconds for r in warm]))
    report(
        "ablation_cold_warm",
        [
            f"cold-start flows: {len(cold)}, mean runtime {cold_mean:.1f}s",
            f"warm flows      : {len(warm)}, mean runtime {warm_mean:.1f}s",
            f"penalty         : {cold_mean - warm_mean:.1f}s "
            f"(queue + boot + env-cache budget: "
            f"{DEFAULT_CALIBRATION.cold_start_budget_s():.0f}s median)",
        ],
        output_dir,
    )
    # Cold flows are the max-runtime population, as the paper observes.
    assert cold_mean > warm_mean + 30
    assert max(r.runtime_seconds for r in cold) == max(
        r.runtime_seconds for r in runs
    )


def test_ablation_switch_contention(output_dir):
    """Overlapped flows contend for the effective site capacity.

    At the paper's 120 s spatiotemporal period, flows barely overlap
    (transfer ≈ 115 s < period) — consistent with the paper running them
    gated.  Doubling the data velocity (one 1200 MB file every 60 s)
    exceeds the site's effective transfer capacity (~10.8 MB/s through
    the 1 Gbps switch with the measured protocol efficiency) and
    transfers pile up — the scenario motivating the on-site upgrades.
    """
    from dataclasses import replace as dc_replace

    from repro.instrument import SPATIOTEMPORAL_USE_CASE

    fast_uc = dc_replace(SPATIOTEMPORAL_USE_CASE, period_s=60.0)
    overlapped = run_campaign(fast_uc, seed=2, copier_mode="periodic")
    gated = run_campaign("spatiotemporal", seed=2, copier_mode="gated")

    def transfer_actives(res):
        return [
            r.step(TRANSFER_STATE).active_seconds for r in res.completed_runs
        ]

    t_over = float(np.median(transfer_actives(overlapped)))
    t_gated = float(np.median(transfer_actives(gated)))
    report(
        "ablation_contention",
        [
            f"gated (serialized) transfers     : median {t_gated:.1f}s",
            f"overlapped (1200 MB every 60 s)  : median {t_over:.1f}s",
            f"slowdown from shared site uplink : {t_over / t_gated:.2f}x",
            f"completed flows in the hour      : {len(gated.completed_runs)} gated "
            f"vs {len(overlapped.completed_runs)} overlapped (queue builds up)",
        ],
        output_dir,
    )
    assert t_over > t_gated * 1.3


def test_ablation_site_uplink_upgrade(output_dir):
    """Future-work item (1): upgrade the 1 Gbps site switch."""
    upgraded_cal = replace(DEFAULT_CALIBRATION, site_switch_bps=Gbps(10))
    up = run_campaign("spatiotemporal", seed=2, calibration=upgraded_cal)
    base = run_campaign("spatiotemporal", seed=2)
    up_mean = float(np.mean([r.runtime_seconds for r in up.completed_runs]))
    base_mean = float(np.mean([r.runtime_seconds for r in base.completed_runs]))
    report(
        "ablation_uplink",
        [
            f"1 Gbps switch : mean runtime {base_mean:.1f}s, {len(base.completed_runs)} runs/h",
            f"10 Gbps switch: mean runtime {up_mean:.1f}s, {len(up.completed_runs)} runs/h",
            "note: endpoint protocol efficiency, not the wire, now limits "
            "throughput — matching the paper's call for transfer-stack "
            "tuning alongside hardware upgrades",
        ],
        output_dir,
    )
    # More link capacity alone cannot beat the endpoint-efficiency wall:
    # runtime improves only modestly (shape point, not a number).
    assert up_mean <= base_mean
    assert len(up.completed_runs) >= len(base.completed_runs)
