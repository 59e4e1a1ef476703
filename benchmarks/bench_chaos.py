"""Chaos subsystem cost + recovery-latency characterization.

Two claims to defend:

* **disabled chaos is free** — a campaign run with :data:`NO_CHAOS` (or
  no chaos argument at all) pays nothing for the subsystem's existence:
  bit-identical event trace, and wall-clock cost within noise of the
  pre-chaos path;
* **recovery is bounded** — under the shipped ``outage`` scenario every
  degraded step catches up, and the recovery-latency percentiles land in
  the same regime as the outage windows that caused them (minutes, not
  hours).
"""

from __future__ import annotations

import time

from repro.chaos import NO_CHAOS, delivery_breakdown
from repro.core import run_campaign
from repro.core.sanitize import campaign_trace

from conftest import report

DURATION = 1800.0


def _time(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def test_chaos_disabled_is_free(benchmark, output_dir):
    # Warm-up outside the timed region.
    run_campaign("hyperspectral", duration_s=300.0, seed=9)
    run_campaign("hyperspectral", duration_s=300.0, seed=9, chaos=NO_CHAOS)

    base_res, _ = _time(
        lambda: run_campaign("hyperspectral", duration_s=DURATION, seed=1)
    )
    plain = [
        _time(lambda: run_campaign("hyperspectral", duration_s=DURATION, seed=1))[1]
        for _ in range(3)
    ]
    off_res, _ = _time(
        lambda: run_campaign(
            "hyperspectral", duration_s=DURATION, seed=1, chaos=NO_CHAOS
        )
    )
    off = [
        _time(
            lambda: run_campaign(
                "hyperspectral", duration_s=DURATION, seed=1, chaos=NO_CHAOS
            )
        )[1]
        for _ in range(3)
    ]

    def no_chaos_run():
        return run_campaign(
            "hyperspectral", duration_s=DURATION, seed=1, chaos=NO_CHAOS
        )

    benchmark(no_chaos_run)

    base, disabled = min(plain), min(off)
    # Wall times vary with the host, so they go to stdout only.
    print(
        f"\nplain {base * 1e3:.1f} ms, NO_CHAOS {disabled * 1e3:.1f} ms "
        f"(best of 3): disabled-chaos cost {100 * (disabled - base) / base:+.1f}%"
    )
    identical = campaign_trace(base_res) == campaign_trace(off_res)
    report("bench_chaos_disabled", [f"event traces identical: {identical}"], output_dir)
    # Bit-identity is the hard gate (also enforced by tier-1); timing
    # must stay within noise, not within an order of magnitude.
    assert identical
    assert disabled < base * 1.5


def test_chaos_recovery_latency(benchmark, output_dir):
    result = benchmark.pedantic(
        lambda: run_campaign(
            "hyperspectral", chaos="outage", duration_s=DURATION, seed=5
        ),
        rounds=1,
        iterations=1,
    )
    breakdown = delivery_breakdown(result)
    rep = result.chaos.report()
    pct = rep["recovery_latency_s"]
    lines = [
        f"runs: {breakdown['runs']}  delivered: {breakdown['delivered']}  "
        f"degraded: {breakdown['degraded']}  "
        f"dead-lettered: {breakdown['dead_lettered']}  "
        f"hung: {breakdown['still_active']}",
        f"flow retries: {rep['flow_retries']}; "
        f"gate rejections: {rep['gate_rejections']}",
        f"backlog: {rep['backlog_recovered']}/{rep['backlog_total']} caught up",
    ]
    if pct:
        lines.append(
            f"recovery latency p50/p95/max: "
            f"{pct['p50']:.1f}/{pct['p95']:.1f}/{pct['max']:.1f} s"
        )
    report("bench_chaos_recovery", lines, output_dir)

    assert breakdown["still_active"] == 0  # the no-hung-runs guarantee
    assert rep["backlog_pending"] == 0  # every degraded step caught up
    if pct:
        # Recovery is bounded by the outage that caused it: the longest
        # window is 10 minutes, so catch-up stays under the hour.
        assert pct["max"] < 3600.0
