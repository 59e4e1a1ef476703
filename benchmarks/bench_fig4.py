"""Fig. 4: itemized runtime statistics of both flows.

Regenerates the per-step (Transfer / Analysis / Publication) active
times plus the Active-vs-Overhead split for both campaigns, renders the
two box-plot panels, and checks the breakdown's shape: transfer
dominates active time in both flows; orchestration overhead is ≈49% of
median runtime for hyperspectral and ≈21% for spatiotemporal.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import fig4_samples, fig4_svg, run_campaign

from conftest import report


@pytest.fixture(scope="module")
def campaigns():
    return (
        run_campaign("hyperspectral", seed=1),
        run_campaign("spatiotemporal", seed=2),
    )


def test_fig4_breakdown(benchmark, campaigns, output_dir):
    hyper, spatio = campaigns

    def build_samples():
        return fig4_samples(hyper.runs), fig4_samples(spatio.runs)

    hs, ss = benchmark(build_samples)

    lines = []
    paper_fig4 = {
        "hyperspectral": {"overhead_pct": 49.2},
        "spatiotemporal": {"overhead_pct": 21.1},
    }
    for name, samples, res in (
        ("hyperspectral", hs, hyper),
        ("spatiotemporal", ss, spatio),
    ):
        med = {k: float(np.median(v)) for k, v in samples.items()}
        total = med["Active"] + med["Overhead"]
        ovh_pct = 100 * med["Overhead"] / total
        lines.append(
            f"{name}: median Transfer {med['Transfer']:.1f}s, "
            f"Analysis {med['Analysis']:.1f}s, Publication {med['Publication']:.1f}s, "
            f"Active {med['Active']:.1f}s, Overhead {med['Overhead']:.1f}s "
            f"({ovh_pct:.1f}%; paper {paper_fig4[name]['overhead_pct']}%)"
        )
        svg = fig4_svg(res.runs, f"Itemized runtime: {name} flow")
        path = os.path.join(output_dir, f"fig4_{name}.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        lines.append(f"  panel: {os.path.relpath(path, output_dir)}")

        # Transfer dominates active flow time (Sec. 3.3's bottleneck
        # finding) in both use cases.
        assert med["Transfer"] > med["Analysis"]
        assert med["Transfer"] > 5 * med["Publication"]

    report("fig4", lines, output_dir)

    hs_med = {k: float(np.median(v)) for k, v in hs.items()}
    ss_med = {k: float(np.median(v)) for k, v in ss.items()}
    # Overhead fractions bracket the paper's 49.2% / 21.1%.
    h_pct = 100 * hs_med["Overhead"] / (hs_med["Active"] + hs_med["Overhead"])
    s_pct = 100 * ss_med["Overhead"] / (ss_med["Active"] + ss_med["Overhead"])
    assert 35 < h_pct < 65
    assert 10 < s_pct < 30
    # The spatiotemporal compute phase is dominated by conversion: its
    # Analysis median is an order of magnitude above hyperspectral's.
    assert ss_med["Analysis"] > 5 * hs_med["Analysis"]
    # Absolute overhead is *larger* for spatiotemporal (more seconds)
    # even though relatively smaller (fewer percent) — the Fig. 4
    # crossover.
    assert ss_med["Overhead"] > hs_med["Overhead"]


def test_fig4_overhead_is_mechanistic(benchmark, campaigns, output_dir):
    """Overhead must equal polling detection lag + transitions, not an
    arbitrary residue: per run, the sum of step observed times plus
    transitions equals the runtime."""
    hyper, _ = campaigns

    def check():
        checked = 0
        for r in hyper.completed_runs:
            step_total = sum(s.observed_seconds for s in r.steps)
            transitions = r.runtime_seconds - step_total
            # 4 transitions at ~1.5 s median each (lognormal: allow tails).
            assert 0.2 < transitions < 30.0
            assert r.overhead_seconds == pytest.approx(
                r.runtime_seconds - r.active_seconds, abs=1e-6
            )
            checked += 1
        return checked

    n = benchmark(check)
    assert n == len(hyper.completed_runs)
