"""Tests for the parallel deterministic sweep runner.

The load-bearing property is merge determinism: a sweep fanned out over
worker processes must return outcomes payload-identical to the serial
loop, in variant order, no matter which worker finishes first.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.chaos import NO_CHAOS, SCENARIOS
from repro.core import CampaignConfig
from repro.errors import ChaosError, ConfigError
from repro.core.sweep import render_sweep, run_sweep, run_variant, sweep_grid

#: Small but heterogeneous grid: clean + chaos, two seeds, both tie-breaks.
GRID = [
    CampaignConfig("hyperspectral", seed=1, duration_s=900.0),
    CampaignConfig("hyperspectral", seed=2, duration_s=900.0, tiebreak="lifo"),
    CampaignConfig("hyperspectral", seed=1, duration_s=900.0, chaos="outage"),
]


def test_parallel_equals_serial():
    serial = run_sweep(GRID, jobs=1)
    parallel = run_sweep(GRID, jobs=2)
    assert [o.payload() for o in parallel] == [o.payload() for o in serial]


def test_outcomes_preserve_variant_order():
    outcomes = run_sweep(GRID, jobs=2)
    assert [o.variant for o in outcomes] == GRID


def test_run_variant_is_reproducible():
    a, b = run_variant(GRID[2]), run_variant(GRID[2])
    assert a.payload() == b.payload()
    assert a.breakdown is not None  # chaos variants carry a breakdown
    assert run_variant(GRID[0]).breakdown is None


def test_grids():
    cg = sweep_grid(
        [NO_CHAOS], use_cases=("hyperspectral", "spatiotemporal"),
        seeds=(1, 2), tiebreaks=("fifo", "lifo"),
    )
    assert len(cg) == 2 * 2 * 2
    assert len({c.name for c in cg}) == len(cg)
    assert all(c.name.startswith("campaign/") for c in cg)
    xg = sweep_grid(("outage", "degraded-net"), seeds=(0,))
    assert [c.chaos for c in xg] == ["outage", "degraded-net"]
    assert xg[0].name == "outage/hyperspectral-s0-fifo-3600s"
    with pytest.raises(ChaosError):  # validated before any worker spawns
        sweep_grid(("outage", "bogus"), seeds=(0,))
    with pytest.raises(ValueError, match="bogus"):
        sweep_grid(sorted(SCENARIOS), use_cases=("hyperspectral", "bogus"))
    with pytest.raises(ConfigError, match="tiebreak"):
        sweep_grid([NO_CHAOS], tiebreaks=("random",))


def test_sweep_cli_default_grid_is_every_scenario_sorted(monkeypatch):
    """``sweep chaos`` without ``--scenarios`` runs every named scenario,
    in sorted order."""
    import repro.core.sweep as sweep

    seen = []

    def capture(configs, jobs=1):
        seen.extend(configs)
        return []

    monkeypatch.setattr(sweep, "run_sweep", capture)
    assert main(["sweep", "chaos", "--seeds", "0", "--jobs", "1"]) == 0
    assert [c.chaos for c in seen] == sorted(SCENARIOS)
    assert all(c.seed == 0 for c in seen)


def test_sweep_refuses_stream_mode_before_any_worker(monkeypatch):
    import repro.core.sweep as sweep

    def no_worker(config):
        raise AssertionError("a worker ran")

    monkeypatch.setattr(sweep, "run_variant", no_worker)
    configs = [GRID[0], CampaignConfig("hyperspectral", ingest="stream")]
    for jobs in (1, 2):
        with pytest.raises(ConfigError, match="stream"):
            run_sweep(configs, jobs=jobs)


def test_render_sweep_aggregates():
    outcomes = run_sweep(GRID[:1] + GRID[2:], jobs=1)
    text = render_sweep(outcomes)
    assert "campaign/hyperspectral-s1-fifo-900s" in text
    assert "aggregate:" in text and "delivered" in text


def test_sweep_cli_writes_deterministic_json(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = [
        "sweep", "chaos", "--scenarios", "outage",
        "--seeds", "1", "--duration", "900", "--output",
    ]
    assert main(argv + [str(out1), "--jobs", "1"]) == 0
    assert main(argv + [str(out2), "--jobs", "2"]) == 0
    text = capsys.readouterr().out
    assert "outage/hyperspectral-s1-fifo-900s" in text
    assert json.loads(out1.read_text()) == json.loads(out2.read_text())
