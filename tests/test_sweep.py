"""Tests for the parallel deterministic sweep runner.

The load-bearing property is merge determinism: a sweep fanned out over
worker processes must return outcomes payload-identical to the serial
loop, in variant order, no matter which worker finishes first.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.errors import ChaosError
from repro.core.sweep import (
    SweepVariant,
    campaign_grid,
    chaos_grid,
    render_sweep,
    run_sweep,
    run_variant,
)

#: Small but heterogeneous grid: clean + chaos, two seeds, both tie-breaks.
GRID = [
    SweepVariant(kind="campaign", use_case="hyperspectral", seed=1,
                 duration_s=900.0),
    SweepVariant(kind="campaign", use_case="hyperspectral", seed=2,
                 duration_s=900.0, tiebreak="lifo"),
    SweepVariant(kind="outage", use_case="hyperspectral", seed=1,
                 duration_s=900.0),
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
    cg = campaign_grid(seeds=(1, 2), tiebreaks=("fifo", "lifo"))
    assert len(cg) == 2 * 2 * 2
    assert len({v.name for v in cg}) == len(cg)
    xg = chaos_grid(scenarios=("outage", "degraded-net"), seeds=(0,))
    assert [v.kind for v in xg] == ["outage", "degraded-net"]
    default = chaos_grid(seeds=(0,))
    assert [v.kind for v in default] == sorted(v.kind for v in default)
    with pytest.raises(ChaosError):  # validated before any worker spawns
        chaos_grid(scenarios=("outage", "bogus"), seeds=(0,))
    with pytest.raises(ValueError, match="bogus"):
        chaos_grid(use_cases=("hyperspectral", "bogus"), seeds=(0,))
    with pytest.raises(ValueError, match="bogus"):
        campaign_grid(use_cases=("bogus",))


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
