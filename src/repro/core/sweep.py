"""Parallel deterministic campaign sweeps.

A *sweep* runs a list of :class:`~repro.core.campaign.CampaignConfig`
cells — built by :func:`sweep_grid` as scenario x use case x seed x
tie-break — and collects one deterministic outcome payload per cell.
Because every campaign is a sealed DES (its result is a pure function
of its config), cells can run in worker *processes* with no shared
state; the merge is by submission order, so

    run_sweep(configs, jobs=8) == run_sweep(configs, jobs=1)

payload for payload, regardless of which worker finished first.  That
equality is the parallel runner's correctness gate, asserted by
``tests/test_sweep.py``.

``python -m repro sweep`` is the CLI: by default it runs the chaos
scenario grid (every named scenario x seeds) and prints one line per
cell plus an aggregate delivery table.
"""

# repro: noqa-file[D101]  sweep outcomes exclude wall-clock on purpose

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Any, Iterable, Optional, Sequence

from ..chaos import NO_CHAOS, SCENARIOS, ChaosPlan, delivery_breakdown
from ..errors import ConfigError
from ..units import hours
from .campaign import CampaignConfig, run_campaign

__all__ = [
    "SweepOutcome",
    "run_sweep",
    "run_variant",
    "sweep_grid",
]


@dataclass
class SweepOutcome:
    """One cell's deterministic result.

    :meth:`payload` is the bit-stable comparison surface — everything in
    it is a pure function of the config (no wall-clock, no pids, no
    object ids), so serial and parallel sweeps can be compared with
    ``==``.
    """

    variant: CampaignConfig
    table1: dict[str, Any]
    n_runs: int
    n_completed: int
    #: Delivered-vs-dropped accounting; None for clean campaigns.
    breakdown: Optional[dict[str, Any]] = None

    def payload(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "variant": self.variant.name,
            "table1": self.table1,
            "n_runs": self.n_runs,
            "n_completed": self.n_completed,
        }
        if self.breakdown is not None:
            out["breakdown"] = self.breakdown
        return out


def run_variant(config: CampaignConfig) -> SweepOutcome:
    """Run one cell to completion (executed inside worker processes)."""
    res = run_campaign(config)
    return SweepOutcome(
        variant=config,
        table1=asdict(res.table1()),
        n_runs=len(res.runs),
        n_completed=len(res.completed_runs),
        breakdown=delivery_breakdown(res) if res.chaos is not None else None,
    )


def run_sweep(
    configs: Sequence[CampaignConfig], jobs: int = 1
) -> list[SweepOutcome]:
    """Run every config; return outcomes in ``configs`` order.

    ``jobs > 1`` fans the configs out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`.  ``Executor.map``
    yields results in submission order — not completion order — so the
    merge is deterministic by construction and the returned list is
    payload-identical to a serial run.  Outcomes are Table 1 rows, so a
    stream-mode config is refused before any worker starts.
    """
    configs = list(configs)
    stream = [c.name for c in configs if c.ingest != "file"]
    if stream:
        raise ConfigError(
            f"sweep outcomes are Table 1 rows, which stream-mode campaigns "
            f"do not produce: {stream}"
        )
    if jobs <= 1 or len(configs) <= 1:
        return [run_variant(c) for c in configs]
    workers = min(jobs, len(configs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_variant, configs))


def sweep_grid(
    scenarios: Iterable["ChaosPlan | str"],
    use_cases: Iterable[str] = ("hyperspectral",),
    seeds: Iterable[int] = (0, 1),
    duration_s: float = hours(1),
    tiebreaks: Iterable[str] = ("fifo",),
) -> list[CampaignConfig]:
    """Scenarios x use cases x seeds x tie-breaks, one config per cell.

    A scenario is a chaos plan or a scenario name
    (:data:`~repro.chaos.NO_CHAOS` for the clean grid).  Constructing
    each cell checks it, so an unknown name fails here, not as an
    exception propagated out of a worker process mid-sweep.
    """
    use_cases, seeds, tiebreaks = list(use_cases), list(seeds), list(tiebreaks)
    return [
        CampaignConfig(uc, duration_s=duration_s, seed=seed, chaos=sc, tiebreak=tb)
        for sc in scenarios
        for uc in use_cases
        for seed in seeds
        for tb in tiebreaks
    ]


def render_sweep(outcomes: Sequence[SweepOutcome]) -> str:
    """One line per cell plus an aggregate delivery summary."""
    lines = []
    agg = {"delivered": 0, "degraded": 0, "dead_lettered": 0,
           "failed_other": 0, "still_active": 0, "runs": 0}
    any_chaos = False
    for o in outcomes:
        t1 = o.table1
        desc = (
            f"{o.variant.name:<44s} runs {o.n_completed:>3d}/{o.n_runs:<3d} "
            f"mean flow {t1['mean_runtime_s']:7.1f}s"
        )
        if o.breakdown is not None:
            any_chaos = True
            b = o.breakdown
            desc += (
                f"  delivered {b['delivered']:>3d}  degraded {b['degraded']:>2d}"
                f"  dead {b['dead_lettered']:>2d}"
            )
            for key in agg:
                agg[key] += b[key]
        lines.append(desc)
    if any_chaos and agg["runs"]:
        lines.append("")
        lines.append(
            f"aggregate: {agg['runs']} runs — "
            f"{agg['delivered']} delivered, {agg['degraded']} degraded, "
            f"{agg['dead_lettered']} dead-lettered, "
            f"{agg['failed_other']} failed, {agg['still_active']} active"
        )
    return "\n".join(lines)


def run_sweep_cli(args: Any) -> int:
    """The ``python -m repro sweep`` entry point.  The arguments and the
    grid are checked before any campaign runs; an invalid one raises
    :class:`~repro.errors.ConfigError` and :func:`repro.__main__.main`
    exits 2."""
    import json
    import time

    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ConfigError(
            f"--seeds must be comma-separated integers, got {args.seeds!r}"
        ) from None
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    if args.grid == "campaign":
        scenarios = [NO_CHAOS]
    elif args.scenarios:
        scenarios = args.scenarios.split(",")
    else:
        scenarios = sorted(SCENARIOS)
    configs = sweep_grid(
        scenarios,
        use_cases=args.use_cases.split(","),
        seeds=seeds,
        duration_s=args.duration,
    )
    t0 = time.perf_counter()
    outcomes = run_sweep(configs, jobs=jobs)
    wall = time.perf_counter() - t0
    print(render_sweep(outcomes))
    print(
        f"\n{len(outcomes)} variant(s) in {wall:.1f}s wall "
        f"({jobs} job(s))"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump([o.payload() for o in outcomes], fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return 0
