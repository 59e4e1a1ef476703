"""Parallel deterministic campaign sweeps.

A *sweep* runs a grid of campaign variants — (kind, use case, seed,
tie-break, duration) tuples — and collects one deterministic outcome
payload per variant.  Because every campaign is a sealed DES (its result
is a pure function of its variant), variants can run in worker
*processes* with no shared state; the merge is by submission order, so

    run_sweep(variants, jobs=8) == run_sweep(variants, jobs=1)

payload for payload, regardless of which worker finished first.  That
equality is the parallel runner's correctness gate, asserted by
``tests/test_sweep.py``.

``python -m repro sweep`` is the CLI: by default it runs the chaos
scenario grid (every named scenario x seeds) and prints one line per
variant plus an aggregate delivery table.
"""

# repro: noqa-file[D101]  sweep outcomes exclude wall-clock on purpose

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Any, Iterable, Optional, Sequence

__all__ = [
    "SweepOutcome",
    "SweepVariant",
    "campaign_grid",
    "chaos_grid",
    "run_sweep",
    "run_variant",
]


@dataclass(frozen=True)
class SweepVariant:
    """One cell of a sweep grid.

    ``kind`` is ``"campaign"`` for a clean run or the name of a chaos
    scenario (see :data:`repro.chaos.SCENARIOS`).
    """

    kind: str = "campaign"
    use_case: str = "hyperspectral"
    seed: int = 0
    duration_s: float = 3600.0
    tiebreak: str = "fifo"

    @property
    def name(self) -> str:
        return (
            f"{self.kind}/{self.use_case}"
            f"-s{self.seed}-{self.tiebreak}-{self.duration_s:.0f}s"
        )


@dataclass
class SweepOutcome:
    """One variant's deterministic result.

    :meth:`payload` is the bit-stable comparison surface — everything in
    it is a pure function of the variant (no wall-clock, no pids, no
    object ids), so serial and parallel sweeps can be compared with
    ``==``.
    """

    variant: SweepVariant
    table1: dict[str, Any]
    n_runs: int
    n_completed: int
    #: Delivered-vs-dropped accounting; None for clean campaigns.
    breakdown: Optional[dict[str, Any]] = None

    def payload(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "variant": asdict(self.variant),
            "table1": self.table1,
            "n_runs": self.n_runs,
            "n_completed": self.n_completed,
        }
        if self.breakdown is not None:
            out["breakdown"] = self.breakdown
        return out


def run_variant(variant: SweepVariant) -> SweepOutcome:
    """Run one variant to completion (executed inside worker processes)."""
    from ..chaos import delivery_breakdown, run_chaos_campaign
    from .campaign import run_campaign

    if variant.kind == "campaign":
        res = run_campaign(
            variant.use_case,
            duration_s=variant.duration_s,
            seed=variant.seed,
            tiebreak=variant.tiebreak,
        )
        breakdown = None
    else:
        res = run_chaos_campaign(
            variant.kind,
            use_case=variant.use_case,
            duration_s=variant.duration_s,
            seed=variant.seed,
            tiebreak=variant.tiebreak,
        )
        breakdown = delivery_breakdown(res)
    return SweepOutcome(
        variant=variant,
        table1=asdict(res.table1()),
        n_runs=len(res.runs),
        n_completed=len(res.completed_runs),
        breakdown=breakdown,
    )


def run_sweep(
    variants: Sequence[SweepVariant], jobs: int = 1
) -> list[SweepOutcome]:
    """Run every variant; return outcomes in ``variants`` order.

    ``jobs > 1`` fans the variants out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`.  ``Executor.map``
    yields results in submission order — not completion order — so the
    merge is deterministic by construction and the returned list is
    payload-identical to a serial run.
    """
    variants = list(variants)
    if jobs <= 1 or len(variants) <= 1:
        return [run_variant(v) for v in variants]
    workers = min(jobs, len(variants))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_variant, variants))


def _checked_use_cases(use_cases: Iterable[str]) -> list[str]:
    """``use_cases`` as a list; an unknown name raises ``ValueError``
    here, not as an exception propagated out of a worker mid-sweep."""
    from .campaign import use_case_by_name

    use_cases = list(use_cases)
    for uc in use_cases:
        use_case_by_name(uc)
    return use_cases


def campaign_grid(
    use_cases: Iterable[str] = ("hyperspectral", "spatiotemporal"),
    seeds: Iterable[int] = (1,),
    duration_s: float = 3600.0,
    tiebreaks: Iterable[str] = ("fifo",),
) -> list[SweepVariant]:
    """The clean-campaign grid: use cases x seeds x tie-breaks."""
    use_cases = _checked_use_cases(use_cases)
    return [
        SweepVariant(
            kind="campaign",
            use_case=uc,
            seed=seed,
            duration_s=duration_s,
            tiebreak=tb,
        )
        for uc in use_cases
        for seed in seeds
        for tb in tiebreaks
    ]


def chaos_grid(
    scenarios: Optional[Iterable[str]] = None,
    use_cases: Iterable[str] = ("hyperspectral",),
    seeds: Iterable[int] = (0, 1),
    duration_s: float = 3600.0,
    tiebreaks: Iterable[str] = ("fifo",),
) -> list[SweepVariant]:
    """The resilience grid: chaos scenarios x use cases x seeds."""
    from ..chaos import SCENARIOS

    if scenarios is None:
        scenarios = sorted(SCENARIOS)
    else:
        # Validate up front: an unknown name should fail here, not as an
        # exception propagated out of a worker process mid-sweep.
        scenarios = list(scenarios)
        unknown = [s for s in scenarios if s not in SCENARIOS]
        if unknown:
            from ..errors import ChaosError

            raise ChaosError(
                f"unknown scenario(s) {unknown}; available: {sorted(SCENARIOS)}"
            )
    use_cases = _checked_use_cases(use_cases)
    return [
        SweepVariant(
            kind=sc,
            use_case=uc,
            seed=seed,
            duration_s=duration_s,
            tiebreak=tb,
        )
        for sc in scenarios
        for uc in use_cases
        for seed in seeds
        for tb in tiebreaks
    ]


def render_sweep(outcomes: Sequence[SweepOutcome]) -> str:
    """One line per variant plus an aggregate delivery summary."""
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
    """The ``python -m repro sweep`` entry point.  An unknown use case is
    a usage error: exit status 2 with the message on stderr, before any
    worker starts."""
    import json
    import sys
    import time

    seeds = tuple(int(s) for s in args.seeds.split(","))
    use_cases = tuple(args.use_cases.split(","))
    try:
        if args.grid == "chaos":
            scenarios = tuple(args.scenarios.split(",")) if args.scenarios else None
            variants = chaos_grid(
                scenarios=scenarios,
                use_cases=use_cases,
                seeds=seeds,
                duration_s=args.duration,
            )
        else:
            variants = campaign_grid(
                use_cases=use_cases, seeds=seeds, duration_s=args.duration
            )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    t0 = time.perf_counter()
    outcomes = run_sweep(variants, jobs=jobs)
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
