"""Named chaos scenarios.

Each scenario is a complete :class:`~repro.chaos.plan.ChaosPlan` sized
for the standard 1-hour campaign; ``run_campaign(..., chaos=name)`` runs
one by name, and ``python -m repro chaos`` prints its delivered-vs-dropped
breakdown.
"""

from __future__ import annotations

from typing import Any

from ..errors import ChaosError
from ..flows.backoff import ExponentialBackoff
from ..flows.retry import RetryPolicy
from ..transfer.faults import FaultPlan
from ..units import minutes
from .plan import (
    BitRotWindow,
    ChaosPlan,
    DataCorruptionSpec,
    LinkDegradation,
    NodeFailureSpec,
    OutageWindow,
    WatcherCrash,
)

__all__ = ["SCENARIOS", "scenario", "run_chaos_campaign", "delivery_breakdown"]

# Retry policies shared by the scenarios: jittered backoff spreads the
# retry storm after an outage; search publication is non-critical and
# degrades to the catch-up backlog instead of failing the run.
_TRANSFER_RETRY = RetryPolicy(
    max_attempts=4,
    backoff=ExponentialBackoff(initial=60.0, factor=2.0, max_interval=600.0, jitter=0.25),
)
_COMPUTE_RETRY = RetryPolicy(
    max_attempts=3,
    backoff=ExponentialBackoff(initial=45.0, factor=2.0, max_interval=600.0, jitter=0.25),
)
_SEARCH_RETRY = RetryPolicy(
    max_attempts=2,
    backoff=ExponentialBackoff(initial=30.0, factor=2.0, max_interval=240.0, jitter=0.25),
    critical=False,
)
_RETRIES = (
    ("transfer", _TRANSFER_RETRY),
    ("compute", _COMPUTE_RETRY),
    ("search_ingest", _SEARCH_RETRY),
)

SCENARIOS: dict[str, ChaosPlan] = {
    # Cloud outages: transfer drops for 7 minutes mid-campaign, search
    # for 10.  Transfer retries bridge the window; search degrades and
    # catches up from the backlog when the outage lifts.
    "outage": ChaosPlan(
        outages=(
            OutageWindow("transfer", start_s=minutes(15), duration_s=minutes(7)),
            OutageWindow("search", start_s=minutes(30), duration_s=minutes(10)),
        ),
        connect_timeout_s=20.0,
        retry_policies=_RETRIES,
    ),
    # Compute nodes die under tasks; the endpoint re-queues within its
    # budget and the executor retries the action above it.
    "node-flap": ChaosPlan(
        node_failures=NodeFailureSpec(prob=0.3, retry_budget=3, min_frac=0.2, max_frac=0.8),
        retry_policies=_RETRIES,
    ),
    # The site uplink sags to 10% for 10 minutes, then the backbone
    # blacks out entirely for 2 — in-flight streams stall and resume.
    "degraded-net": ChaosPlan(
        degradations=(
            LinkDegradation(
                "picoprobe-user-machine", "site-switch",
                start_s=minutes(10), duration_s=minutes(10), scale=0.1,
            ),
            LinkDegradation(
                "site-switch", "anl-backbone",
                start_s=minutes(40), duration_s=minutes(2), scale=0.0,
            ),
        ),
        retry_policies=_RETRIES,
    ),
    # The watcher app crashes mid-campaign and restarts cold, replaying
    # the directory through its checkpoint store.
    "watcher-crash": ChaosPlan(
        watcher_crashes=(WatcherCrash(at_s=minutes(12), down_s=minutes(8)),),
        retry_policies=_RETRIES,
    ),
    # Everything at once, plus the transfer layer's own per-attempt
    # fault plan.
    "full-storm": ChaosPlan(
        outages=(
            OutageWindow("transfer", start_s=minutes(15), duration_s=minutes(7)),
            OutageWindow("search", start_s=minutes(30), duration_s=minutes(10)),
        ),
        degradations=(
            LinkDegradation(
                "picoprobe-user-machine", "site-switch",
                start_s=minutes(45), duration_s=minutes(5), scale=0.2,
            ),
        ),
        node_failures=NodeFailureSpec(prob=0.15, retry_budget=3),
        watcher_crashes=(WatcherCrash(at_s=minutes(25), down_s=minutes(5)),),
        transfer_faults=FaultPlan(transient_prob=0.15, corrupt_prob=0.05, max_attempts=4),
        connect_timeout_s=20.0,
        retry_policies=_RETRIES,
    ),
    # Data goes bad everywhere it can: chunks mangled on the wire,
    # at-rest rot on the acquisition store mid-campaign, acquisitions
    # whose metadata never matched their payload, and the transfer
    # layer's own per-attempt checksum faults.  The integrity ledger
    # (auto-enabled) must repair or quarantine every one of them.
    "corruption": ChaosPlan(
        corruption=DataCorruptionSpec(
            chunk_corrupt_prob=0.04,
            chunk_truncate_prob=0.02,
            bitrot=(
                BitRotWindow(
                    fs="picoprobe-user",
                    start_s=minutes(5),
                    duration_s=minutes(20),
                    prob=0.25,
                    delay_s=1.0,
                ),
            ),
            meta_mismatch_prob=0.08,
        ),
        transfer_faults=FaultPlan(corrupt_prob=0.08, max_attempts=4),
        retry_policies=_RETRIES,
    ),
}


def scenario(name: str) -> ChaosPlan:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ChaosError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None


def run_chaos_campaign(
    plan: "ChaosPlan | str", use_case: str = "hyperspectral", **settings: Any
):
    """``run_campaign(use_case, chaos=plan, **settings)``, kept for the
    callers of this older entry point (the end-to-end benchmark).  An
    enabled plan drains inside :func:`repro.core.run_campaign`."""
    from ..core.campaign import run_campaign  # deferred: core imports chaos

    return run_campaign(use_case, chaos=plan, **settings)


def delivery_breakdown(result: Any) -> dict[str, Any]:
    """Delivered-vs-dropped accounting for a drained chaos campaign."""
    delivered = degraded = dead = failed = active = 0
    for run in result.runs:
        if not run.status.terminal:
            active += 1
        elif run.status.value == "SUCCEEDED":
            if run.degraded:
                degraded += 1
            else:
                delivered += 1
        else:
            flows = result.testbed.flows
            if any(d.run_id == run.run_id for d in flows.dead_letters):
                dead += 1
            else:
                failed += 1
    return {
        "runs": len(result.runs),
        "delivered": delivered,
        "degraded": degraded,
        "dead_lettered": dead,
        "failed_other": failed,
        "still_active": active,
    }
