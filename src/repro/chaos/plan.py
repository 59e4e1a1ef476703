"""Declarative, seeded fault-injection plans.

A :class:`ChaosPlan` is the campaign-wide generalization of the transfer
layer's per-attempt :class:`~repro.transfer.faults.FaultPlan`: one frozen
description of every fault the campaign will suffer — cloud-service
outage windows, network-link degradation events, compute-node failures,
and watcher crash/restart cycles — plus the recovery configuration
(per-provider :class:`~repro.flows.retry.RetryPolicy` and the connect
timeout an outage charges each caller).

All randomness is drawn from dedicated :mod:`repro.rng` streams at
injection time, so two campaigns with the same plan and seed suffer an
identical fault schedule; and :data:`NO_CHAOS` (the default everywhere)
injects nothing, draws nothing, and schedules nothing, keeping the clean
campaign bit-identical to one built before this subsystem existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..errors import ChaosError
from ..flows.retry import RetryPolicy
from ..transfer.faults import NO_FAULTS, FaultPlan

__all__ = [
    "CHAOS_SERVICES",
    "OutageWindow",
    "LinkDegradation",
    "NodeFailureSpec",
    "WatcherCrash",
    "BitRotWindow",
    "DataCorruptionSpec",
    "ChaosPlan",
    "NO_CHAOS",
]

#: Cloud services an :class:`OutageWindow` may target.
CHAOS_SERVICES = ("transfer", "compute", "search")


@dataclass(frozen=True)
class OutageWindow:
    """One cloud service is unreachable during ``[start_s, end_s)``.

    Calls made inside the window hang for the plan's connect timeout and
    then raise :class:`~repro.errors.ServiceUnavailable`.  Only the
    control plane is gated: work already handed to the data plane (bytes
    on the fabric, tasks on nodes) keeps running.
    """

    service: str
    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.service not in CHAOS_SERVICES:
            raise ChaosError(
                f"unknown service {self.service!r}; expected one of {CHAOS_SERVICES}"
            )
        if self.start_s < 0:
            raise ChaosError(f"outage start must be >= 0, got {self.start_s}")
        if self.duration_s <= 0:
            raise ChaosError(f"outage duration must be positive, got {self.duration_s}")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    def covers(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


@dataclass(frozen=True)
class LinkDegradation:
    """A network link's capacity drops to ``scale`` of nominal during
    ``[start_s, start_s + duration_s)``.

    ``scale=0.0`` is a full blackout — streams crossing the link stall
    at zero rate and resume when health returns (the fabric's existing
    re-admission machinery handles both edges).
    """

    a: str
    b: str
    start_s: float
    duration_s: float
    scale: float

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ChaosError(f"degradation start must be >= 0, got {self.start_s}")
        if self.duration_s <= 0:
            raise ChaosError(
                f"degradation duration must be positive, got {self.duration_s}"
            )
        if not 0.0 <= self.scale < 1.0:
            raise ChaosError(f"degradation scale must be in [0, 1), got {self.scale}")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class NodeFailureSpec:
    """Per-task probability that the executing compute node dies.

    On each execution attempt the endpoint draws from its chaos stream:
    with probability ``prob`` the node fails after burning a uniform
    ``[min_frac, max_frac]`` fraction of the task's compute charge.  The
    node is lost (returned to the batch pool cold) and the task re-queues
    until ``retry_budget`` failures have accumulated.
    """

    prob: float
    retry_budget: int = 2
    min_frac: float = 0.1
    max_frac: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ChaosError(f"failure prob must be in [0, 1], got {self.prob}")
        if self.retry_budget < 0:
            raise ChaosError(f"retry_budget must be >= 0, got {self.retry_budget}")
        if not 0.0 <= self.min_frac <= self.max_frac <= 1.0:
            raise ChaosError(
                f"need 0 <= min_frac <= max_frac <= 1, got "
                f"[{self.min_frac}, {self.max_frac}]"
            )

    def draw(self, rng: Any) -> Optional[float]:
        """One seeded draw: ``None`` (no failure) or the fraction of the
        task's charge burned before the node dies."""
        if self.prob <= 0.0:
            return None
        if float(rng.uniform()) >= self.prob:
            return None
        return float(rng.uniform(self.min_frac, self.max_frac))


@dataclass(frozen=True)
class WatcherCrash:
    """The watcher application dies at ``at_s`` and restarts ``down_s``
    later, recovering via a checkpoint-deduplicated directory replay."""

    at_s: float
    down_s: float

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ChaosError(f"crash time must be >= 0, got {self.at_s}")
        if self.down_s <= 0:
            raise ChaosError(f"downtime must be positive, got {self.down_s}")


@dataclass(frozen=True)
class BitRotWindow:
    """At-rest corruption: files *created* on filesystem ``fs`` during
    ``[start_s, start_s + duration_s)`` rot with probability ``prob``,
    ``delay_s`` seconds after creation.

    The rot is silent — no subscriber is notified — so only a digest
    verification downstream (transfer re-check, verify-on-read, the
    end-of-campaign scrub) can observe it, exactly like real storage.
    """

    fs: str
    start_s: float
    duration_s: float
    prob: float
    delay_s: float = 1.0

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ChaosError(f"bit-rot start must be >= 0, got {self.start_s}")
        if self.duration_s <= 0:
            raise ChaosError(
                f"bit-rot duration must be positive, got {self.duration_s}"
            )
        if not 0.0 <= self.prob <= 1.0:
            raise ChaosError(f"bit-rot prob must be in [0, 1], got {self.prob}")
        if self.delay_s < 0:
            raise ChaosError(f"bit-rot delay must be >= 0, got {self.delay_s}")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass(frozen=True)
class DataCorruptionSpec:
    """Seeded data-corruption faults, the integrity subsystem's adversary.

    Three fault classes, all deterministic under the campaign seed:

    * **in-flight chunk corruption/truncation** — each streamed chunk is
      independently mangled on the wire with ``chunk_corrupt_prob`` or
      cut short with ``chunk_truncate_prob`` (single partitioned draw,
      like :class:`~repro.transfer.faults.FaultPlan`);
    * **at-rest bit rot** — :class:`BitRotWindow` entries;
    * **metadata–payload mismatch** — with ``meta_mismatch_prob`` a
      freshly acquired file's payload never matched its declared
      checksum in the first place.

    Arming any of these requires the campaign's integrity ledger
    (:class:`~repro.core.campaign.CampaignConfig` enforces it):
    corruption without verification would be *silent*, which is the
    failure mode this subsystem exists to rule out.
    """

    chunk_corrupt_prob: float = 0.0
    chunk_truncate_prob: float = 0.0
    bitrot: tuple[BitRotWindow, ...] = ()
    meta_mismatch_prob: float = 0.0
    meta_mismatch_fs: str = "picoprobe-user"

    def __post_init__(self) -> None:
        for name in ("chunk_corrupt_prob", "chunk_truncate_prob", "meta_mismatch_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ChaosError(f"{name} must be a probability, got {v}")
        total = self.chunk_corrupt_prob + self.chunk_truncate_prob
        if total > 1.0:
            raise ChaosError(
                "chunk_corrupt_prob + chunk_truncate_prob must not exceed 1, "
                f"got {total}"
            )

    @property
    def enabled(self) -> bool:
        return bool(
            self.chunk_corrupt_prob > 0
            or self.chunk_truncate_prob > 0
            or self.bitrot
            or self.meta_mismatch_prob > 0
        )

    @property
    def chunk_faults(self) -> bool:
        return self.chunk_corrupt_prob > 0 or self.chunk_truncate_prob > 0


@dataclass(frozen=True)
class ChaosPlan:
    """Everything that will go wrong in one campaign, declared up front.

    ``retry_policies`` maps action-provider names (``"transfer"``,
    ``"compute"``, ``"search_ingest"``) to the
    :class:`~repro.flows.retry.RetryPolicy` the flow executor applies;
    ``transfer_faults`` rides along as the existing per-attempt
    :class:`~repro.transfer.faults.FaultPlan`; ``connect_timeout_s`` is
    the sim-time a caller burns before an outage surfaces.
    """

    outages: tuple[OutageWindow, ...] = ()
    degradations: tuple[LinkDegradation, ...] = ()
    node_failures: Optional[NodeFailureSpec] = None
    watcher_crashes: tuple[WatcherCrash, ...] = ()
    transfer_faults: FaultPlan = NO_FAULTS
    corruption: Optional[DataCorruptionSpec] = None
    connect_timeout_s: float = 15.0
    retry_policies: tuple[tuple[str, RetryPolicy], ...] = ()

    def __post_init__(self) -> None:
        if self.connect_timeout_s < 0:
            raise ChaosError(
                f"connect_timeout_s must be >= 0, got {self.connect_timeout_s}"
            )
        # Overlapping windows for one service would make "which window
        # rejected me" ambiguous in reports; forbid them.
        by_service: dict[str, list[OutageWindow]] = {}
        for w in self.outages:
            by_service.setdefault(w.service, []).append(w)
        for service, windows in by_service.items():
            windows.sort(key=lambda w: w.start_s)
            for prev, cur in zip(windows, windows[1:]):
                if cur.start_s < prev.end_s:
                    raise ChaosError(
                        f"overlapping outage windows for {service!r}: "
                        f"[{prev.start_s}, {prev.end_s}) and "
                        f"[{cur.start_s}, {cur.end_s})"
                    )
        names = [n for n, _ in self.retry_policies]
        if len(names) != len(set(names)):
            raise ChaosError(f"duplicate retry-policy entries: {names}")

    @property
    def enabled(self) -> bool:
        """True when the plan injects or reconfigures *anything*.

        A disabled plan must leave the campaign bit-identical to one
        that never heard of chaos — the controller is not even built.
        """
        return bool(
            self.outages
            or self.degradations
            or self.watcher_crashes
            or (self.node_failures is not None and self.node_failures.prob > 0)
            or self.transfer_faults != NO_FAULTS
            or self.corrupts
            or self.retry_policies
        )

    @property
    def corrupts(self) -> bool:
        """True when the plan injects data corruption, which the
        campaign's integrity ledger must then detect."""
        return self.corruption is not None and self.corruption.enabled

    def policy_map(self) -> dict[str, RetryPolicy]:
        return dict(self.retry_policies)


#: The default everywhere: inject nothing, reconfigure nothing.
NO_CHAOS = ChaosPlan()
