"""Flow-run records: per-step timing that Fig. 4 is built from."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from ..sim import Event
from .retry import AttemptRecord

__all__ = ["RunStatus", "StepRecord", "FlowRun"]


class RunStatus(str, Enum):
    ACTIVE = "ACTIVE"
    SUCCEEDED = "SUCCEEDED"
    FAILED = "FAILED"

    @property
    def terminal(self) -> bool:
        return self is not RunStatus.ACTIVE


@dataclass
class StepRecord:
    """Observed timing of one flow state.

    ``active_seconds`` is the provider-reported processing time;
    ``overhead_seconds`` is everything else the flow spent on this step:
    pre-submit transition latency, polling detection lag, and poll
    round-trips.
    """

    name: str
    provider: str
    action_id: str = ""
    entered_at: float = 0.0  # transition into the state began
    submitted_at: float = 0.0  # provider.run returned
    detected_at: float = 0.0  # terminal status observed
    active_seconds: float = 0.0
    polls: int = 0
    result: dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    #: Full retry history (one entry per attempt, first try included).
    attempt_history: list[AttemptRecord] = field(default_factory=list)
    #: True when a non-critical state was skipped under an outage and
    #: queued into the catch-up backlog instead of failing the run.
    degraded: bool = False

    @property
    def attempts(self) -> int:
        """Number of attempts made at this state (>= 1 once submitted)."""
        return len(self.attempt_history)

    @property
    def observed_seconds(self) -> float:
        """Wall time the flow spent on this state."""
        return self.detected_at - self.entered_at

    @property
    def overhead_seconds(self) -> float:
        return max(0.0, self.observed_seconds - self.active_seconds)


@dataclass
class FlowRun:
    """One execution of a flow definition."""

    run_id: str
    flow_title: str
    input: dict[str, Any]
    status: RunStatus = RunStatus.ACTIVE
    started_at: float = 0.0
    finished_at: Optional[float] = None
    steps: list[StepRecord] = field(default_factory=list)
    error: Optional[str] = None
    completed: Optional[Event] = None  # fires at terminal status
    #: True when at least one non-critical state was skipped (its work
    #: was queued for catch-up rather than performed inline).
    degraded: bool = False

    # -- aggregate timing --------------------------------------------------
    def _now(self) -> Optional[float]:
        """Current sim time, when the run can see a clock (via its
        completion event's environment)."""
        if self.completed is not None:
            return self.completed.env.now
        return None

    @property
    def runtime_seconds(self) -> float:
        """Total flow runtime (paper: 'flow runtime').

        For an in-flight run this is the elapsed runtime *so far* (read
        from the simulation clock) rather than 0.0.
        """
        if self.finished_at is not None:
            return self.finished_at - self.started_at
        now = self._now()
        if now is None:
            # Clockless record (e.g. hand-built in tests): elapsed
            # runtime is unknowable, so report zero as before.
            return 0.0
        return max(0.0, now - self.started_at)

    @property
    def active_seconds(self) -> float:
        """Time actively processing steps (paper: 'Active')."""
        return sum(s.active_seconds for s in self.steps)

    @property
    def overhead_seconds(self) -> float:
        """Runtime not spent actively processing (paper: 'overhead')."""
        return max(0.0, self.runtime_seconds - self.active_seconds)

    @property
    def overhead_fraction(self) -> float:
        rt = self.runtime_seconds
        return self.overhead_seconds / rt if rt > 0 else 0.0

    def step(self, name: str) -> StepRecord:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)
