"""Per-action retry/timeout policies and the dead-letter record.

The paper leans on Globus Flows to "manage the reliable execution" of
each step; this module is that reliability layer for the reproduction.
A :class:`RetryPolicy` bounds how the executor re-drives one action
provider when an attempt fails — service outage
(:class:`~repro.errors.ServiceUnavailable`), per-attempt sim-time
timeout (:class:`~repro.errors.ActionTimeout`), or a terminal FAILED
action — with seeded-jitter exponential backoff between attempts
(reusing :class:`~repro.flows.backoff.ExponentialBackoff`).

Exhaustion has two endings:

* **critical** states (the default) fail the run terminally and leave a
  :class:`DeadLetter` on the service — full attempt history, never a
  hung-ACTIVE run;
* **non-critical** states (``critical=False``, e.g. search publication)
  *degrade*: the run completes with ``run.degraded = True`` and the
  skipped action is queued as a :class:`BacklogEntry` in the service's
  catch-up backlog, drained when the outage ends.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import FlowError
from .backoff import ExponentialBackoff

__all__ = [
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "AttemptRecord",
    "DeadLetter",
    "BacklogEntry",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How the flow executor re-drives one action provider.

    Parameters
    ----------
    max_attempts:
        Total attempts (first try included).  The default of 1 means
        "no retry" and is bit-identical to the pre-policy executor.
    backoff:
        Wait policy *between* attempts (not the poll backoff).  Jitter
        draws come from the service's ``flows.retry`` RNG stream.
    attempt_timeout_s:
        Per-attempt sim-time budget from submission; when exceeded the
        attempt is abandoned (the deadline timer is withdrawn via
        ``Environment.cancel`` on normal completion so no timer leaks).
        ``None`` disables the timeout and creates no timer at all.
    critical:
        ``False`` marks the state safe to skip: on exhaustion the run
        degrades instead of failing (see module docstring).
    """

    max_attempts: int = 1
    backoff: ExponentialBackoff = ExponentialBackoff(
        initial=2.0, factor=2.0, max_interval=120.0
    )
    attempt_timeout_s: Optional[float] = None
    critical: bool = True

    def __post_init__(self) -> None:
        if not (isinstance(self.max_attempts, numbers.Integral) and self.max_attempts >= 1):
            raise FlowError(
                f"max_attempts must be an integer >= 1, got {self.max_attempts!r}"
            )
        timeout = self.attempt_timeout_s
        if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
            raise FlowError(f"attempt_timeout_s must be finite and positive, got {timeout}")


#: The no-retry policy every provider gets unless configured otherwise.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class AttemptRecord:
    """One attempt at driving an action to a terminal state."""

    number: int
    started_at: float
    ended_at: Optional[float] = None
    outcome: str = "active"  # succeeded | failed | unavailable | timeout
    error: Optional[str] = None

    def summary(self) -> dict[str, Any]:
        return {
            "number": self.number,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "outcome": self.outcome,
            "error": self.error,
        }


@dataclass
class DeadLetter:
    """A run that exhausted its retries on a critical state.

    The record carries the full attempt history so a campaign report can
    show *why* each dataset was dropped — the terminal counterpart of a
    hung-ACTIVE run, which the executor never leaves behind.
    """

    run_id: str
    flow_title: str
    state: str
    provider: str
    attempts: list[AttemptRecord]
    error: str
    recorded_at: float

    def summary(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "flow": self.flow_title,
            "state": self.state,
            "provider": self.provider,
            "attempts": [a.summary() for a in self.attempts],
            "error": self.error,
            "recorded_at": self.recorded_at,
        }


@dataclass
class BacklogEntry:
    """A degraded (skipped) non-critical action awaiting catch-up."""

    run_id: str
    state: str
    provider: str
    body: dict[str, Any] = field(default_factory=dict)
    enqueued_at: float = 0.0
    caught_up_at: Optional[float] = None
    error: Optional[str] = None

    @property
    def recovered(self) -> bool:
        return self.caught_up_at is not None

    @property
    def recovery_latency_s(self) -> Optional[float]:
        if self.caught_up_at is None:
            return None
        return self.caught_up_at - self.enqueued_at
