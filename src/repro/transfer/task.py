"""Transfer task records and lifecycle states."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

__all__ = ["TaskStatus", "TransferTask"]


class TaskStatus(str, Enum):
    """Globus-Transfer-style task states."""

    QUEUED = "QUEUED"
    ACTIVE = "ACTIVE"
    SUCCEEDED = "SUCCEEDED"
    FAILED = "FAILED"

    @property
    def terminal(self) -> bool:
        return self in (TaskStatus.SUCCEEDED, TaskStatus.FAILED)


@dataclass
class TransferTask:
    """One submitted transfer and its observable history."""

    task_id: str
    owner: str
    source_endpoint: str
    source_path: str
    dest_endpoint: str
    dest_path: str
    nbytes: float
    requested_at: float
    status: TaskStatus = TaskStatus.QUEUED
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    attempts: int = 0
    faults: list[str] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def duration(self) -> Optional[float]:
        """Wall time from request to terminal state (None while active)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.requested_at
