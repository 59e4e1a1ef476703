"""Discrete-event simulation kernel.

The kernel executes the paper's 1-hour campaigns deterministically in
milliseconds while preserving event ordering, queueing, and overlap.  See
:mod:`repro.sim.core` for the process model and its one dispatch loop,
:mod:`repro.sim.resources` for shared resources, and
:mod:`repro.sim.trace` / :mod:`repro.sim.sanitize` for the observers
that attach to that loop as dispatch hooks.
"""

from .core import (
    URGENT,
    NORMAL,
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Process,
    Timeout,
)
from .resources import Request, Resource, Store
from .sanitize import RaceReport, ScheduleSanitizer
from .trace import EventTraceRecorder

__all__ = [
    "Environment",
    "ScheduleSanitizer",
    "RaceReport",
    "EventTraceRecorder",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Resource",
    "Request",
    "Store",
    "URGENT",
    "NORMAL",
]
