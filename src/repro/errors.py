"""Exception hierarchy for the PicoProbe data-flow reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish infrastructure faults (transfer failures, scheduler
rejections, authorization denials) from programming errors (which surface as
ordinary :class:`ValueError`/:class:`TypeError`).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "FormatError",
    "AuthError",
    "PermissionDenied",
    "EndpointError",
    "TransferError",
    "ComputeError",
    "FunctionNotRegistered",
    "SchedulerError",
    "FlowError",
    "FlowDefinitionError",
    "ActionTimeout",
    "ServiceUnavailable",
    "SearchError",
    "SchemaError",
    "WatcherError",
    "CheckpointError",
    "CalibrationError",
    "ConfigError",
    "ChaosError",
    "EmptyWindowError",
    "StreamError",
    "IntegrityError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation kernel (e.g. yielding a
    non-event, running a finished environment backwards in time)."""


class FormatError(ReproError):
    """Corrupt or malformed h5lite/EMD container data."""


class AuthError(ReproError):
    """Authentication failure: unknown identity, expired or malformed token."""


class PermissionDenied(AuthError):
    """A token was valid but lacked the scope or ACL required for an action."""


class EndpointError(ReproError):
    """An endpoint (transfer or compute) is unreachable or misconfigured."""


class TransferError(ReproError):
    """A transfer task failed permanently (after exhausting retries)."""


class ComputeError(ReproError):
    """A remotely executed function raised, or the task was lost."""


class FunctionNotRegistered(ComputeError):
    """A task referenced a function id unknown to the compute service."""


class SchedulerError(ComputeError):
    """The batch scheduler rejected a job (bad resource request, shutdown)."""


class FlowError(ReproError):
    """A flow run failed permanently."""


class FlowDefinitionError(FlowError):
    """A flow definition is structurally invalid (no states, duplicate
    state names)."""


class ActionTimeout(FlowError):
    """A flow action exceeded its per-attempt sim-time timeout."""


class ServiceUnavailable(ReproError):
    """A cloud service was called during an outage window.

    Raised by a chaos :class:`~repro.chaos.ServiceGate` after the caller
    has burned ``connect_timeout_s`` of simulated time waiting for a
    connection; retry machinery reads that attribute to charge the wait.
    """

    def __init__(self, message: str, connect_timeout_s: float = 0.0) -> None:
        super().__init__(message)
        self.connect_timeout_s = float(connect_timeout_s)


class ConfigError(ReproError, ValueError):
    """A campaign setting is invalid (unknown use case or ingest mode, a
    non-finite duration, a negative seed, ...).  Raised by
    :class:`~repro.core.campaign.CampaignConfig` before anything is
    built; a ``ValueError`` too, so callers that catch bad arguments as
    such keep working."""


class ChaosError(ReproError):
    """A chaos plan or scenario is inconsistent (bad window, bad scale,
    unknown service name, or a filesystem or link the testbed lacks)."""


class EmptyWindowError(ReproError, ValueError):
    """No flow run of ``use_case`` completed inside a ``duration_s``
    campaign window, so there is no Table 1 row or run summary to
    report.  A ``ValueError`` too, as the bare check was before."""

    def __init__(self, use_case: str, duration_s: float) -> None:
        super().__init__(use_case, duration_s)
        self.use_case = use_case
        self.duration_s = duration_s

    def __str__(self) -> str:
        return (
            f"no {self.use_case} flow run completed in the "
            f"{self.duration_s:g} s campaign window"
        )


class SearchError(ReproError):
    """Search-index ingest or query failure."""


class SchemaError(SearchError):
    """A metadata document failed DataCite-style schema validation."""


class WatcherError(ReproError):
    """Directory-observer failure (e.g. watched root disappeared)."""


class CheckpointError(WatcherError):
    """Checkpoint store corruption or concurrent-writer conflict."""


class CalibrationError(ReproError):
    """Testbed calibration parameters are inconsistent or out of range."""


class StreamError(ReproError):
    """Streaming-ingest failure (publisher/receiver protocol violation)."""


class IntegrityError(ReproError):
    """A payload failed digest verification against its declared
    checksum — at rest (bit rot), in flight (chunk corruption), or on
    read before analysis.  Raising it marks the consuming task FAILED;
    the record is then quarantined rather than published."""
