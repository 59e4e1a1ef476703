"""Globus-Flows/Gladier-style orchestration substrate.

Flow definitions (state sequences run in order, with parameter
templating), action providers over the transfer/compute/search
services, a run executor with the paper's exponential polling backoff,
and Gladier-style tool composition.
"""

from .action import ActionProvider, ActionState, ActionStatus, check_body
from .backoff import PAPER_BACKOFF, ExponentialBackoff
from .definition import FlowDefinition, FlowState, resolve_template
from .gladier import GladierClient, GladierTool
from .providers import (
    ComputeActionProvider,
    SearchIngestActionProvider,
    TransferActionProvider,
)
from .retry import (
    AttemptRecord,
    BacklogEntry,
    DEFAULT_RETRY_POLICY,
    DeadLetter,
    RetryPolicy,
)
from .run import FlowRun, RunStatus, StepRecord
from .service import FlowsService

__all__ = [
    "FlowDefinition",
    "FlowState",
    "resolve_template",
    "FlowsService",
    "FlowRun",
    "RunStatus",
    "StepRecord",
    "ActionProvider",
    "ActionState",
    "ActionStatus",
    "check_body",
    "ExponentialBackoff",
    "PAPER_BACKOFF",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "AttemptRecord",
    "DeadLetter",
    "BacklogEntry",
    "TransferActionProvider",
    "ComputeActionProvider",
    "SearchIngestActionProvider",
    "GladierClient",
    "GladierTool",
]
