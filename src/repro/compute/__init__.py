"""Globus-Compute-style federated function serving.

A cloud routing service, per-site endpoint agents, and a PBS-like batch
scheduler with cold-start (queue + boot + library-cache) and warm-node
reuse dynamics — the "Data Analysis" step of every flow (Sec. 2.2.2).
"""

from .endpoint import ComputeEndpoint, TaskOutcome
from .function import FunctionRegistry, RegisteredFunction
from .scheduler import BatchScheduler, Node
from .service import ComputeService, ComputeTask, ComputeTaskStatus

__all__ = [
    "ComputeService",
    "ComputeTask",
    "ComputeTaskStatus",
    "ComputeEndpoint",
    "TaskOutcome",
    "BatchScheduler",
    "Node",
    "FunctionRegistry",
    "RegisteredFunction",
]
