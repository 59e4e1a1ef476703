"""Action providers adapting the substrate services to the flow model.

Each provider exposes the run/poll lifecycle the executor drives:

* :class:`TransferActionProvider` — wraps :class:`TransferService`
  (the "Data Transfer" step);
* :class:`ComputeActionProvider` — wraps :class:`ComputeService`
  (the "Data Analysis" step);
* :class:`SearchIngestActionProvider` — wraps :class:`SearchService`
  (the "Data Publication" step).

Active-time accounting: each provider reports the elapsed time of its
underlying task (submission to terminal state) as ``active_seconds``;
everything else the flow spends on a step — polling detection lag and
transition latency — is orchestration overhead, exactly the quantity
Fig. 4 separates out.
"""

from __future__ import annotations

import itertools
from typing import Any

from ..auth import Token
from ..compute import ComputeService, ComputeTaskStatus
from ..errors import FlowError, ServiceUnavailable
from ..obs import NULL_OBS
from ..search import SearchService
from ..sim import Environment
from ..transfer import TaskStatus, TransferService
from .action import ActionState, ActionStatus, check_body

__all__ = [
    "TransferActionProvider",
    "ComputeActionProvider",
    "SearchIngestActionProvider",
]


class TransferActionProvider:
    """Flow step: move a file between transfer endpoints."""

    name = "transfer"
    input_schema = {
        "source_endpoint": "str",
        "source_path": "str",
        "dest_endpoint": "str",
        "dest_path": "str",
    }
    output_schema = {
        "task_id": "str",
        "dest_endpoint": "str",
        "dest_path": "str",
        "bytes": "number",
        "attempts": "int",
    }

    def __init__(self, service: TransferService, token: Token) -> None:
        self.service = service
        self.token = token

    def run(self, body: dict[str, Any]) -> str:
        check_body(self.name, self.input_schema, body)
        return self.service.submit(
            self.token,
            source_endpoint=body["source_endpoint"],
            source_path=body["source_path"],
            dest_endpoint=body["dest_endpoint"],
            dest_path=body["dest_path"],
        )

    def status(self, action_id: str) -> ActionStatus:
        task = self.service.task_record(action_id)
        if task.status is TaskStatus.SUCCEEDED:
            return ActionStatus(
                state=ActionState.SUCCEEDED,
                result={
                    "task_id": task.task_id,
                    "dest_endpoint": task.dest_endpoint,
                    "dest_path": task.dest_path,
                    "bytes": task.nbytes,
                    "attempts": task.attempts,
                },
                active_seconds=task.duration or 0.0,
            )
        if task.status is TaskStatus.FAILED:
            return ActionStatus(
                state=ActionState.FAILED,
                error=task.error or "transfer failed",
                active_seconds=task.duration or 0.0,
            )
        return ActionStatus(state=ActionState.ACTIVE)


class ComputeActionProvider:
    """Flow step: run a registered function on a compute endpoint."""

    name = "compute"
    input_schema = {
        "endpoint": "str",
        "function_id": "str",
        "args?": "list",
        "kwargs?": "dict",
    }
    output_schema = {
        "task_id": "str",
        "output": "dict",
        "node_id": "str",
        "cold_start": "bool",
    }

    def __init__(self, service: ComputeService, token: Token) -> None:
        self.service = service
        self.token = token

    def run(self, body: dict[str, Any]) -> str:
        check_body(self.name, self.input_schema, body)
        args = tuple(body.get("args", ()))
        kwargs = dict(body.get("kwargs", {}))
        return self.service.submit(
            self.token, body["endpoint"], body["function_id"], *args, **kwargs
        )

    def status(self, action_id: str) -> ActionStatus:
        task = self.service.task_record(action_id)
        if task.status is ComputeTaskStatus.SUCCESS:
            elapsed = (task.completed_at or 0.0) - task.submitted_at
            return ActionStatus(
                state=ActionState.SUCCEEDED,
                result={
                    "task_id": task.task_id,
                    "output": task.outcome.result,
                    "node_id": task.outcome.node_id,
                    "cold_start": task.outcome.cold_start,
                },
                active_seconds=elapsed,
            )
        if task.status is ComputeTaskStatus.FAILED:
            elapsed = (task.completed_at or 0.0) - task.submitted_at
            return ActionStatus(
                state=ActionState.FAILED,
                error=task.outcome.error if task.outcome else "compute failed",
                active_seconds=elapsed,
            )
        return ActionStatus(state=ActionState.ACTIVE)


class SearchIngestActionProvider:
    """Flow step: publish a metadata record to a search index."""

    name = "search_ingest"
    input_schema = {
        "index": "str",
        "subject": "str",
        "content": "dict",
        "visible_to?": "list",
    }
    output_schema = {"subject": "str"}

    def __init__(
        self,
        env: Environment,
        service: SearchService,
        token: Token,
        obs: Any = NULL_OBS,
    ) -> None:
        self.env = env
        self.service = service
        self.token = token
        self.tracer = obs.tracer
        #: Integrity hook: a duck-typed
        #: :class:`~repro.integrity.IntegrityLedger`.  When set, every
        #: ingest must present a closed digest chain for its subject;
        #: an open chain quarantines the record instead of indexing it.
        self.ledger: Any = None
        self._ids = itertools.count(1)
        self._actions: dict[str, dict] = {}

    def run(self, body: dict[str, Any]) -> str:
        check_body(self.name, self.input_schema, body)
        # Surface an outage synchronously at submission so the executor's
        # retry policy handles it (connect-timeout charge + backoff).
        self.service.check_available()
        action_id = f"ingest-{next(self._ids):06d}"
        record = {
            "status": "ACTIVE",
            "started_at": self.env.now,
            "completed_at": None,
            "error": None,
            "subject": body.get("subject"),
        }
        self._actions[action_id] = record
        # Span window matches the active interval this provider reports
        # (started_at → completed_at) so Fig. 4 derives exactly from it.
        span = (
            self.tracer.start("search.ingest")
            .set("action_id", action_id)
            .set("subject", str(body.get("subject")))
        )
        self.env.process(self._drive(record, body, span))
        return action_id

    def _drive(self, record: dict, body: dict[str, Any], span: Any):
        try:
            if self.ledger is not None:
                ok, reason = self.ledger.check_publishable(body.get("subject"))
                if not ok:
                    record["status"] = "FAILED"
                    record["error"] = f"IntegrityError: {reason}"
                    record["completed_at"] = self.env.now
                    span.set("status", "QUARANTINED")
                    return
            try:
                yield from self.service.ingest(
                    self.token,
                    index=body["index"],
                    subject=body["subject"],
                    content=body["content"],
                    visible_to=body.get("visible_to", ("public",)),
                )
            except ServiceUnavailable as exc:
                # Outage hit mid-action: the client hangs for the connect
                # timeout, then the action reports FAILED and the
                # executor's retry policy takes over.
                if exc.connect_timeout_s > 0:
                    yield self.env.timeout(exc.connect_timeout_s)
                record["status"] = "FAILED"
                record["error"] = f"{type(exc).__name__}: {exc}"
            except Exception as exc:
                record["status"] = "FAILED"
                record["error"] = f"{type(exc).__name__}: {exc}"
            else:
                record["status"] = "SUCCEEDED"
            record["completed_at"] = self.env.now
            span.set("status", record["status"])
        finally:
            span.finish()

    def status(self, action_id: str) -> ActionStatus:
        try:
            record = self._actions[action_id]
        except KeyError:
            raise FlowError(f"unknown ingest action: {action_id!r}") from None
        if record["status"] == "ACTIVE":
            return ActionStatus(state=ActionState.ACTIVE)
        elapsed = record["completed_at"] - record["started_at"]
        if record["status"] == "FAILED":
            return ActionStatus(
                state=ActionState.FAILED, error=record["error"], active_seconds=elapsed
            )
        return ActionStatus(
            state=ActionState.SUCCEEDED,
            result={"subject": record["subject"]},
            active_seconds=elapsed,
        )
