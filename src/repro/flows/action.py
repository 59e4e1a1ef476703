"""Action-provider interface: the pluggable steps a flow orchestrates.

Globus Flows drives *action providers* — services exposing a run/poll
lifecycle.  Each provider here adapts one substrate service (transfer,
compute, search ingest) to that lifecycle; the executor submits a body,
then polls :meth:`ActionProvider.status` until a terminal state.

Payload schemas
---------------
Every provider declares two **literal** class attributes so the
``repro.lint`` F4xx dataflow pass can statically prove that a flow's
``$.``-template references are actually produced upstream:

``input_schema``
    ``{parameter name: type}`` for the keys :meth:`ActionProvider.run`
    accepts in its body.  A trailing ``?`` on the name marks the
    parameter optional (``"codec?": "str"``); all others are required.

``output_schema``
    ``{key: type}`` for the payload the provider puts in
    ``ActionStatus.result`` on success — exactly the keys downstream
    states may reference as ``$.states.<Name>.<key>``.

Types are ``str``, ``int``, ``float``, ``bool``, ``dict``, ``list``,
``number`` (int or float) and ``any`` (not checked).  Both dicts must
be written as plain string literals: the analyzer reads them by AST
scan, never by importing the module (see
:func:`repro.lint.discover_provider_schemas`).
:func:`check_body` applies the same contract dynamically for providers
that want an early, readable error instead of a ``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Optional, Protocol, runtime_checkable

__all__ = [
    "ActionState",
    "ActionStatus",
    "ActionProvider",
    "check_body",
]


def check_body(
    provider_name: str,
    input_schema: Mapping[str, str],
    body: Mapping[str, Any],
) -> None:
    """Validate a run body against a declared input schema.

    Raises ``ValueError`` naming every missing required parameter and
    every undeclared one — a readable failure at submission time rather
    than a ``KeyError`` deep inside the provider.
    """
    required = {k for k in input_schema if not k.endswith("?")}
    accepted = {k.rstrip("?") for k in input_schema}
    missing = sorted(required - set(body))
    unknown = sorted(set(body) - accepted)
    problems = []
    if missing:
        problems.append(f"missing required parameter(s) {missing}")
    if unknown:
        problems.append(f"undeclared parameter(s) {unknown}")
    if problems:
        raise ValueError(
            f"provider {provider_name!r}: " + "; ".join(problems)
            + f" (declared: {sorted(accepted)})"
        )


class ActionState(str, Enum):
    ACTIVE = "ACTIVE"
    SUCCEEDED = "SUCCEEDED"
    FAILED = "FAILED"

    @property
    def terminal(self) -> bool:
        return self is not ActionState.ACTIVE


@dataclass(frozen=True)
class ActionStatus:
    """Snapshot returned by polling an action.

    ``active_seconds`` is the provider's accounting of time spent
    actually processing (the paper's "Active" time); the executor derives
    orchestration overhead as *observed* step time minus this.
    """

    state: ActionState
    result: dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    active_seconds: float = 0.0


@runtime_checkable
class ActionProvider(Protocol):
    """Anything a flow state can drive."""

    #: Registry key referenced by flow definitions.
    name: str
    #: Literal parameter schema for ``run`` bodies (see module docstring).
    input_schema: dict[str, str]
    #: Literal payload schema for ``ActionStatus.result`` on success.
    output_schema: dict[str, str]

    def run(self, body: dict[str, Any]) -> str:
        """Start the action; returns an action id."""
        ...

    def status(self, action_id: str) -> ActionStatus:
        """Poll the action's current status."""
        ...
