"""Flow definitions: a titled sequence of states, run in order.

A :class:`FlowDefinition` is a tuple of :class:`FlowState` entries, each
binding an action provider to a parameter template; a run executes them
in tuple order.  Parameter templates use a JSONPath-like subset: any
string value beginning with ``"$."`` is resolved against the run
context, e.g. ``"$.input.source_path"`` or
``"$.states.TransferData.task_id"``, which is how Globus Flows threads
one step's output into the next.  A doubled sigil escapes: ``"$$.raw"``
passes the literal string ``"$.raw"`` through unresolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..errors import FlowDefinitionError

__all__ = ["FlowState", "FlowDefinition", "resolve_template"]


def resolve_template(value: Any, context: dict[str, Any]) -> Any:
    """Recursively resolve ``$.`` references in ``value`` against
    ``context``.  Unknown paths raise :class:`FlowDefinitionError`
    naming the first path segment that failed to resolve.

    A literal string that genuinely starts with ``$.`` is written with a
    doubled sigil: ``"$$.literal"`` resolves to the plain string
    ``"$.literal"`` without any context lookup.
    """
    if isinstance(value, str) and value.startswith("$$."):
        return value[1:]  # escape: "$$.x" -> literal "$.x"
    if isinstance(value, str) and value.startswith("$."):
        node: Any = context
        path = value[2:]
        for part in path.split("."):
            if isinstance(node, dict) and part in node:
                node = node[part]
            else:
                available = sorted(node) if isinstance(node, dict) else type(node).__name__
                raise FlowDefinitionError(
                    f"template path {value!r}: segment {part!r} not found "
                    f"in run context (available here: {available})"
                )
        return node
    if isinstance(value, dict):
        return {k: resolve_template(v, context) for k, v in value.items()}
    if isinstance(value, list):
        return [resolve_template(v, context) for v in value]
    return value


@dataclass(frozen=True)
class FlowState:
    """One step: which provider to call, with what (templated) body."""

    name: str
    provider: str
    parameters: dict[str, Any] = field(default_factory=dict)

    def resolve(self, context: dict[str, Any]) -> dict[str, Any]:
        return resolve_template(self.parameters, context)


@dataclass(frozen=True)
class FlowDefinition:
    """A validated flow: a title and its states in execution order."""

    title: str
    states: tuple[FlowState, ...]

    def __post_init__(self) -> None:
        names = [s.name for s in self.states]
        if not names:
            raise FlowDefinitionError(f"flow {self.title!r} has no states")
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise FlowDefinitionError(f"duplicate state names: {sorted(dupes)}")
