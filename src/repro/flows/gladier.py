"""Gladier-style tool composition.

Gladier (the Globus Architecture for Data-Intensive Experimental
Research) lets an application author small reusable *tools* — each a
fragment of flow states — and compose them into a deployed flow.  The
paper implements both of its use cases this way (Sec. 2.2); so do we:
:mod:`repro.core.tools` defines the transfer/analysis/publication tools
and :class:`GladierClient` chains them into runnable flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..auth import Token
from ..errors import FlowDefinitionError
from .definition import FlowDefinition, FlowState
from .run import FlowRun
from .service import FlowsService

__all__ = ["GladierTool", "GladierClient"]


@dataclass(frozen=True)
class GladierTool:
    """A reusable fragment of flow states.

    A tool's states run in the order given; composition runs the tools
    one after another.
    """

    name: str
    states: tuple[FlowState, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise FlowDefinitionError(f"tool {self.name!r} has no states")


class GladierClient:
    """Compose tools into flows and run them via the flows service."""

    def __init__(self, flows: FlowsService, token: Token) -> None:
        self.flows = flows
        self.token = token
        self._deployed: dict[str, str] = {}  # title -> flow_id

    def compose(self, title: str, tools: Sequence[GladierTool]) -> FlowDefinition:
        """Concatenate the tools' states into one flow definition."""
        return FlowDefinition(
            title=title, states=tuple(s for tool in tools for s in tool.states)
        )

    def deploy(self, definition: FlowDefinition) -> str:
        """Deploy (memoized by title)."""
        flow_id = self._deployed.get(definition.title)
        if flow_id is None:
            flow_id = self.flows.deploy(definition)
            self._deployed[definition.title] = flow_id
        return flow_id

    def run_flow(
        self, definition: FlowDefinition, input: dict[str, Any]
    ) -> FlowRun:
        """Deploy if needed, then start a run."""
        flow_id = self.deploy(definition)
        return self.flows.run_flow(self.token, flow_id, input)
