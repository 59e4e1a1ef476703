"""F304 and the literal flow-definition parser.

A ``FlowState`` naming a provider outside the action-provider registry
deploys, then fails every run at that step; F304 reports it at review
time.  :func:`parse_literal_definition` reads a **fully literal**
``FlowDefinition(...)`` construction into its states, in tuple order
(the order a run executes them); the F4xx dataflow pass
(:mod:`.dataflow`) walks that list to check ``$.states.X`` template
paths.  Constructions with any dynamic part (f-strings, variables,
comprehensions) are skipped: the rules only report what is certain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from ..analyzer import FileContext, Rule, register
from ..diagnostics import Severity

__all__ = [
    "UnknownProvider",
    "LiteralState",
    "parse_literal_definition",
]


def _callee_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _kw(call: ast.Call, name: str) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _const_str(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


@dataclass
class LiteralState:
    """A FlowState(...) call whose name was a literal string."""

    node: ast.Call
    name: str
    parameters: Optional[ast.AST]
    provider: Optional[str] = None  # None when absent or dynamic


def _literal_states(states_node: Optional[ast.AST]) -> Optional[list[LiteralState]]:
    """Parse a literal tuple/list of FlowState(...) calls; ``None`` when
    anything is dynamic (so callers skip the whole definition)."""
    if not isinstance(states_node, (ast.Tuple, ast.List)):
        return None
    out: list[LiteralState] = []
    for elt in states_node.elts:
        if not (isinstance(elt, ast.Call) and _callee_name(elt) == "FlowState"):
            return None
        name = _const_str(_kw(elt, "name"))
        if name is None and elt.args:
            name = _const_str(elt.args[0])
        if name is None:
            return None
        provider_node = _kw(elt, "provider")
        if provider_node is None and len(elt.args) >= 2:
            provider_node = elt.args[1]
        out.append(
            LiteralState(
                node=elt,
                name=name,
                parameters=_kw(elt, "parameters"),
                provider=_const_str(provider_node),
            )
        )
    return out


def parse_literal_definition(call: ast.Call) -> Optional[list[LiteralState]]:
    """The states of a literal ``FlowDefinition(...)`` call in execution
    order; ``None`` for any other call or a dynamic ``states``."""
    if _callee_name(call) != "FlowDefinition":
        return None
    return _literal_states(_kw(call, "states"))


@register
class UnknownProvider(Rule):
    """F304: a provider name outside the action-provider registry means
    the flow deploys but every run fails at that step."""

    rule_id = "F304"
    severity = Severity.ERROR
    summary = "FlowState provider not in the provider registry"
    interests = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.Call) -> None:
        if _callee_name(node) != "FlowState":
            return
        provider_node = _kw(node, "provider")
        if provider_node is None and len(node.args) >= 2:
            provider_node = node.args[1]
        provider = _const_str(provider_node)
        if provider is None:
            return
        known = ctx.config.known_providers
        if known and provider not in known:
            ctx.report(
                self,
                provider_node,
                f"provider {provider!r} is not registered "
                f"(known: {sorted(known)})",
            )
