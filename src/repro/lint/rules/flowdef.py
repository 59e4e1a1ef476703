"""F-rules: static validation of literal flow definitions.

``FlowDefinition`` validates its state table at *construction* time, but
a flow wired at module import or deep inside a campaign only blows up
when that code path finally runs.  These rules evaluate **fully literal**
``FlowDefinition(...)``/``FlowState(...)`` constructions at review time:
dangling ``next`` targets, unreachable states, and provider names absent
from the action-provider registry.  Constructions with any dynamic part
(f-strings, variables, comprehensions) are skipped — the rules only
report what is certain.  ``$.states.X`` template paths are checked by
the F4xx dataflow pass (:mod:`.dataflow`), which walks the same chain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from ..analyzer import FileContext, Rule, register
from ..diagnostics import Severity

__all__ = [
    "DanglingTransition",
    "UnreachableState",
    "UnknownProvider",
    "LiteralState",
    "parse_literal_definition",
    "chain_order",
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
    """A FlowState(...) call whose name/next were literal strings."""

    node: ast.Call
    name: str
    next: Optional[str]
    has_literal_next: bool  # False when `next=` was present but dynamic
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
        next_node = _kw(elt, "next")
        if next_node is None:
            nxt, literal_next = None, True
        elif isinstance(next_node, ast.Constant) and next_node.value is None:
            nxt, literal_next = None, True
        else:
            nxt = _const_str(next_node)
            literal_next = nxt is not None
        provider_node = _kw(elt, "provider")
        if provider_node is None and len(elt.args) >= 2:
            provider_node = elt.args[1]
        out.append(
            LiteralState(
                node=elt,
                name=name,
                next=nxt,
                has_literal_next=literal_next,
                parameters=_kw(elt, "parameters"),
                provider=_const_str(provider_node),
            )
        )
    return out


def parse_literal_definition(
    call: ast.Call,
) -> Optional[tuple[Optional[str], list[LiteralState]]]:
    if _callee_name(call) != "FlowDefinition":
        return None
    states = _literal_states(_kw(call, "states"))
    if states is None:
        return None
    return _const_str(_kw(call, "start_at")), states


def chain_order(
    start_at: Optional[str], states: list[LiteralState]
) -> list[str]:
    """State names in execution order from ``start_at`` (cycle-safe)."""
    by_name = {s.name: s for s in states}
    order: list[str] = []
    current = start_at
    while current is not None and current in by_name and current not in order:
        order.append(current)
        s = by_name[current]
        current = s.next if s.has_literal_next else None
    return order


@register
class DanglingTransition(Rule):
    """F301: a literal ``next``/``start_at`` naming a state that does not
    exist fails only when the definition is finally constructed."""

    rule_id = "F301"
    severity = Severity.ERROR
    summary = "literal FlowDefinition has a dangling next/start_at target"
    interests = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.Call) -> None:
        parsed = parse_literal_definition(node)
        if parsed is None:
            return
        start_at, states = parsed
        names = {s.name for s in states}
        if start_at is not None and start_at not in names:
            ctx.report(
                self,
                node,
                f"start_at={start_at!r} is not among states "
                f"{sorted(names)}",
            )
        for s in states:
            if s.has_literal_next and s.next is not None and s.next not in names:
                ctx.report(
                    self,
                    s.node,
                    f"state {s.name!r} transitions to unknown state "
                    f"{s.next!r}",
                )


@register
class UnreachableState(Rule):
    """F302: states never visited from ``start_at`` are dead weight at
    best and a mis-wired flow at worst."""

    rule_id = "F302"
    severity = Severity.ERROR
    summary = "literal FlowDefinition contains unreachable states"
    interests = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.Call) -> None:
        parsed = parse_literal_definition(node)
        if parsed is None:
            return
        start_at, states = parsed
        names = {s.name for s in states}
        if start_at is None or start_at not in names:
            return  # F301's finding; reachability is meaningless
        if any(s.has_literal_next and s.next is not None and s.next not in names
               for s in states):
            return  # dangling target: chain is broken, F301 reports it
        reachable = set(chain_order(start_at, states))
        for s in states:
            if s.name not in reachable:
                ctx.report(
                    self,
                    s.node,
                    f"state {s.name!r} is unreachable from start_at="
                    f"{start_at!r}",
                )


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
