"""S-rules: discrete-event-simulation safety.

The DES kernel (:mod:`repro.sim`) has sharp edges the type system cannot
guard: a process generator must only yield :class:`~repro.sim.Event`
objects, and exception handlers inside process generators must not
silently swallow kernel failures.  These rules check the idioms
statically, on the same "process generator" heuristic the analyzer uses
(a generator function that takes or touches an ``env``).  A claimed
:class:`~repro.sim.Resource` unit that is never released is a path
property, so the CFG-based R504 (:mod:`.lifecycle`) owns it.
"""

from __future__ import annotations

import ast

from ..analyzer import FileContext, Rule, register
from ..diagnostics import Severity

__all__ = ["YieldNonEvent", "SwallowedSimError"]


@register
class YieldNonEvent(Rule):
    """S201: the kernel throws at runtime when a process yields a
    non-Event; catch the obvious literal cases at review time."""

    rule_id = "S201"
    severity = Severity.ERROR
    summary = "process generator yields a non-Event literal"
    interests = (ast.Yield,)

    def visit(self, ctx: FileContext, node: ast.Yield) -> None:
        if not ctx.in_process_generator:
            return
        value = node.value
        if value is None:
            ctx.report(
                self,
                node,
                "bare `yield` in a process generator yields None, which the "
                "kernel rejects — yield an Event (e.g. env.timeout(...))",
            )
            return
        if isinstance(value, (ast.Constant, ast.Tuple, ast.List, ast.Dict, ast.Set)):
            ctx.report(
                self,
                node,
                f"process generator yields a literal "
                f"({ast.dump(value)[:40]}...) — the kernel only accepts "
                f"Event objects",
            )


@register
class SwallowedSimError(Rule):
    """S203: a bare ``except:`` (anywhere), or an except handler inside a
    process generator that catches kernel/base exceptions and does
    nothing, hides simulation failures that should abort the run."""

    rule_id = "S203"
    severity = Severity.ERROR
    summary = "bare except / silently swallowed SimulationError"
    interests = (ast.ExceptHandler,)

    _BROAD = frozenset({"Exception", "BaseException", "SimulationError"})

    def visit(self, ctx: FileContext, node: ast.ExceptHandler) -> None:
        if node.type is None:
            ctx.report(
                self,
                node,
                "bare `except:` catches SystemExit/KeyboardInterrupt and "
                "kernel control-flow exceptions — name the exception types",
            )
            return
        if not ctx.in_process_generator:
            return
        caught = self._caught_names(node.type)
        if not (caught & self._BROAD):
            return
        if all(isinstance(stmt, ast.Pass) for stmt in node.body):
            ctx.report(
                self,
                node,
                f"except {'/'.join(sorted(caught & self._BROAD))} with a "
                f"pass-only body inside a process generator swallows "
                f"simulation failures — record the error or re-raise",
            )

    @staticmethod
    def _caught_names(type_node: ast.AST) -> set[str]:
        names: set[str] = set()
        nodes = (
            list(type_node.elts) if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for n in nodes:
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
        return names
