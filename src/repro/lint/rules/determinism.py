"""D-rules: determinism under a seed.

Every campaign replay rests on the DES kernel seeing identical inputs,
so scheduling-relevant code must not read the wall clock, draw from
unseeded global RNGs, or depend on the process environment.  These
rules catch each escape hatch at the AST level.  Unordered iteration and
object identity are hazards only where their order reaches the kernel,
a result or a comparison; the flow-sensitive N701/N703/N704 rules
(:mod:`.ordering`) own them.
"""

from __future__ import annotations

import ast

from ..analyzer import FileContext, Rule, register
from ..diagnostics import Severity

__all__ = [
    "WallClockCall",
    "WallSleep",
    "GlobalRandom",
    "LegacyNumpyRandom",
    "EnvVarRead",
]

#: Canonical names that read the wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: numpy.random entry points that ARE the seeded-stream API.
NP_RANDOM_OK = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.Philox",
    }
)


@register
class WallClockCall(Rule):
    """D101: wall-clock reads make replays diverge from recorded runs."""

    rule_id = "D101"
    severity = Severity.ERROR
    summary = "wall-clock call in deterministic code"
    interests = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.Call) -> None:
        name = ctx.resolver.resolve_call(node)
        if name in WALL_CLOCK_CALLS:
            ctx.report(
                self,
                node,
                f"wall-clock call {name}() — simulated components must take "
                f"time from Environment.now (or an injected clock)",
            )


@register
class WallSleep(Rule):
    """D102: blocking sleeps stall the event loop and tie tests to real
    time; only the real-filesystem polling observer may sleep."""

    rule_id = "D102"
    severity = Severity.ERROR
    summary = "time.sleep outside the wall-clock allowlist"
    interests = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.Call) -> None:
        if ctx.resolver.resolve_call(node) == "time.sleep":
            ctx.report(
                self,
                node,
                "time.sleep() — use env.timeout(delay) in simulation code, "
                "or accept an injectable sleep callable",
            )


@register
class GlobalRandom(Rule):
    """D103: the global ``random`` module is shared mutable state; any
    import-order change silently reorders every draw."""

    rule_id = "D103"
    severity = Severity.ERROR
    summary = "unseeded global random.* call"
    interests = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.Call) -> None:
        name = ctx.resolver.resolve_call(node)
        if name and name.startswith("random."):
            ctx.report(
                self,
                node,
                f"{name}() draws from the global random state — use a named "
                f"stream from repro.rng.RngRegistry instead",
            )


@register
class LegacyNumpyRandom(Rule):
    """D104: legacy ``np.random.*`` functions share one hidden global
    RandomState; the repo's RngRegistry hands out independent
    ``default_rng`` streams instead."""

    rule_id = "D104"
    severity = Severity.ERROR
    summary = "legacy np.random.* instead of seeded generator streams"
    interests = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.Call) -> None:
        name = ctx.resolver.resolve_call(node)
        if (
            name
            and name.startswith("numpy.random.")
            and name not in NP_RANDOM_OK
        ):
            ctx.report(
                self,
                node,
                f"legacy {name}() uses numpy's hidden global state — draw "
                f"from a repro.rng stream (numpy.random.Generator) instead",
            )


@register
class EnvVarRead(Rule):
    """D105: environment variables vary across hosts and CI runs, so a
    seed no longer pins behaviour."""

    rule_id = "D105"
    severity = Severity.ERROR
    summary = "environment-variable read in simulation code"
    interests = (ast.Call, ast.Subscript)

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            name = ctx.resolver.resolve_call(node)
            if name == "os.getenv" or name == "os.environ.get":
                ctx.report(
                    self,
                    node,
                    f"{name}() — thread configuration through explicit "
                    f"parameters (campaign config), not the process env",
                )
        elif isinstance(node, ast.Subscript):
            if ctx.resolve(node.value) == "os.environ":
                ctx.report(
                    self,
                    node,
                    "os.environ[...] read — thread configuration through "
                    "explicit parameters, not the process env",
                )
