"""R5xx — resource lifecycle rules (CFG + call-graph based).

Each rule in this pack is a reconstruction of a bug class fixed by hand
in PRs 3–4, turned into a permanent gate:

* **R501** — a scheduled event handle (``env.timeout(...)`` /
  ``env.schedule(ev)``) that can go stale without a matching
  ``Environment.cancel``: the leaked fabric completion-timer class.
* **R502** — a tracer span opened but not ``finish()``ed on some path
  to the function's exit (normal or exceptional): the open-span class
  audited in ``chaos/controller.py`` and ``obs``.
* **R503** — a temp file/fd created with a cleanup-free exception path:
  the ``CheckpointStore._flush`` class.
* **R504** — a Resource request acquired outside ``with`` and then
  discarded, held across a sim-yield with an exception edge that skips
  the release, or carried to the normal exit unreleased.

All four are path queries over :mod:`repro.lint.cfg`, refined by the
interprocedural cleanup summaries in :mod:`repro.lint.callgraph`:
handing a span to a helper that is *known* to finish it is cleanup,
handing it to an unknown callee is an escape (assume the callee owns
it), and handing it to a known callee that does *neither* keeps the
leak path alive.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..analyzer import FileContext, Rule, register
from ..callgraph import _root_name
from ..cfg import CFG, Block
from ..diagnostics import Severity

__all__ = [
    "LeakedScheduledEvent",
    "SpanLeak",
    "TempFileLeak",
    "HeldRequestAcrossYield",
]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _walk_own_level(fn: ast.AST) -> Iterable[ast.AST]:
    """Walk a function's body without entering nested defs/classes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNC_NODES + (ast.ClassDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_env_receiver(node: ast.AST) -> bool:
    """``env`` / ``self.env`` / ``anything.env`` — the DES environment
    by strong convention throughout this codebase."""
    return (isinstance(node, ast.Name) and node.id == "env") or (
        isinstance(node, ast.Attribute) and node.attr == "env"
    )


def _binding_of(ctx: FileContext, call: ast.Call):
    """How a call's result is bound: ``("name", n)``, ``("attr", a)``
    for ``self.a = ...``, ``("discard", None)`` for a bare expression
    statement, ``("with", None)``, or ``("other", None)`` (yielded,
    returned, passed along — someone else owns it)."""
    node: ast.AST = call
    parent = ctx.parent(node)
    # climb fluent chains: tracer.start(...).set(...).set(...)
    while isinstance(parent, (ast.Attribute, ast.Call)):
        node = parent
        parent = ctx.parent(node)
    if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
        target = parent.targets[0]
        if isinstance(target, ast.Name):
            return "name", target.id
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return "attr", target.attr
        if isinstance(target, ast.Tuple):
            return "tuple", target
        return "other", None
    if isinstance(parent, ast.Expr):
        return "discard", None
    if isinstance(parent, ast.withitem):
        return "with", None
    return "other", None


def _stmt_block(ctx: FileContext, cfg: CFG, node: ast.AST) -> Optional[Block]:
    """The CFG block of the statement enclosing ``node``."""
    current: Optional[ast.AST] = node
    while current is not None:
        blk = cfg.block_of(current)
        if blk is not None:
            return blk
        current = ctx.parent(current)
    return None


def _leak_path(
    cfg: CFG, start: Block, goals: set[Block], avoid
) -> Optional[list[Block]]:
    """A path from just *after* ``start`` to a goal, avoiding cleanup
    blocks.  ``start``'s own exception edge is excluded: if the creating
    call itself raises, the resource never existed."""
    for dst, kind in start.succ:
        if kind == "exc":
            continue
        if dst in goals:
            return [start, dst]
        if avoid(dst):
            continue
        path = cfg.find_path(dst, goals, avoid)
        if path is not None:
            return [start] + path
    return None


def _calls_on_name(block: Block, name: str, methods: set[str]) -> bool:
    """Does the block call one of ``methods`` on ``name`` (fluent chains
    included)?"""
    for node in block.walk_nodes():
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in methods
            and _root_name(node.func.value) == name
        ):
            return True
    return False


def _name_in(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == name for n in ast.walk(node)
    )


def _passed_to_cleaner(
    ctx: FileContext, block: Block, name: str, kind: str
) -> Optional[bool]:
    """Is ``name`` handed to a callee in this block?  Returns ``True``
    (callee performs ``kind`` cleanup or is unknown — either way the
    path is resolved here), ``False`` (known callee that does NOT clean
    it — the leak path continues), or ``None`` (not passed at all)."""
    graph = getattr(ctx, "graph", None)
    verdict: Optional[bool] = None
    for node in block.walk_nodes():
        if not isinstance(node, ast.Call):
            continue
        for i, arg in enumerate(node.args):
            if not (isinstance(arg, ast.Name) and arg.id == name):
                continue
            # `env.cancel(x)` etc. are handled by _calls_with_arg before
            if graph is None:
                return True  # no interprocedural view: assume handoff
            kinds = graph.callee_cleans(node, ctx.resolver, i)
            if kinds is None or kind in kinds:
                return True
            verdict = False  # known callee, does not clean it up
        for kw in node.keywords:
            if kw.arg is None or not (
                isinstance(kw.value, ast.Name) and kw.value.id == name
            ):
                continue
            if graph is None:
                return True
            kinds = graph.callee_cleans_keyword(node, ctx.resolver, kw.arg)
            if kinds is None or kind in kinds:
                return True
            verdict = False
    return verdict


def _calls_with_arg(block: Block, name: str, func_attrs: set[str]) -> bool:
    """``anything.cancel(name)`` style cleanup in this block."""
    for node in block.walk_nodes():
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in func_attrs
            and any(
                isinstance(a, ast.Name) and a.id == name for a in node.args
            )
        ):
            return True
    return False


def _escapes_in(block: Block, name: str) -> bool:
    """The handle leaves this function's custody in this block."""
    for node in block.walk_nodes():
        if isinstance(node, ast.Return) and node.value is not None:
            if _name_in(node.value, name):
                return True
        if isinstance(node, ast.Assign):
            if any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            ) and _name_in(node.value, name):
                return True
        if isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
            # yielded to a caller that now owns it (kernel or driver)
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == name
            ):
                return True
    return False


def _rebinds(block: Block, name: str) -> bool:
    for node in block.walk_nodes():
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return True
        if isinstance(node, ast.AugAssign) and (
            isinstance(node.target, ast.Name) and node.target.id == name
        ):
            return True
    return False


# ---------------------------------------------------------------------------


@register
class LeakedScheduledEvent(Rule):
    """The PR-3 fabric bug: completion timers scheduled per flow, left
    in the queue when the flow finished early — thousands of stale
    events keeping the heap hot and ``any_of`` wakeups misfiring."""

    rule_id = "R501"
    severity = Severity.ERROR
    summary = (
        "scheduled event handle can go stale without Environment.cancel"
    )
    interests = _FUNC_NODES

    def visit(self, ctx: FileContext, fn: ast.AST) -> None:
        params = {
            a.arg
            for a in list(fn.args.posonlyargs)
            + list(fn.args.args)
            + list(fn.args.kwonlyargs)
        }
        for node in _walk_own_level(fn):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            if node.func.attr == "timeout" and _is_env_receiver(
                node.func.value
            ):
                self._check_timeout(ctx, fn, node)
            elif node.func.attr == "schedule" and _is_env_receiver(
                node.func.value
            ):
                if not node.args:
                    continue
                arg = node.args[0]
                if (
                    isinstance(arg, ast.Name)
                    and arg.id != "self"
                    and arg.id not in params
                ):
                    self._check_name(ctx, fn, node, arg.id)

    def _check_timeout(
        self, ctx: FileContext, fn: ast.AST, call: ast.Call
    ) -> None:
        how, what = _binding_of(ctx, call)
        if how == "name":
            self._check_name(ctx, fn, call, what)
        elif how == "attr":
            self._check_self_attr(ctx, fn, call, what)
        elif how == "discard":
            ctx.report(
                self,
                call,
                "scheduled event handle is dropped on the floor — it can "
                "neither be awaited nor cancelled (bind it or yield it)",
            )
        # "other"/"with"/"tuple": yielded, returned or handed off — the
        # consumer owns its lifecycle.

    def _check_name(
        self, ctx: FileContext, fn: ast.AST, call: ast.Call, name: str
    ) -> None:
        cancelled = False
        direct_yield = False
        composite_yield = False
        escapes = False
        for node in _walk_own_level(fn):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr == "cancel" and any(
                    isinstance(a, ast.Name) and a.id == name
                    for a in node.args
                ):
                    cancelled = True
                if node.func.attr == "any_of" and any(
                    _name_in(a, name) for a in node.args
                ):
                    composite_yield = True
                if node.func.attr == "all_of" and any(
                    _name_in(a, name) for a in node.args
                ):
                    # every member of an all_of is awaited to completion;
                    # there is no losing timer to cancel
                    direct_yield = True
                if node.func.attr not in (
                    "cancel",
                    "any_of",
                    "all_of",
                    "timeout",
                    "schedule",
                ) and any(
                    isinstance(a, ast.Name) and a.id == name
                    for a in node.args
                ):
                    escapes = True  # handed to another function
            elif isinstance(node, ast.Attribute) and node.attr == "processed":
                if isinstance(node.value, ast.Name) and node.value.id == name:
                    cancelled = True  # stale-check guard counts
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == name
                ):
                    direct_yield = True
            elif isinstance(node, ast.Return) and node.value is not None:
                if _name_in(node.value, name):
                    escapes = True
            elif isinstance(node, ast.Assign):
                if any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in node.targets
                ) and _name_in(node.value, name):
                    escapes = True
        if cancelled or escapes:
            return
        if composite_yield:
            ctx.report(
                self,
                call,
                f"event '{name}' is raced in any_of but never "
                "cancelled or .processed-checked — the losing timer stays "
                "scheduled (Environment.cancel it after the race)",
            )
        elif not direct_yield:
            ctx.report(
                self,
                call,
                f"scheduled event '{name}' is never awaited, cancelled, "
                "or handed off",
            )

    def _check_self_attr(
        self, ctx: FileContext, fn: ast.AST, call: ast.Call, attr: str
    ) -> None:
        # teardown may live in any method of the class: scan the
        # enclosing ClassDef syntactically, then fall back to the
        # project graph (covers split class definitions).
        cls = None
        node: Optional[ast.AST] = fn
        while node is not None:
            node = ctx.parent(node)
            if isinstance(node, ast.ClassDef):
                cls = node
                break
        cancelled = False
        if cls is not None:
            for sub in ast.walk(cls):
                if isinstance(sub, ast.Call) and isinstance(
                    sub.func, ast.Attribute
                ):
                    if sub.func.attr == "cancel":
                        if any(
                            isinstance(a, ast.Attribute)
                            and a.attr == attr
                            and isinstance(a.value, ast.Name)
                            and a.value.id == "self"
                            for a in sub.args
                        ):
                            cancelled = True
                        f = sub.func.value
                        if (
                            isinstance(f, ast.Attribute)
                            and f.attr == attr
                        ):
                            cancelled = True
                elif (
                    isinstance(sub, ast.Attribute)
                    and sub.attr == "processed"
                    and isinstance(sub.value, ast.Attribute)
                    and sub.value.attr == attr
                ):
                    cancelled = True
        graph = getattr(ctx, "graph", None)
        if not cancelled and graph is not None and cls is not None:
            cs = graph.class_summary_by_name(cls.name)
            if cs is not None and (
                attr in cs.cancelled_attrs
                or attr in cs.processed_checked_attrs
            ):
                cancelled = True
        if not cancelled:
            ctx.report(
                self,
                call,
                f"timer stored on self.{attr} but no method of the class "
                "ever cancels or .processed-checks it — stale events "
                "accumulate in the kernel queue",
            )


@register
class SpanLeak(Rule):
    """Tracer spans must end on every path out of the function; an open
    span skews duration aggregates and pins its children forever."""

    rule_id = "R502"
    severity = Severity.ERROR
    summary = "tracer span not finished on some path to the function exit"
    interests = _FUNC_NODES

    def visit(self, ctx: FileContext, fn: ast.AST) -> None:
        cfg: Optional[CFG] = None
        for node in _walk_own_level(fn):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "start"
                and self._is_tracer(node.func.value)
            ):
                continue
            how, what = _binding_of(ctx, node)
            if how == "discard":
                ctx.report(
                    self,
                    node,
                    "span handle is discarded at the call site — it can "
                    "never be finished",
                )
                continue
            if how != "name":
                continue  # stored/handed off: the new owner finishes it
            if cfg is None:
                cfg = ctx.cfg(fn)
            self._check_span(ctx, cfg, node, what)

    @staticmethod
    def _is_tracer(receiver: ast.AST) -> bool:
        """``tracer.start`` / ``self.tracer.start`` / ``obs.tracer.start``."""
        node = receiver
        while isinstance(node, ast.Attribute):
            if node.attr == "tracer":
                return True
            node = node.value
        return isinstance(node, ast.Name) and node.id == "tracer"

    def _check_span(
        self, ctx: FileContext, cfg: CFG, call: ast.Call, name: str
    ) -> None:
        start = _stmt_block(ctx, cfg, call)
        if start is None:
            return

        def avoid(block: Block) -> bool:
            if _calls_on_name(block, name, {"finish"}):
                return True
            if _escapes_in(block, name) or _rebinds(block, name):
                return True
            handed = _passed_to_cleaner(ctx, block, name, "finish")
            if handed is True:
                return True
            return False

        goals = {cfg.exit, cfg.raise_exit}
        path = _leak_path(cfg, start, goals, avoid)
        if path is None:
            return
        where = (
            "an exception path" if path[-1] is cfg.raise_exit else "a normal path"
        )
        via = next(
            (b.line for b in path[1:-1] if b.line), path[0].line
        )
        ctx.report(
            self,
            call,
            f"span '{name}' can reach the function exit on {where} "
            f"(via line {via}) without .finish() — close it in a "
            "try/finally",
        )


@register
class TempFileLeak(Rule):
    """The ``CheckpointStore._flush`` class: ``mkstemp`` then an
    exception before the ``os.replace`` leaves the temp file (and fd)
    behind on every crash."""

    rule_id = "R503"
    severity = Severity.ERROR
    summary = "temp file creation with a cleanup-free exception path"
    interests = _FUNC_NODES

    _MAKERS = {"mkstemp", "mkdtemp"}
    _CLEANERS = {"unlink", "remove", "replace", "rename", "rmtree", "rmdir"}

    def visit(self, ctx: FileContext, fn: ast.AST) -> None:
        cfg: Optional[CFG] = None
        for node in _walk_own_level(fn):
            if not (isinstance(node, ast.Call) and self._is_maker(ctx, node)):
                continue
            name = self._path_binding(ctx, node)
            if name is None:
                continue
            if cfg is None:
                cfg = ctx.cfg(fn)
            self._check(ctx, cfg, node, name)

    def _is_maker(self, ctx: FileContext, call: ast.Call) -> bool:
        resolved = ctx.resolve(call.func)
        if resolved in ("tempfile.mkstemp", "tempfile.mkdtemp"):
            return True
        return (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in self._MAKERS
        )

    @staticmethod
    def _path_binding(ctx: FileContext, call: ast.Call) -> Optional[str]:
        how, what = _binding_of(ctx, call)
        if how == "name":
            return what
        if how == "tuple":  # fd, tmp = tempfile.mkstemp(...)
            elts = what.elts
            if len(elts) == 2 and isinstance(elts[1], ast.Name):
                return elts[1].id
        return None

    def _cleans(self, ctx: FileContext, node: ast.AST, name: str) -> bool:
        """``node`` is a call that removes/consumes the ``name`` path."""
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        tail = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else None
        )
        if tail in self._CLEANERS and any(
            isinstance(a, ast.Name) and a.id == name for a in node.args
        ):
            return True
        return False

    def _check(
        self, ctx: FileContext, cfg: CFG, call: ast.Call, name: str
    ) -> None:
        fn = cfg.func
        # Cleanup inside *any* except/finally counts as protection, even
        # when the cleanup code itself has raise-able sub-steps (the
        # committed CheckpointStore._flush closes the fd under a nested
        # `except OSError` before the unlink; a hypothetical non-OSError
        # there is an accepted residual, not the leak class this rule
        # exists for).
        for node in _walk_own_level(fn):
            if not isinstance(node, ast.Try):
                continue
            protected = list(node.finalbody)
            for h in node.handlers:
                protected.extend(h.body)
            for stmt in protected:
                for sub in ast.walk(stmt):
                    if self._cleans(ctx, sub, name):
                        return
        start = _stmt_block(ctx, cfg, call)
        if start is None:
            return

        def avoid(block: Block) -> bool:
            if any(self._cleans(ctx, n, name) for n in block.walk_nodes()):
                return True
            if _escapes_in(block, name) or _rebinds(block, name):
                return True
            if _passed_to_cleaner(ctx, block, name, "unlink") is True:
                return True
            return False

        path = _leak_path(cfg, start, {cfg.raise_exit}, avoid)
        if path is None:
            return
        ctx.report(
            self,
            call,
            f"temp file '{name}' survives an exception raised before its "
            "cleanup — unlink it in an except/finally and re-raise",
        )


@register
class HeldRequestAcrossYield(Rule):
    """A Resource request whose unit may never be given back: every
    later requester then deadlocks.

    Three shapes leak it.  The request is discarded: a bare
    ``pool.request()`` statement, or ``yield pool.request()``, whose
    resumed value is ``None``, not the request.  It is held across a
    sim-yield where a kernel throw (chaos interrupt, cancelled flow)
    skips the release.  Or it reaches the function's normal exit
    without a release.  Safe forms: ``with pool.request() as req``, a
    release in ``try/finally`` or ``except BaseException``, and a
    hand-off (returned, stored on an attribute, or passed to a callee
    such as the compute scheduler's ``Node(request=req)``).

    Not flagged, although the retired S202 reported them as discarded:
    a request handed off where it is made (``return pool.request()``,
    ``self.req = pool.request()``, ``Node(request=pool.request())``).
    Its new owner holds the handle and releases it.
    """

    rule_id = "R504"
    severity = Severity.ERROR
    summary = "resource request discarded or not released on every path"
    interests = _FUNC_NODES

    def visit(self, ctx: FileContext, fn: ast.AST) -> None:
        cfg: Optional[CFG] = None
        for node in _walk_own_level(fn):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("request", "acquire")
                and not node.args
                and not node.keywords
            ):
                continue
            how, what = _binding_of(ctx, node)
            # `lock.acquire()` as a statement is the lock idiom: only a
            # discarded *request* loses the handle that releases it
            if node.func.attr == "request" and (
                how == "discard"
                or isinstance(ctx.parent(node), (ast.Yield, ast.Await))
            ):
                ctx.report(
                    self,
                    node,
                    "request() result is discarded — the claimed unit can "
                    "never be released; use `with ... .request() as req:`",
                )
                continue
            if how != "name":
                continue  # `with res.request():` or handed off
            if cfg is None:
                cfg = ctx.cfg(fn)
            self._check(ctx, cfg, node, what)

    def _check(
        self, ctx: FileContext, cfg: CFG, call: ast.Call, name: str
    ) -> None:
        start = _stmt_block(ctx, cfg, call)
        if start is None:
            return

        def avoid(block: Block) -> bool:
            if _calls_on_name(block, name, {"release", "cancel"}):
                return True
            # NB: `yield req` is the acquisition wait, not an ownership
            # transfer — only returns/stores/handoffs count as escapes.
            for node in block.walk_nodes():
                if isinstance(node, ast.Return) and node.value is not None:
                    if _name_in(node.value, name):
                        return True
                if isinstance(node, ast.Assign):
                    if any(
                        isinstance(t, (ast.Attribute, ast.Subscript))
                        for t in node.targets
                    ) and _name_in(node.value, name):
                        return True
            if _rebinds(block, name):
                return True
            if _passed_to_cleaner(ctx, block, name, "release") is True:
                return True
            return False

        def foreign_yield(block: Block) -> bool:
            # the acquisition wait (`yield req`) is part of acquiring,
            # not of holding — only *other* suspension points count
            for node in block.walk_nodes():
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    if (
                        isinstance(node, ast.Yield)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == name
                    ):
                        continue
                    return True
            return False

        # Anchor the search on the suspension point itself: the request
        # is still held at every block reachable from the acquisition
        # without passing a release/escape, and it leaks if an exception
        # thrown into any such foreign yield can reach the raise exit
        # without passing a release.  (A single front-to-back path query
        # would be masked by the acquisition wait's own exception edge.)
        held = cfg.reachable_without(start, avoid)
        for block in held:
            if block is start or not foreign_yield(block):
                continue
            if cfg.find_path(block, {cfg.raise_exit}, avoid) is None:
                continue
            ctx.report(
                self,
                call,
                f"request '{name}' is held across the sim-yield at line "
                f"{block.line} and leaks if the kernel throws into the "
                "process — release it in a try/finally or use `with`",
            )
            return
        if _leak_path(cfg, start, {cfg.exit}, avoid) is not None:
            ctx.report(
                self,
                call,
                f"request '{name}' reaches the end of the function "
                "unreleased and is never handed off — release it in a "
                "try/finally or use `with`",
            )
