"""The analyzer framework: rule registry, AST walker, suppressions.

One :class:`Analyzer` holds a rule set and a :class:`LintConfig`; calling
:meth:`Analyzer.lint_paths` parses each ``.py`` file once, walks the tree
in source order with scope tracking, and dispatches nodes to every rule
whose ``interests`` match.  Rules are stateless visitors: all per-file
information (import resolution, parent links, enclosing-function flags)
comes through the :class:`FileContext`.

Suppressions
------------
A finding is dropped when its line carries a marker comment::

    t0 = time.time()   # repro: noqa[D101]  calibration needs wall time
    t1 = time.time()   # repro: noqa        (blanket: any rule)

when the file carries a file-level marker anywhere (typically at the
top)::

    # repro: noqa-file[D101,D102]  this module bridges to the wall clock
    # repro: noqa-file             (blanket: any rule, use sparingly)

and when the config's path-scoped allowances permit the rule for the
file (see :mod:`repro.lint.config`).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from typing import Iterable, Optional, Sequence

from .config import LintConfig
from .diagnostics import Diagnostic, Severity
from .resolver import ImportResolver

__all__ = ["Rule", "FileContext", "Analyzer", "LintStats", "register", "all_rules"]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?P<file>-file)?(?:\[(?P<ids>[\w\s,]+)\])?", re.IGNORECASE
)

_HOTPATH_RE = re.compile(r"#\s*repro:\s*hotpath\b", re.IGNORECASE)

#: Bumped whenever rule logic changes in a way that invalidates cached
#: findings; part of the incremental cache's environment fingerprint.
RULES_VERSION = 7

#: rule_id -> rule class, in registration order (report order is by
#: location anyway; the dict keeps lookup and ``--select`` validation O(1)).
_REGISTRY: dict[str, type["Rule"]] = {}


def register(cls: type["Rule"]) -> type["Rule"]:
    """Class decorator adding a rule to the global registry."""
    rid = cls.rule_id
    if not re.fullmatch(r"[DSFRPN]\d{3}", rid):
        raise ValueError(
            f"rule id must look like D101/S201/F304/R501/P601/N701, got {rid!r}"
        )
    if rid in _REGISTRY and _REGISTRY[rid] is not cls:
        raise ValueError(f"duplicate rule id {rid!r}")
    _REGISTRY[rid] = cls
    return cls


def all_rules() -> dict[str, type["Rule"]]:
    """The registered rule catalog (importing :mod:`repro.lint.rules`
    populates it)."""
    from . import rules  # noqa: F401  (registration side effect)

    return dict(_REGISTRY)


class Rule:
    """Base class for analyzer rules.

    Subclasses set ``rule_id`` (``D``/``S``/``F`` + 3 digits),
    ``severity``, a one-line ``summary``, and ``interests`` — the AST
    node types their :meth:`visit` wants to see.
    """

    rule_id: str = ""
    severity: Severity = Severity.ERROR
    summary: str = ""
    interests: tuple[type, ...] = ()

    def visit(self, ctx: "FileContext", node: ast.AST) -> None:
        raise NotImplementedError


class _FunctionFrame:
    """Scope info for one enclosing function during the walk."""

    __slots__ = ("node", "is_generator", "is_process")

    def __init__(self, node: ast.AST, is_generator: bool, is_process: bool) -> None:
        self.node = node
        self.is_generator = is_generator
        self.is_process = is_process


def _yields_at_level(fn: ast.AST) -> bool:
    """True if ``fn`` contains a yield at its own nesting level (i.e. it
    is a generator function, ignoring nested defs/lambdas)."""
    stack = [c for c in ast.iter_child_nodes(fn)]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # new scope: its yields are not ours
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _touches_env(fn: ast.AST) -> bool:
    """Heuristic for DES process generators: the function takes or uses
    an ``env`` (an :class:`~repro.sim.Environment` by strong convention
    throughout this codebase — ``env.timeout``, ``self.env.process``...)."""
    args = getattr(fn, "args", None)
    if args is not None:
        for a in list(args.args) + list(args.kwonlyargs) + list(args.posonlyargs):
            if a.arg == "env":
                return True
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and node.id == "env":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "env":
            return True
    return False


class FileContext:
    """Everything a rule may ask about the file being analyzed."""

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.Module,
        config: LintConfig,
        graph=None,
        taint=None,
    ) -> None:
        from .callgraph import module_name_for_path

        self.path = path
        self.source = source
        self.tree = tree
        self.config = config
        self.module_name = (
            module_name_for_path(path) if path != "<string>" else None
        )
        self.resolver = ImportResolver(
            tree,
            module=self.module_name,
            is_package=os.path.basename(path) == "__init__.py",
        )
        #: the project-wide call graph (interprocedural cleanup facts);
        #: built lazily from this file alone when no project scan ran.
        self._graph = graph
        #: the project-wide order/host taint index (same lazy contract).
        self._taint = taint
        self.diagnostics: list[Diagnostic] = []
        self._noqa, self._noqa_file = _collect_noqa(source)
        self._hotpath_lines = _collect_hotpath_lines(source)
        self._parents: dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
        self._function_stack: list[_FunctionFrame] = []
        self._cfgs: dict[int, "object"] = {}

    # -- scope ----------------------------------------------------------
    @property
    def enclosing_function(self) -> Optional[ast.AST]:
        return self._function_stack[-1].node if self._function_stack else None

    @property
    def in_generator(self) -> bool:
        return bool(self._function_stack) and self._function_stack[-1].is_generator

    @property
    def in_process_generator(self) -> bool:
        """Inside a generator that drives the DES kernel (yields events)."""
        return bool(self._function_stack) and self._function_stack[-1].is_process

    def parent(self, node: ast.AST, depth: int = 1) -> Optional[ast.AST]:
        """The ``depth``-th syntactic ancestor of ``node`` (1 = direct)."""
        current: Optional[ast.AST] = node
        for _ in range(depth):
            if current is None:
                return None
            current = self._parents.get(id(current))
        return current

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a ``Name``/``Attribute`` chain."""
        return self.resolver.resolve(node)

    # -- path-sensitive engine ------------------------------------------
    def cfg(self, fn: ast.AST):
        """The (memoized) control-flow graph of a function node."""
        from .cfg import build_cfg

        key = id(fn)
        if key not in self._cfgs:
            self._cfgs[key] = build_cfg(fn)
        return self._cfgs[key]

    @property
    def graph(self):
        """The interprocedural :class:`~repro.lint.callgraph.ProjectGraph`.
        When the analyzer ran over a project, this covers every linted
        file; for a standalone source it covers just this module (so
        intra-file facts still propagate)."""
        if self._graph is None:
            from .callgraph import build_graph

            self._graph = build_graph(
                {self.path: (self.module_name, self.tree)}
            )
        return self._graph

    @property
    def taint(self):
        """The :class:`~repro.lint.taint.TaintIndex`.  Project-wide when
        the analyzer scanned a project; single-module for standalone
        sources (intra-file flows still resolve)."""
        if self._taint is None:
            from .taint import build_taint_index

            self._taint = build_taint_index(
                {self.path: (self.module_name, self.tree)}
            )
        return self._taint

    def taint_findings(self) -> list:
        """Resolved :class:`~repro.lint.taint.TaintFinding`\\ s for this
        file — the N7xx rules' query surface."""
        return self.taint.findings_for(self.path)

    def is_hotpath(self, fn: ast.AST) -> bool:
        """Is ``fn`` marked ``# repro: hotpath``?  The marker counts on
        the ``def`` line, the line above it, or the first body line."""
        body = getattr(fn, "body", None)
        if not body:
            return False
        lo = getattr(fn, "lineno", 0) - 1
        hi = body[0].lineno
        return any(lo <= line <= hi for line in self._hotpath_lines)

    # -- reporting ------------------------------------------------------
    def report(
        self,
        rule: Rule,
        node: ast.AST,
        message: str,
        severity: Optional[Severity] = None,
    ) -> None:
        """File a diagnostic unless suppressed by noqa or path config."""
        line = getattr(node, "lineno", 1)
        if self.config.allowed_for_path(self.path, rule.rule_id):
            return
        if self._noqa_file is not None and (
            not self._noqa_file or rule.rule_id in self._noqa_file
        ):
            return
        suppressed = self._noqa.get(line)
        if suppressed is not None and (not suppressed or rule.rule_id in suppressed):
            return
        self.diagnostics.append(
            Diagnostic(
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                rule_id=rule.rule_id,
                severity=severity or rule.severity,
                message=message,
            )
        )


def _collect_noqa(
    source: str,
) -> tuple[dict[int, frozenset[str]], Optional[frozenset[str]]]:
    """Line suppressions and the file-level suppression.

    Returns ``(line -> suppressed rule ids, file-level rule ids)``; an
    empty id set means "all rules", a ``None`` file-level entry means no
    ``noqa-file`` marker was present.  Multiple ``noqa-file`` markers
    union their ids (any blanket marker wins).
    """
    out: dict[int, frozenset[str]] = {}
    file_level: Optional[frozenset[str]] = None
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _NOQA_RE.search(tok.string)
            if not m:
                continue
            ids = m.group("ids")
            id_set = (
                frozenset(x.strip().upper() for x in ids.split(",") if x.strip())
                if ids
                else frozenset()
            )
            if m.group("file"):
                if file_level is None:
                    file_level = id_set
                elif not file_level or not id_set:
                    file_level = frozenset()  # any blanket marker wins
                else:
                    file_level |= id_set
            else:
                out[tok.start[0]] = id_set
    except tokenize.TokenError:
        pass  # a syntactically broken file already failed ast.parse
    return out, file_level


def _collect_hotpath_lines(source: str) -> frozenset[int]:
    """Lines carrying a ``# repro: hotpath`` marker comment."""
    out: set[int] = set()
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT and _HOTPATH_RE.search(tok.string):
                out.add(tok.start[0])
    except tokenize.TokenError:
        pass
    return frozenset(out)


class LintStats:
    """Per-run accounting for ``--statistics``."""

    __slots__ = ("files_analyzed", "files_cached", "rule_counts",
                 "taint_recomputed")

    def __init__(self) -> None:
        self.files_analyzed = 0
        self.files_cached = 0
        self.rule_counts: dict[str, int] = {}
        #: modules whose taint summary was recomputed (vs. cache-served)
        self.taint_recomputed = 0

    @property
    def files_total(self) -> int:
        return self.files_analyzed + self.files_cached

    @property
    def cache_hit_rate(self) -> float:
        total = self.files_total
        return self.files_cached / total if total else 0.0

    def count(self, diagnostics: Iterable[Diagnostic]) -> None:
        for d in diagnostics:
            self.rule_counts[d.rule_id] = self.rule_counts.get(d.rule_id, 0) + 1

    def as_dict(self) -> dict:
        return {
            "files_total": self.files_total,
            "files_analyzed": self.files_analyzed,
            "files_cached": self.files_cached,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "taint_recomputed": self.taint_recomputed,
            "rule_counts": dict(sorted(self.rule_counts.items())),
        }


class Analyzer:
    """Run a rule set over files, sources, or directory trees."""

    def __init__(
        self,
        config: Optional[LintConfig] = None,
        rules: Optional[Sequence[Rule]] = None,
    ) -> None:
        self.config = config or LintConfig()
        if rules is None:
            rules = [cls() for cls in all_rules().values()]
        self.rules = [r for r in rules if self.config.rule_enabled(r.rule_id)]
        #: accounting for the most recent lint_paths run
        self.stats = LintStats()

    # -- entry points ---------------------------------------------------
    def lint_source(
        self, source: str, path: str = "<string>", graph=None, taint=None
    ) -> list[Diagnostic]:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [
                Diagnostic(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) or 1,
                    rule_id="E000",
                    severity=Severity.ERROR,
                    message=f"syntax error: {exc.msg}",
                )
            ]
        ctx = FileContext(path, source, tree, self.config, graph=graph, taint=taint)
        self._walk(ctx, tree)
        return sorted(ctx.diagnostics)

    def lint_file(self, path: str) -> list[Diagnostic]:
        with open(path, "r", encoding="utf-8") as fh:
            return self.lint_source(fh.read(), path=path)

    def lint_paths(self, paths: Iterable[str], cache=None) -> list[Diagnostic]:
        """Lint files and/or directory trees (``.py`` files, sorted walk
        order so output is stable).

        With ``cache`` (a :class:`~repro.lint.cache.LintCache`), files
        whose content hash matches a previous run under the same
        environment fingerprint are served from the cache; the caller
        is responsible for :meth:`~repro.lint.cache.LintCache.save`.
        """
        from .callgraph import build_graph, module_name_for_path
        from .taint import build_taint_index

        self.stats = LintStats()
        files: list[str] = []
        for path in paths:
            if os.path.isdir(path):
                for dirpath, dirnames, filenames in os.walk(path):
                    dirnames.sort()
                    for name in sorted(filenames):
                        if name.endswith(".py"):
                            files.append(os.path.join(dirpath, name))
            else:
                files.append(path)

        sources: dict[str, str] = {}
        trees: dict[str, tuple[Optional[str], ast.Module]] = {}
        broken: dict[str, list[Diagnostic]] = {}
        for path in files:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    sources[path] = fh.read()
                trees[path] = (
                    module_name_for_path(path),
                    ast.parse(sources[path], filename=path),
                )
            except SyntaxError:
                broken[path] = self.lint_source(sources[path], path=path)
            except OSError:
                continue

        graph = build_graph(trees)
        # The taint index consumes per-module summaries keyed by content
        # hash alone, so it must be built *before* set_fingerprint (its
        # own fingerprint is part of the environment fingerprint).
        taint = build_taint_index(trees, texts=sources, cache=cache)
        self.stats.taint_recomputed = taint.recomputed
        if cache is not None:
            cache.set_fingerprint(self._fingerprint(graph, taint))

        out: list[Diagnostic] = []
        for path in files:
            if path in broken:
                out.extend(broken[path])
                self.stats.files_analyzed += 1
                continue
            if path not in sources:
                continue
            if cache is not None:
                hit = cache.get(path, sources[path])
                if hit is not None:
                    out.extend(hit)
                    self.stats.files_cached += 1
                    continue
            diags = self.lint_source(
                sources[path], path=path, graph=graph, taint=taint
            )
            if cache is not None:
                cache.put(path, sources[path], diags)
            out.extend(diags)
            self.stats.files_analyzed += 1
        result = sorted(out)
        self.stats.count(result)
        return result

    def _fingerprint(self, graph, taint=None) -> str:
        """Everything that can change a file's findings without its
        bytes changing: rule set + config + interprocedural facts
        (call-graph cleanup summaries *and* the resolved taint index)."""
        import hashlib

        h = hashlib.sha256()
        h.update(f"rules-v{RULES_VERSION};".encode())
        for r in sorted(self.rules, key=lambda r: r.rule_id):
            h.update(f"{r.rule_id}:{int(r.severity)};".encode())
        h.update(repr(sorted(self.config.select)).encode())
        h.update(repr(sorted(self.config.ignore)).encode())
        h.update(
            repr(
                sorted(
                    (pat, tuple(sorted(ids)))
                    for pat, ids in self.config.allow.items()
                )
            ).encode()
        )
        h.update(repr(sorted(self.config.provider_schemas)).encode())
        h.update(graph.fingerprint().encode())
        if taint is not None:
            h.update(taint.fingerprint().encode())
        return h.hexdigest()

    # -- walking --------------------------------------------------------
    def _walk(self, ctx: FileContext, node: ast.AST) -> None:
        is_fn = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_fn:
            gen = _yields_at_level(node)
            ctx._function_stack.append(
                _FunctionFrame(node, gen, gen and _touches_env(node))
            )
        for rule in self.rules:
            if isinstance(node, rule.interests):
                rule.visit(ctx, node)
        for child in ast.iter_child_nodes(node):
            self._walk(ctx, child)
        if is_fn:
            ctx._function_stack.pop()
