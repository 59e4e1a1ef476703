"""The shipped package exports only what something outside the tests uses.

Every name in the ``__all__`` of a module under ``src/repro`` must be
loaded as a name, or read as an attribute, somewhere in ``src/``,
``examples/`` or ``benchmarks/``.  Import statements and ``__all__``
strings are not uses; uses inside the defining module are.  Package
``__init__`` modules only re-export, and the lint rules register
through ``@register``, so neither is scanned for exports.

It also keeps one spelling for observability: a service takes its
tracer and metrics registry as one ``obs`` bundle, so outside
``repro/obs`` and ``repro/lint`` no function has a ``tracer`` or
``metrics`` parameter and no module imports ``NULL_TRACER`` or
``NULL_METRICS``.

And it keeps no write-only state: every attribute stored
(``obj.name = ...``, ``+=`` included) and every class-level annotated
field declared under ``src/repro`` (``repro/lint`` excluded) must be
read as an attribute, loaded as a name, or named in a string constant
(``getattr``, ``__slots__``) somewhere in ``src/``, ``tests/``,
``examples/`` or ``benchmarks/``.

These are static checks over the AST: they import nothing.
"""

from __future__ import annotations

import ast
import functools
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "repro")
USE_TREES = ("src", "examples", "benchmarks")

#: Exported names that no entry point reaches, kept on purpose.
ALLOWED = {
    "write_hmsa": "paper-cited: Sec. 2.2.1's HMSA provision",
    "read_hmsa": "paper-cited: Sec. 2.2.1's HMSA provision",
    "analyze_spatiotemporal_file": "paper-cited: the spatiotemporal analysis function",
    "critical_path": "an input of the planned run report",
    "read_video": "the tests' MPNG reader, which checks write_video",
    "video_info": "the tests' MPNG reader, which checks write_video",
}

#: Stored attributes nothing reads, kept on purpose.
WRITE_ONLY_ALLOWED = {
    "drain_open": "the R501 hand-off of the stream drain-span opener",
}


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


@functools.lru_cache(maxsize=None)
def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _exports(tree):
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _uses(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    return used


def _unused_exports():
    used = set()
    for top in USE_TREES:
        for path in _python_files(os.path.join(ROOT, top)):
            used |= _uses(_parse(path))
    lint = os.path.join(PACKAGE, "lint")
    unused = {}
    for path in _python_files(PACKAGE):
        if os.path.basename(path) == "__init__.py" or path.startswith(lint + os.sep):
            continue
        for name in _exports(_parse(path)):
            if name not in used:
                unused[name] = os.path.relpath(path, PACKAGE)
    return unused


def test_every_export_has_a_caller_outside_the_tests():
    unused = _unused_exports()
    stray = {name: where for name, where in unused.items() if name not in ALLOWED}
    assert not stray, f"exported but used only by tests, or not at all: {stray}"


def test_allowlist_is_not_stale():
    unused = _unused_exports()
    gained_a_caller = sorted(set(ALLOWED) - set(unused))
    assert not gained_a_caller, f"allowlisted but now used; drop them: {gained_a_caller}"


def _obs_wiring():
    """``tracer``/``metrics`` parameters and ``NULL_TRACER``/``NULL_METRICS``
    imports in the package, outside ``obs/`` and ``lint/``."""
    skip = tuple(os.path.join(PACKAGE, d) + os.sep for d in ("obs", "lint"))
    hits = []
    for path in _python_files(PACKAGE):
        if path.startswith(skip):
            continue
        where = os.path.relpath(path, PACKAGE)
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.arg in ("tracer", "metrics"):
                        hits.append(f"{where}:{node.lineno} parameter {arg.arg}")
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in ("NULL_TRACER", "NULL_METRICS"):
                        hits.append(f"{where}:{node.lineno} imports {alias.name}")
    return hits


def test_services_take_one_obs_bundle():
    hits = _obs_wiring()
    assert not hits, f"take obs= (an Observability bundle) instead: {hits}"


def _stored_names():
    """Attributes stored and class-level fields declared in the package
    (lint excluded), each with the first module that stores it."""
    lint = os.path.join(PACKAGE, "lint") + os.sep
    stored = {}
    for path in _python_files(PACKAGE):
        if path.startswith(lint):
            continue
        where = os.path.relpath(path, PACKAGE)
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.attr, where)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        stored.setdefault(stmt.target.id, where)
    return stored


def _never_read():
    """Stored names nothing reads (this module's allowlist keys aside)."""
    here = os.path.realpath(__file__)
    read = set()
    for top in USE_TREES + ("tests",):
        for path in _python_files(os.path.join(ROOT, top)):
            if os.path.realpath(path) == here:
                continue
            tree = _parse(path)
            read |= _uses(tree)
            read |= {
                node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
            }
    return {name: where for name, where in _stored_names().items() if name not in read}


def test_every_stored_attribute_is_read():
    stray = {
        name: where
        for name, where in _never_read().items()
        if name not in WRITE_ONLY_ALLOWED
    }
    assert not stray, f"stored but never read; delete them: {stray}"


def test_write_only_allowlist_is_not_stale():
    now_read = sorted(set(WRITE_ONLY_ALLOWED) - set(_never_read()))
    assert not now_read, f"allowlisted but now read; drop them: {now_read}"
