"""Per-directory analyzer configuration.

Some files may legitimately touch what a rule forbids: the
real-filesystem polling observer (``watcher/observer.py``) exists
precisely to bridge simulated and real time.  Rather than scattering
``noqa`` comments, the config carries **path-scoped rule allowances**:
glob patterns (matched against the file's POSIX path *suffix*) mapping
to the rule ids permitted there.

The flow-validation packs (``F3xx`` name checks and the ``F4xx``
dataflow pass) also need the action-provider registry: which provider
names exist and, for each, its declared ``input_schema`` /
``output_schema`` payload contract.  To keep the analyzer purely static
it does not import any :mod:`repro` module; it AST-scans the package
for provider-shaped classes (a literal ``name = "..."`` attribute plus
``run``/``status`` methods) and reads their literal schema dicts.  That
one scan — :func:`discover_provider_schemas` — is the single source of
truth: ``F304``'s name set is its key set, so a provider added to
``flows/providers.py`` is picked up by every rule at once.
"""

from __future__ import annotations

import ast
import fnmatch
import functools
import os
import types
from dataclasses import dataclass, field
from typing import Mapping, Optional

__all__ = [
    "LintConfig",
    "DEFAULT_ALLOW",
    "ProviderSchema",
    "discover_provider_schemas",
    "discover_provider_names",
]

#: Default path-scoped allowances. Keys are glob patterns, values the rule
#: ids those files may violate.  ``watcher/observer.py`` polls a real
#: directory tree (its loop takes injectable clock/sleep callables, but
#: the defaults reference the real clock and demos drive it for
#: wall-clock durations).
DEFAULT_ALLOW: dict[str, frozenset[str]] = {
    "watcher/observer.py": frozenset({"D101", "D102"}),
}

#: Fallback provider registry when ``providers.py`` cannot be scanned.
BUILTIN_PROVIDERS = frozenset({"transfer", "compute", "search_ingest"})


@dataclass(frozen=True)
class ProviderSchema:
    """One action provider's statically declared payload contract.

    ``input_schema``/``output_schema`` mirror the literal class
    attributes (see :mod:`repro.flows.action`); either is ``None`` when
    the class carries no literal declaration — the F4xx pass then skips
    the corresponding checks for that provider (and F404 reports the
    missing declaration).
    """

    name: str
    input_schema: Optional[Mapping[str, str]] = None
    output_schema: Optional[Mapping[str, str]] = None

    @property
    def required_params(self) -> frozenset[str]:
        if self.input_schema is None:
            return frozenset()
        return frozenset(k for k in self.input_schema if not k.endswith("?"))

    @property
    def accepted_params(self) -> frozenset[str]:
        if self.input_schema is None:
            return frozenset()
        return frozenset(k.rstrip("?") for k in self.input_schema)

    def param_type(self, param: str) -> Optional[str]:
        """Declared type of ``param`` (accepts the undecorated name)."""
        if self.input_schema is None:
            return None
        for key, tp in self.input_schema.items():
            if key.rstrip("?") == param:
                return tp
        return None


def _literal_str_dict(node: ast.AST) -> Optional[Mapping[str, str]]:
    """Parse a fully literal ``{"str": "str", ...}`` dict expression."""
    if not isinstance(node, ast.Dict):
        return None
    out: dict[str, str] = {}
    for key, value in zip(node.keys, node.values):
        if not (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            return None
        out[key.value] = value.value
    return types.MappingProxyType(out)


def _class_literal_assign(node: ast.ClassDef, attr: str) -> Optional[ast.AST]:
    """The value expression of a class-level ``attr = ...`` binding, in
    either the bare (``name = "x"``) or annotated (``name: str = "x"``)
    spelling; annotation-only declarations carry no value and don't
    count."""
    for stmt in node.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == attr
        ):
            return stmt.value
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == attr
            and stmt.value is not None
        ):
            return stmt.value
    return None


def _providers_in_tree(tree: ast.AST) -> dict[str, ProviderSchema]:
    """Provider-shaped classes: a literal ``name = "..."`` class
    attribute alongside ``run`` and ``status`` methods, with any literal
    ``input_schema``/``output_schema`` dicts they declare."""
    out: dict[str, ProviderSchema] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {
            s.name for s in node.body if isinstance(s, ast.FunctionDef)
        }
        if not {"run", "status"} <= methods:
            continue
        name_node = _class_literal_assign(node, "name")
        if not (
            isinstance(name_node, ast.Constant) and isinstance(name_node.value, str)
        ):
            continue
        in_node = _class_literal_assign(node, "input_schema")
        out_node = _class_literal_assign(node, "output_schema")
        out[name_node.value] = ProviderSchema(
            name=name_node.value,
            input_schema=_literal_str_dict(in_node) if in_node is not None else None,
            output_schema=_literal_str_dict(out_node) if out_node is not None else None,
        )
    return out


@functools.lru_cache(maxsize=8)
def discover_provider_schemas(
    package_root: Optional[str] = None,
) -> Mapping[str, ProviderSchema]:
    """Collect the action-provider registry by statically scanning the
    ``repro`` package (default: the package containing this file) for
    provider-shaped classes and their literal schema declarations.

    This is the one provider list every rule pack shares: ``F304``
    checks names against its keys and the ``F4xx`` dataflow pass reads
    the schemas.  Returns name-only :class:`ProviderSchema` stubs for
    :data:`BUILTIN_PROVIDERS` if nothing is found (so the analyzer still
    works on partial checkouts).  Memoized: the scan is pure-static, and
    one analyzer run builds many configs.
    """
    if package_root is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    found: dict[str, ProviderSchema] = {}
    for dirpath, dirnames, filenames in os.walk(package_root):
        dirnames.sort()
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            try:
                with open(os.path.join(dirpath, fname), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
            except (OSError, SyntaxError):
                continue
            found.update(_providers_in_tree(tree))
    if not found:
        found = {name: ProviderSchema(name=name) for name in BUILTIN_PROVIDERS}
    return types.MappingProxyType(dict(sorted(found.items())))


def discover_provider_names(package_root: Optional[str] = None) -> frozenset[str]:
    """Action-provider names — the key set of
    :func:`discover_provider_schemas` (kept as the convenience form the
    ``F304`` name check and older callers use)."""
    return frozenset(discover_provider_schemas(package_root))


@dataclass(frozen=True)
class LintConfig:
    """Analyzer configuration.

    Parameters
    ----------
    allow:
        ``{path glob: rule ids}`` — rules suppressed for matching files.
    select:
        If non-empty, only these rule ids run.
    ignore:
        Rule ids disabled everywhere.
    provider_schemas:
        The action-provider registry (name → declared payload schemas)
        shared by the ``F304`` name check and the ``F4xx`` dataflow
        pass; defaults to a static scan of the ``repro`` package.
    """

    allow: dict[str, frozenset[str]] = field(
        default_factory=lambda: dict(DEFAULT_ALLOW)
    )
    select: frozenset[str] = frozenset()
    ignore: frozenset[str] = frozenset()
    provider_schemas: Mapping[str, ProviderSchema] = field(
        default_factory=discover_provider_schemas
    )

    @property
    def known_providers(self) -> frozenset[str]:
        """Provider names, derived from :attr:`provider_schemas` so the
        two views can never drift apart."""
        return frozenset(self.provider_schemas)

    def provider_schema(self, name: str) -> Optional[ProviderSchema]:
        return self.provider_schemas.get(name)

    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.ignore:
            return False
        if self.select and rule_id not in self.select:
            return False
        return True

    def allowed_for_path(self, path: str, rule_id: str) -> bool:
        """True when ``rule_id`` is explicitly permitted for ``path``."""
        posix = path.replace(os.sep, "/")
        for pattern, rule_ids in self.allow.items():
            if rule_id not in rule_ids:
                continue
            if fnmatch.fnmatch(posix, pattern) or fnmatch.fnmatch(
                posix, "*/" + pattern
            ):
                return True
        return False
