"""F4xx rules: whole-flow dataflow analysis over payload schemas.

F304 checks a literal flow's provider names; this pack proves its
*payloads* are sound.  Every action provider declares a literal
``input_schema``/``output_schema`` (see :mod:`repro.flows.action`), and
the one static registry scan (:func:`repro.lint.discover_provider_schemas`)
makes those contracts visible here.  ``F401`` then symbolically executes
each literal :class:`~repro.flows.FlowDefinition` state by state,
propagating the set of payload keys every completed state makes
available, so a ``$.states.X.key`` template that no upstream state can
have produced is rejected at review time — the silent payload-shape
drift that otherwise only surfaces mid-campaign.  ``F402``
checks every literal :class:`~repro.flows.FlowState` (including
fragments inside Gladier tools) against its provider's input schema;
``F403`` flags keys bound to conflicting types, both across the dataflow
(a ``bool`` payload feeding a ``str`` parameter) and within one
parameters literal (a duplicate key overwriting an earlier one);
``F404`` enforces that provider classes declare their schemas at all.

As everywhere in the analyzer, only what is certain is reported:
dynamic state names, f-string templates, and computed parameter dicts
are skipped, and references whose provider has no declared schema are
given the benefit of the doubt.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from ..analyzer import FileContext, Rule, register
from ..config import ProviderSchema, _class_literal_assign, _literal_str_dict
from ..diagnostics import Severity
from .flowdef import LiteralState, parse_literal_definition

__all__ = [
    "DanglingPayloadReference",
    "UndeclaredParameter",
    "PayloadTypeConflict",
    "UndeclaredProviderSchema",
    "TemplateRef",
]

#: Inferable types of literal parameter values (template strings are
#: classified separately).  ``bool`` must be tested before ``int``.
_CONST_TYPES = ((bool, "bool"), (str, "str"), (int, "int"), (float, "float"))


def _value_type(node: ast.AST) -> Optional[str]:
    """The schema type of a literal expression, ``None`` when dynamic."""
    if isinstance(node, ast.Constant):
        for pytype, name in _CONST_TYPES:
            if isinstance(node.value, pytype):
                return name
        return None
    if isinstance(node, ast.Dict):
        return "dict"
    if isinstance(node, (ast.List, ast.Tuple)):
        return "list"
    return None


def _numeric(tp: str) -> bool:
    return tp in ("int", "float", "number")


def _compatible(declared: Optional[str], actual: Optional[str]) -> bool:
    """Whether an inferred type satisfies a declared one (unknown and
    ``any`` always do; ``int``/``float``/``number`` inter-match)."""
    if declared is None or actual is None:
        return True
    if declared == "any" or actual == "any":
        return True
    if declared == actual:
        return True
    return _numeric(declared) and _numeric(actual)


@dataclass(frozen=True)
class TemplateRef:
    """One literal ``$.`` template string inside a parameters expression."""

    node: ast.AST  # the Constant carrying the string
    text: str  # the full template, e.g. "$.states.Analyze.output"
    root: str  # first path segment ("input", "states", ...)
    state: Optional[str] = None  # for $.states refs: the state name
    key: Optional[str] = None  # first payload key after the state, if any


def iter_template_refs(parameters: ast.AST) -> Iterator[TemplateRef]:
    """All literal ``$.`` template strings nested in ``parameters``
    (``$$.`` escapes are literals, not references)."""
    for sub in ast.walk(parameters):
        if not (isinstance(sub, ast.Constant) and isinstance(sub.value, str)):
            continue
        text = sub.value
        if not text.startswith("$.") or text.startswith("$$."):
            continue
        parts = text[2:].split(".")
        if not parts or not parts[0]:
            continue
        state = parts[1] if parts[0] == "states" and len(parts) > 1 else None
        key = parts[2] if state is not None and len(parts) > 2 else None
        yield TemplateRef(node=sub, text=text, root=parts[0], state=state, key=key)


def _ref_type(
    ref: TemplateRef, produced: Mapping[str, Optional[Mapping[str, str]]]
) -> Optional[str]:
    """The declared type a ``$.states.X.key`` reference resolves to, or
    ``None`` when unknowable (``$.input``, undeclared schema, deep path
    beyond the first key, refs to unknown or later states)."""
    if ref.state is None or ref.state not in produced:
        return None
    schema = produced[ref.state]
    if schema is None:
        return None
    if ref.key is None:
        return "dict"  # the whole result payload
    if ref.text.count(".") > 3:
        return None  # deeper than states.<X>.<key>: not declared
    return schema.get(ref.key)


class _FlowDataflow:
    """Shared symbolic execution of one literal flow definition.

    Walks the states in tuple (execution) order, recording each completed
    state's declared ``output_schema`` as the payload available
    downstream, and accumulates findings tagged by kind so F401 and F403
    can each report their own."""

    def __init__(self, states: list[LiteralState], ctx: FileContext) -> None:
        self.findings: list[tuple[str, ast.AST, str]] = []
        names = {s.name for s in states}
        #: state name -> declared output schema (None = undeclared)
        produced: dict[str, Optional[Mapping[str, str]]] = {}
        for state in states:
            schema = ctx.config.provider_schema(state.provider or "")
            if state.parameters is not None:
                self._check_references(state, names, produced)
                if schema is not None:
                    self._check_types(state, schema, produced)
            produced[state.name] = schema.output_schema if schema is not None else None

    def _check_references(
        self,
        state: LiteralState,
        names: set,
        produced: Mapping[str, Optional[Mapping[str, str]]],
    ) -> None:
        for ref in iter_template_refs(state.parameters):
            if ref.root not in ("input", "states"):
                self.findings.append(
                    (
                        "dangling-root",
                        ref.node,
                        f"state {state.name!r} references {ref.text!r}, but the "
                        f"run context only exposes '$.input' and '$.states' — "
                        f"no state can produce root {ref.root!r}",
                    )
                )
                continue
            if not ref.state:
                continue  # $.input.* is opaque flow input
            if ref.state not in names:
                self.findings.append(
                    (
                        "dangling-state",
                        ref.node,
                        f"state {state.name!r} references '$.states.{ref.state}' "
                        f"but no state {ref.state!r} exists in this flow",
                    )
                )
                continue
            if ref.state not in produced:
                self.findings.append(
                    (
                        "dangling-state",
                        ref.node,
                        f"state {state.name!r} references '$.states.{ref.state}', "
                        f"which cannot have completed before {state.name!r} runs",
                    )
                )
                continue
            schema = produced[ref.state]
            if schema is not None and ref.key is not None and ref.key not in schema:
                self.findings.append(
                    (
                        "dangling-key",
                        ref.node,
                        f"state {state.name!r} references {ref.text!r}, but "
                        f"upstream state {ref.state!r} only produces keys "
                        f"{sorted(schema)}",
                    )
                )

    def _check_types(
        self,
        state: LiteralState,
        schema: ProviderSchema,
        produced: Mapping[str, Optional[Mapping[str, str]]],
    ) -> None:
        if not isinstance(state.parameters, ast.Dict):
            return
        for key_node, value_node in zip(state.parameters.keys, state.parameters.values):
            if not (isinstance(key_node, ast.Constant) and isinstance(key_node.value, str)):
                continue
            declared = schema.param_type(key_node.value)
            if declared is None:
                continue  # unknown parameter: F402's finding
            if not (
                isinstance(value_node, ast.Constant)
                and isinstance(value_node.value, str)
                and value_node.value.startswith("$.")
                and not value_node.value.startswith("$$.")
            ):
                continue  # literal values are F403's FlowState-level check
            refs = list(iter_template_refs(value_node))
            if not refs:
                continue
            actual = _ref_type(refs[0], produced)
            if not _compatible(declared, actual):
                self.findings.append(
                    (
                        "type-conflict",
                        value_node,
                        f"state {state.name!r} binds parameter "
                        f"{key_node.value!r} (declared {declared!r}) to "
                        f"{refs[0].text!r}, which upstream declares as "
                        f"{actual!r}",
                    )
                )


def _flow_findings(ctx: FileContext, node: ast.Call) -> Optional[_FlowDataflow]:
    states = parse_literal_definition(node)
    if states is None:
        return None
    return _FlowDataflow(states, ctx)


@register
class DanglingPayloadReference(Rule):
    """F401: a ``$.`` template reference that no upstream state can have
    produced — the step deploys, then every run dies resolving its
    parameters (or worse, resolves against drifted payload shapes).

    Four shapes: a root other than ``$.input``/``$.states``; a
    ``$.states.X`` naming no state of the flow; one naming the current
    or a later state (templates resolve only against steps that already
    completed); and a key the upstream state's declared
    ``output_schema`` does not produce.
    """

    rule_id = "F401"
    severity = Severity.ERROR
    summary = "$. template references a payload no upstream state produces"
    interests = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.Call) -> None:
        flow = _flow_findings(ctx, node)
        if flow is None:
            return
        for kind, ref_node, message in flow.findings:
            if kind in ("dangling-root", "dangling-state", "dangling-key"):
                ctx.report(self, ref_node, message)


@register
class UndeclaredParameter(Rule):
    """F402: a literal FlowState invoking its provider with parameters
    outside the declared input schema, or missing required ones.  Runs on
    every literal FlowState — inside full definitions and inside Gladier
    tool fragments alike."""

    rule_id = "F402"
    severity = Severity.ERROR
    summary = "FlowState parameters violate the provider's input schema"
    interests = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.Call) -> None:
        state = _literal_flowstate(node)
        if state is None:
            return
        provider, params = state
        schema = ctx.config.provider_schema(provider)
        if schema is None or schema.input_schema is None:
            return  # unknown provider is F304; undeclared schema is F404
        literal_keys: set[str] = set()
        any_dynamic = False
        for key_node in params.keys:
            if isinstance(key_node, ast.Constant) and isinstance(key_node.value, str):
                literal_keys.add(key_node.value)
            else:
                any_dynamic = True
        for key in sorted(literal_keys - schema.accepted_params):
            ctx.report(
                self,
                node,
                f"provider {provider!r} does not accept parameter {key!r} "
                f"(declared: {sorted(schema.accepted_params)})",
            )
        if not any_dynamic:
            for key in sorted(schema.required_params - literal_keys):
                ctx.report(
                    self,
                    node,
                    f"provider {provider!r} requires parameter {key!r}, "
                    f"which this state never supplies",
                )


@register
class PayloadTypeConflict(Rule):
    """F403: a payload key bound to a conflicting type — a literal value
    of the wrong type for its declared parameter, a ``$.states`` payload
    whose declared type conflicts with the consuming parameter, or a
    duplicate key inside one parameters literal silently overwriting an
    earlier binding."""

    rule_id = "F403"
    severity = Severity.ERROR
    summary = "payload key bound/overwritten with a conflicting type"
    interests = (ast.Call,)

    def visit(self, ctx: FileContext, node: ast.Call) -> None:
        # Whole-flow pass: template-derived types through the dataflow.
        flow = _flow_findings(ctx, node)
        if flow is not None:
            for kind, ref_node, message in flow.findings:
                if kind == "type-conflict":
                    ctx.report(self, ref_node, message)
            return
        # Per-state pass: literal values and duplicate keys.
        state = _literal_flowstate(node)
        if state is None:
            return
        provider, params = state
        schema = ctx.config.provider_schema(provider)
        seen: dict[str, ast.AST] = {}
        for key_node, value_node in zip(params.keys, params.values):
            if not (isinstance(key_node, ast.Constant) and isinstance(key_node.value, str)):
                continue
            key = key_node.value
            if key in seen:
                first_tp = _value_type(seen[key]) or "dynamic"
                second_tp = _value_type(value_node) or "dynamic"
                conflict = (
                    f" ({first_tp!r} overwritten with {second_tp!r})"
                    if first_tp != second_tp
                    else ""
                )
                ctx.report(
                    self,
                    key_node,
                    f"duplicate parameter key {key!r} — the later binding "
                    f"silently overwrites the earlier one{conflict}",
                )
            seen[key] = value_node
            if schema is None:
                continue
            declared = schema.param_type(key)
            if declared is None:
                continue
            if isinstance(value_node, ast.Constant) and isinstance(
                value_node.value, str
            ):
                if value_node.value.startswith("$.") and not value_node.value.startswith(
                    "$$."
                ):
                    continue  # template: typed by the whole-flow pass
            actual = _value_type(value_node)
            if not _compatible(declared, actual):
                ctx.report(
                    self,
                    value_node,
                    f"parameter {key!r} of provider {provider!r} is declared "
                    f"{declared!r} but bound to a {actual!r} literal",
                )


@register
class UndeclaredProviderSchema(Rule):
    """F404: a provider-shaped class without literal
    ``input_schema``/``output_schema`` declarations is invisible to the
    F4xx dataflow pass — every flow through it goes unchecked."""

    rule_id = "F404"
    severity = Severity.ERROR
    summary = "action provider lacks literal input/output schema declarations"
    interests = (ast.ClassDef,)

    def visit(self, ctx: FileContext, node: ast.ClassDef) -> None:
        methods = {s.name for s in node.body if isinstance(s, ast.FunctionDef)}
        if not {"run", "status"} <= methods:
            return
        name_node = _class_literal_assign(node, "name")
        if not (
            isinstance(name_node, ast.Constant) and isinstance(name_node.value, str)
        ):
            return  # not provider-shaped by the registry's definition
        missing = []
        for attr in ("input_schema", "output_schema"):
            value = _class_literal_assign(node, attr)
            if value is None or _literal_str_dict(value) is None:
                missing.append(attr)
        if missing:
            ctx.report(
                self,
                node,
                f"provider class {node.name!r} ({name_node.value!r}) declares "
                f"no literal {' or '.join(missing)} — the F4xx dataflow pass "
                f"cannot check flows through it (see repro.flows.action)",
            )


def _literal_flowstate(node: ast.Call) -> Optional[tuple[str, ast.Dict]]:
    """A ``FlowState(...)`` call with a literal provider name and a
    literal-dict ``parameters``; ``None`` otherwise."""
    func = node.func
    callee = (
        func.id
        if isinstance(func, ast.Name)
        else func.attr if isinstance(func, ast.Attribute) else None
    )
    if callee != "FlowState":
        return None
    provider_node: Optional[ast.AST] = None
    params_node: Optional[ast.AST] = None
    for kw in node.keywords:
        if kw.arg == "provider":
            provider_node = kw.value
        elif kw.arg == "parameters":
            params_node = kw.value
    if provider_node is None and len(node.args) >= 2:
        provider_node = node.args[1]
    if params_node is None and len(node.args) >= 3:
        params_node = node.args[2]
    if not (
        isinstance(provider_node, ast.Constant)
        and isinstance(provider_node.value, str)
        and isinstance(params_node, ast.Dict)
    ):
        return None
    return provider_node.value, params_node
