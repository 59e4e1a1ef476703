"""F4xx pack: whole-flow payload dataflow analysis against the declared
provider schemas, and the single-source schema registry behind it."""

from __future__ import annotations

import textwrap
from types import MappingProxyType

import pytest

from repro.lint import (
    Analyzer,
    LintConfig,
    ProviderSchema,
    discover_provider_names,
    discover_provider_schemas,
)


def lint(source: str, **config_kwargs):
    config_kwargs.setdefault("allow", {})
    analyzer = Analyzer(config=LintConfig(**config_kwargs))
    return analyzer.lint_source(textwrap.dedent(source), path="snippet.py")


def rule_ids(source: str, **config_kwargs):
    return [d.rule_id for d in lint(source, **config_kwargs)]


#: A well-formed transfer state reused across fixtures.
TRANSFER_A = """\
FlowState(name="A", provider="transfer",
          parameters={"source_endpoint": "$.input.src_ep",
                      "source_path": "$.input.src",
                      "dest_endpoint": "$.input.dst_ep",
                      "dest_path": "$.input.dst"}),
"""


def flow(second_state: str) -> str:
    return (
        'd = FlowDefinition(\n'
        '    title="t",\n'
        '    states=(\n'
        + textwrap.indent(TRANSFER_A, " " * 8)
        + textwrap.indent(second_state, " " * 8)
        + "    ),\n)\n"
    )


# -- F401: dangling payload references ----------------------------------------


def test_f401_fires_on_key_no_upstream_state_produces():
    src = flow(
        'FlowState(name="B", provider="compute",\n'
        '          parameters={"endpoint": "$.input.ep",\n'
        '                      "function_id": "$.states.A.no_such_key"}),\n'
    )
    ds = lint(src)
    assert [d.rule_id for d in ds] == ["F401"]
    assert "only produces keys" in ds[0].message


def test_f401_fires_on_unknown_template_root():
    src = flow(
        'FlowState(name="B", provider="compute",\n'
        '          parameters={"endpoint": "$.oops.thing",\n'
        '                      "function_id": "$.input.fn"}),\n'
    )
    ds = [d for d in lint(src) if d.rule_id == "F401"]
    assert len(ds) == 1
    assert "$.input" in ds[0].message and "'oops'" in ds[0].message


def test_f401_clean_on_declared_outputs_and_opaque_input():
    src = flow(
        'FlowState(name="B", provider="compute",\n'
        '          parameters={"endpoint": "$.input.anything_at_all",\n'
        '                      "function_id": "$.states.A.task_id"}),\n'
    )
    assert rule_ids(src) == []


def test_f401_gives_undeclared_providers_benefit_of_the_doubt():
    # Provider registered name-only (no schemas): its outputs are opaque.
    schemas = dict(discover_provider_schemas())
    schemas["mystery"] = ProviderSchema(name="mystery")
    src = """
    d = FlowDefinition(
        title="t",
        states=(
            FlowState(name="A", provider="mystery"),
            FlowState(name="B", provider="mystery",
                      parameters={"x": "$.states.A.whatever"}),
        ),
    )
    """
    assert rule_ids(src, provider_schemas=MappingProxyType(schemas)) == []


# -- F402: parameters outside the input schema --------------------------------


def test_f402_fires_on_unknown_parameter():
    src = flow(
        'FlowState(name="B", provider="compute",\n'
        '          parameters={"endpoint": "$.input.ep",\n'
        '                      "function_id": "$.input.fn",\n'
        '                      "bogus": 1}),\n'
    )
    ds = [d for d in lint(src) if d.rule_id == "F402"]
    assert len(ds) == 1
    assert "'bogus'" in ds[0].message


def test_f402_fires_on_missing_required_parameter():
    src = flow(
        'FlowState(name="B", provider="compute",\n'
        '          parameters={"endpoint": "$.input.ep"}),\n'
    )
    ds = [d for d in lint(src) if d.rule_id == "F402"]
    assert len(ds) == 1
    assert "'function_id'" in ds[0].message and "requires" in ds[0].message


def test_f402_optional_parameters_may_be_omitted_or_supplied():
    with_optional = flow(
        'FlowState(name="B", provider="compute",\n'
        '          parameters={"endpoint": "$.input.ep",\n'
        '                      "function_id": "$.input.fn",\n'
        '                      "kwargs": {"k": "$.states.A.task_id"}}),\n'
    )
    assert rule_ids(with_optional) == []


def test_f402_checks_bare_flowstate_fragments_outside_definitions():
    # Gladier tool fragments are plain FlowState calls, no FlowDefinition.
    src = 's = FlowState(name="X", provider="transfer", parameters={"wrong": 1})\n'
    assert "F402" in rule_ids(src)


def test_f402_skips_missing_required_when_keys_are_dynamic():
    src = flow(
        'FlowState(name="B", provider="compute",\n'
        '          parameters={"endpoint": "$.input.ep", **extra}),\n'
    )
    assert rule_ids(src) == []


# -- F403: conflicting payload types ------------------------------------------


def test_f403_fires_on_wrong_literal_type():
    src = flow(
        'FlowState(name="B", provider="compute",\n'
        '          parameters={"endpoint": 42,\n'
        '                      "function_id": "$.input.fn"}),\n'
    )
    ds = [d for d in lint(src) if d.rule_id == "F403"]
    assert len(ds) == 1
    assert "'str'" in ds[0].message and "'int'" in ds[0].message


def test_f403_fires_on_template_type_conflict_through_the_dataflow():
    # compute's cold_start is declared bool; transfer's dest_path is str.
    src = """
    d = FlowDefinition(
        title="t",
        states=(
            FlowState(name="A", provider="compute",
                      parameters={"endpoint": "$.input.ep",
                                  "function_id": "$.input.fn"}),
            FlowState(name="B", provider="transfer",
                      parameters={"source_endpoint": "$.input.a",
                                  "source_path": "$.input.b",
                                  "dest_endpoint": "$.input.c",
                                  "dest_path": "$.states.A.cold_start"}),
        ),
    )
    """
    ds = [d for d in lint(src) if d.rule_id == "F403"]
    assert len(ds) == 1
    assert "cold_start" in ds[0].message


def test_f403_fires_on_duplicate_key_overwrite():
    src = (
        's = FlowState(name="X", provider="search_ingest",\n'
        '              parameters={"index": "$.input.i", "subject": "$.input.s",\n'
        '                          "content": {}, "subject": 7})\n'
    )
    ds = [d for d in lint(src) if d.rule_id == "F403"]
    assert any("duplicate parameter key 'subject'" in d.message for d in ds)


def test_f403_numeric_types_inter_match():
    config = dict(
        provider_schemas=MappingProxyType(
            {
                "meter": ProviderSchema(
                    name="meter",
                    input_schema=MappingProxyType({"level": "number"}),
                    output_schema=MappingProxyType({}),
                )
            }
        )
    )
    ok = 's = FlowState(name="X", provider="meter", parameters={"level": 3})\n'
    bad = 's = FlowState(name="X", provider="meter", parameters={"level": "hi"})\n'
    assert rule_ids(ok, **config) == []
    assert "F403" in rule_ids(bad, **config)


# -- F404: providers must declare schemas -------------------------------------


def test_f404_fires_on_provider_without_schemas():
    src = """
    class BareProvider:
        name = "bare"
        def run(self, body): ...
        def status(self, action_id): ...
    """
    ds = [d for d in lint(src) if d.rule_id == "F404"]
    assert len(ds) == 1
    assert "input_schema" in ds[0].message and "output_schema" in ds[0].message


def test_f404_clean_with_literal_schemas_and_skips_non_providers():
    declared = """
    class GoodProvider:
        name = "good"
        input_schema = {"path": "str", "retries?": "int"}
        output_schema = {"task_id": "str"}
        def run(self, body): ...
        def status(self, action_id): ...
    """
    not_a_provider = """
    class Service:
        def run(self, body): ...
        def status(self, action_id): ...
    """
    assert rule_ids(declared) == []
    assert rule_ids(not_a_provider) == []


# -- the schema registry (single source of truth) -----------------------------


def test_registry_carries_schemas_for_every_shipped_provider():
    schemas = discover_provider_schemas()
    for name in ("transfer", "compute", "search_ingest", "local_compress"):
        schema = schemas[name]
        assert schema.input_schema is not None, name
        assert schema.output_schema is not None, name


def test_registry_reads_annotated_schema_declarations(tmp_path):
    """``name: str = "x"`` declares like ``name = "x"``; an annotation
    with no value (``name: str``) declares nothing."""
    (tmp_path / "annotated.py").write_text(textwrap.dedent(
        """
        class Annotated:
            name: str = "annotated"
            input_schema: dict = {"path": "str"}
            output_schema: dict = {"chunks": "int"}

            def run(self, body):
                return "a-1"

            def status(self, action_id):
                return None

        class Bare:
            name: str

            def run(self, body):
                return "b-1"

            def status(self, action_id):
                return None
        """
    ))
    schemas = discover_provider_schemas(str(tmp_path))
    assert set(schemas) == {"annotated"}
    assert dict(schemas["annotated"].input_schema) == {"path": "str"}
    assert dict(schemas["annotated"].output_schema) == {"chunks": "int"}


def test_known_providers_is_derived_from_the_schema_registry():
    config = LintConfig(allow={})
    assert config.known_providers == frozenset(config.provider_schemas)
    assert discover_provider_names() == frozenset(discover_provider_schemas())


def test_provider_schema_required_accepted_and_param_type():
    schema = discover_provider_schemas()["compute"]
    assert schema.required_params == frozenset({"endpoint", "function_id"})
    assert {"args", "kwargs"} <= schema.accepted_params
    assert schema.param_type("kwargs") == "dict"
    assert schema.param_type("nope") is None


def test_f4xx_rules_are_registered():
    from repro.lint import all_rules

    catalog = all_rules()
    for rid in ("F401", "F402", "F403", "F404"):
        assert rid in catalog


def test_runtime_check_body_enforces_the_same_contract():
    # The static schema and the runtime guard share one declaration.
    from repro.flows import check_body

    schema = {"endpoint": "str", "function_id": "str", "kwargs?": "dict"}
    check_body("compute", schema, {"endpoint": "e", "function_id": "f"})
    with pytest.raises(ValueError, match="function_id"):
        check_body("compute", schema, {"endpoint": "e"})
    with pytest.raises(ValueError, match="bogus"):
        check_body("compute", schema, {"endpoint": "e", "function_id": "f", "bogus": 1})
