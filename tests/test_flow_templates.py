"""Edge cases for ``resolve_template`` (nesting, the ``$$.`` escape,
error text) and ``FlowDefinition`` structural validation."""

from __future__ import annotations

import pytest

from repro.errors import FlowDefinitionError
from repro.flows import FlowDefinition, FlowState, resolve_template


CTX = {
    "input": {"path": "/a.emd", "depth": {"leaf": 7}},
    "states": {"TransferData": {"task_id": "t-1"}},
}


# -- nesting ------------------------------------------------------------------


def test_nested_dicts_and_lists_resolve_recursively():
    value = {
        "files": ["$.input.path", {"deep": "$.input.depth.leaf"}],
        "meta": {"task": "$.states.TransferData.task_id", "n": 3},
    }
    assert resolve_template(value, CTX) == {
        "files": ["/a.emd", {"deep": 7}],
        "meta": {"task": "t-1", "n": 3},
    }


def test_non_string_scalars_pass_through():
    assert resolve_template(42, CTX) == 42
    assert resolve_template(None, CTX) is None
    assert resolve_template([1, 2.5, True], CTX) == [1, 2.5, True]


# -- the $$. escape -----------------------------------------------------------


def test_dollar_escape_yields_literal_prefix():
    assert resolve_template("$$.not.a.path", CTX) == "$.not.a.path"


def test_dollar_escape_works_nested_and_needs_no_context():
    assert resolve_template({"doc": ["$$.input"]}, {}) == {"doc": ["$.input"]}


def test_single_sigil_still_resolves():
    assert resolve_template("$.input.path", CTX) == "/a.emd"


# -- error text ---------------------------------------------------------------


def test_missing_path_error_names_the_failing_segment():
    with pytest.raises(FlowDefinitionError, match=r"segment 'nope'"):
        resolve_template("$.input.nope", CTX)


def test_missing_path_error_lists_available_keys():
    with pytest.raises(FlowDefinitionError, match=r"depth.*path|path.*depth"):
        resolve_template("$.input.missing", CTX)


def test_descent_into_non_dict_reports_node_type():
    with pytest.raises(FlowDefinitionError, match=r"segment 'deeper'.*str"):
        resolve_template("$.input.path.deeper", CTX)


# -- FlowDefinition validation ------------------------------------------------


def _state(name):
    return FlowState(name=name, provider="transfer")


def test_duplicate_names_and_empty_states_raise():
    with pytest.raises(FlowDefinitionError, match=r"duplicate"):
        FlowDefinition(title="t", states=(_state("A"), _state("A")))
    with pytest.raises(FlowDefinitionError, match=r"no states"):
        FlowDefinition(title="t", states=())
