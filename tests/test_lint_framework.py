"""Analyzer-framework tests: registry, resolver, config scoping,
diagnostics, suppressions, and the directory walker."""

from __future__ import annotations

import ast

import pytest

from repro.lint import (
    Analyzer,
    Diagnostic,
    ImportResolver,
    LintConfig,
    Rule,
    Severity,
    all_rules,
    discover_provider_names,
)


# -- diagnostics --------------------------------------------------------------


def test_severity_parse_and_ordering():
    assert Severity.parse("warn") is Severity.WARNING
    assert Severity.parse("Error") is Severity.ERROR
    assert Severity.ERROR > Severity.WARNING
    with pytest.raises(ValueError):
        Severity.parse("fatal")


def test_diagnostic_format_and_dict():
    d = Diagnostic(
        path="a.py", line=3, col=5, rule_id="D101",
        severity=Severity.ERROR, message="no clocks",
    )
    assert d.format() == "a.py:3:5: D101 [error] no clocks"
    assert d.as_dict()["severity"] == "error"


def test_diagnostics_sort_by_location():
    ds = Analyzer(config=LintConfig(allow={})).lint_source(
        "import time\nimport random\nrandom.random()\nt = time.time()\n"
    )
    assert [d.line for d in ds] == sorted(d.line for d in ds)


# -- import resolver ----------------------------------------------------------


def test_resolver_handles_alias_forms():
    tree = ast.parse(
        "import time as _t\n"
        "from time import monotonic as mono\n"
        "import numpy.random\n"
    )
    r = ImportResolver(tree)
    assert r.resolve(ast.parse("_t.sleep", mode="eval").body) == "time.sleep"
    assert r.resolve(ast.parse("mono", mode="eval").body) == "time.monotonic"
    assert (
        r.resolve(ast.parse("numpy.random.rand", mode="eval").body)
        == "numpy.random.rand"
    )


def test_resolver_returns_none_for_unknown_roots():
    r = ImportResolver(ast.parse("import os\n"))
    assert r.resolve(ast.parse("sys.path", mode="eval").body) is None


# -- registry & custom rules --------------------------------------------------


def test_catalog_ids_are_unique_and_namespaced():
    catalog = all_rules()
    assert len(catalog) == len(set(catalog))
    for rid, cls in catalog.items():
        assert rid == cls.rule_id
        assert cls.summary


def test_analyzer_accepts_an_explicit_rule_subset():
    d101 = all_rules()["D101"]()
    analyzer = Analyzer(config=LintConfig(allow={}), rules=[d101])
    src = "import time, random\nrandom.random()\nt = time.time()\n"
    assert [d.rule_id for d in analyzer.lint_source(src)] == ["D101"]


def test_select_and_ignore_config():
    src = "import time, random\nrandom.random()\nt = time.time()\n"
    only = Analyzer(config=LintConfig(allow={}, select=frozenset({"D103"})))
    assert [d.rule_id for d in only.lint_source(src)] == ["D103"]
    without = Analyzer(config=LintConfig(allow={}, ignore=frozenset({"D103"})))
    assert [d.rule_id for d in without.lint_source(src)] == ["D101"]


# -- path-scoped allowances ---------------------------------------------------


def test_default_allowlist_covers_realtime_and_observer():
    cfg = LintConfig()
    assert cfg.allowed_for_path("src/repro/watcher/observer.py", "D101")
    assert cfg.allowed_for_path("src/repro/watcher/observer.py", "D102")
    # but not for other rules or other files
    assert not cfg.allowed_for_path("src/repro/watcher/observer.py", "D103")
    assert not cfg.allowed_for_path("src/repro/sim/core.py", "D101")


def test_allowance_suppresses_findings_by_path():
    src = "import time\nt = time.time()\n"
    cfg = LintConfig(allow={"legacy/*.py": frozenset({"D101"})})
    a = Analyzer(config=cfg)
    assert a.lint_source(src, path="legacy/old.py") == []
    assert [d.rule_id for d in a.lint_source(src, path="new/fresh.py")] == ["D101"]


# -- noqa ---------------------------------------------------------------------


def test_noqa_is_line_scoped():
    src = (
        "import time\n"
        "a = time.time()  # repro: noqa[D101] calibration baseline\n"
        "b = time.time()\n"
    )
    ds = Analyzer(config=LintConfig(allow={})).lint_source(src)
    assert [(d.rule_id, d.line) for d in ds] == [("D101", 3)]


def test_noqa_multiple_ids():
    src = (
        "import time, random\n"
        "t = time.time(); random.random()  # repro: noqa[D101, D103]\n"
    )
    assert Analyzer(config=LintConfig(allow={})).lint_source(src) == []


def test_noqa_file_blanket_suppresses_everything():
    src = (
        "# repro: noqa-file  demo script, determinism not required\n"
        "import time, random\n"
        "t = time.time()\n"
        "x = random.random()\n"
    )
    assert Analyzer(config=LintConfig(allow={})).lint_source(src) == []


def test_noqa_file_targeted_leaves_other_rules_firing():
    src = (
        "# repro: noqa-file[D101]  this module bridges to the wall clock\n"
        "import time, random\n"
        "t = time.time()\n"
        "x = random.random()\n"
    )
    ds = Analyzer(config=LintConfig(allow={})).lint_source(src)
    assert [d.rule_id for d in ds] == ["D103"]


def test_noqa_file_markers_union_and_apply_anywhere_in_the_file():
    src = (
        "import time, random\n"
        "# repro: noqa-file[D101]\n"
        "t = time.time()\n"
        "x = random.random()\n"
        "# repro: noqa-file[D103]  (not just at the top)\n"
    )
    assert Analyzer(config=LintConfig(allow={})).lint_source(src) == []


def test_noqa_file_with_ids_is_not_a_blanket_line_noqa():
    # the -file marker must not be misparsed as a same-line suppression
    src = (
        "import time\n"
        "t = time.time()  # repro: noqa-file[D103]\n"
        "u = time.time()\n"
    )
    ds = Analyzer(config=LintConfig(allow={})).lint_source(src)
    assert [(d.rule_id, d.line) for d in ds] == [("D101", 2), ("D101", 3)]


# -- files & directories ------------------------------------------------------


def test_lint_paths_walks_directories_deterministically(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("import time\nt = time.time()\n")
    (tmp_path / "pkg" / "a.py").write_text("import random\nrandom.random()\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    a = Analyzer(config=LintConfig(allow={}))
    ds = a.lint_paths([str(tmp_path)])
    assert [d.rule_id for d in ds] == ["D103", "D101"]  # a.py then b.py
    assert ds == a.lint_paths([str(tmp_path)])  # stable across runs


def test_syntax_errors_surface_as_diagnostics(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    ds = Analyzer().lint_file(str(bad))
    assert len(ds) == 1
    assert ds[0].rule_id == "E000"
    assert ds[0].severity is Severity.ERROR


# -- provider discovery -------------------------------------------------------


def test_discover_provider_names_scans_provider_shaped_classes(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class GoodProvider:\n"
        "    name = 'custom_thing'\n"
        "    def run(self, body): ...\n"
        "    def status(self, action_id): ...\n"
        "class NotAProvider:\n"
        "    name = 'just_a_name'\n"
    )
    names = discover_provider_names(str(tmp_path))
    assert names == frozenset({"custom_thing"})


def test_discover_provider_names_finds_the_real_registry():
    names = discover_provider_names()
    assert {"transfer", "compute", "search_ingest", "local_compress"} <= names


# -- writing a new rule against the public API --------------------------------


def test_custom_rule_via_public_base_class():
    class NoPrint(Rule):
        rule_id = "D999"
        severity = Severity.WARNING
        summary = "no print in library code"
        interests = (ast.Call,)

        def visit(self, ctx, node):
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                ctx.report(self, node, "print() call")

    a = Analyzer(config=LintConfig(allow={}), rules=[NoPrint()])
    ds = a.lint_source("print('hi')\n")
    assert [(d.rule_id, d.severity) for d in ds] == [("D999", Severity.WARNING)]


def test_resolver_resolves_relative_imports_with_module_context():
    # the regression behind the call-graph gaps: `from .gate import
    # ServiceGate` used to stay unresolved, dropping intra-package edges
    tree = ast.parse(
        "from .gate import ServiceGate\n"
        "from ..sim import core\n"
        "from . import metrics as m\n"
    )
    r = ImportResolver(tree, module="repro.chaos.controller")
    assert (
        r.resolve(ast.parse("ServiceGate", mode="eval").body)
        == "repro.chaos.gate.ServiceGate"
    )
    assert r.resolve(ast.parse("core.run", mode="eval").body) == "repro.sim.core.run"
    assert r.resolve(ast.parse("m", mode="eval").body) == "repro.chaos.metrics"


def test_resolver_relative_imports_in_a_package_init():
    # a package __init__ already *is* its package: one fewer level
    tree = ast.parse("from .gate import ServiceGate\n")
    r = ImportResolver(tree, module="repro.chaos", is_package=True)
    assert (
        r.resolve(ast.parse("ServiceGate", mode="eval").body)
        == "repro.chaos.gate.ServiceGate"
    )


def test_resolver_relative_imports_without_context_stay_unresolved():
    tree = ast.parse("from .gate import ServiceGate\n")
    r = ImportResolver(tree)
    assert r.resolve(ast.parse("ServiceGate", mode="eval").body) is None


def test_resolver_relative_import_climbing_past_the_root_is_dropped():
    tree = ast.parse("from ...nowhere import thing\n")
    r = ImportResolver(tree, module="repro.chaos")
    assert r.resolve(ast.parse("thing", mode="eval").body) is None
