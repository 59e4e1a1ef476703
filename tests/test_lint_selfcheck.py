"""Tier-1 self-check: the analyzer over the entire ``repro`` package.

This is the permanent correctness gate: any future PR that sneaks a
wall-clock read, an unseeded RNG draw, a hash-ordered iteration, a
mis-wired flow definition, or a leaked span/timer/temp-file into
``src/repro`` fails the ordinary pytest run — no separate CI step
needed.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.lint import Analyzer, Severity

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


@pytest.fixture(scope="module")
def package_lint():
    """One whole-package run shared by every test here (each costs ~4 s):
    the analyzer, for its statistics, and its diagnostics."""
    analyzer = Analyzer()
    return analyzer, analyzer.lint_paths([PACKAGE_ROOT])


def test_repro_package_is_lint_clean(package_lint):
    _, diagnostics = package_lint
    errors = [d for d in diagnostics if d.severity >= Severity.ERROR]
    assert not errors, "lint errors in src/repro:\n" + "\n".join(
        d.format() for d in errors
    )


def test_repro_package_has_no_lifecycle_errors(package_lint):
    # The R5xx pack specifically: every span is finished, every timer
    # cancelled or awaited, every temp file cleaned on failure paths.
    _, diagnostics = package_lint
    lifecycle = [d for d in diagnostics if d.rule_id.startswith("R5")]
    assert not lifecycle, "resource-lifecycle findings:\n" + "\n".join(
        d.format() for d in lifecycle
    )


def test_selfcheck_covers_the_whole_package():
    # Guard against the self-check silently linting nothing: the package
    # has dozens of modules and the walk must reach the deep ones.
    py_files = [
        os.path.join(dirpath, f)
        for dirpath, _dirs, files in os.walk(PACKAGE_ROOT)
        for f in files
        if f.endswith(".py")
    ]
    assert len(py_files) > 60
    assert any(p.endswith(os.path.join("sim", "core.py")) for p in py_files)


def test_selfcheck_reports_statistics(package_lint):
    analyzer, _ = package_lint
    stats = analyzer.stats.as_dict()
    assert stats["files_total"] > 60
    assert stats["files_analyzed"] == stats["files_total"]
    assert stats["cache_hit_rate"] == 0.0  # no cache passed


def test_rule_catalog_is_complete():
    # The catalog the self-check runs with: >= 10 rules across the six
    # packs, ids well-formed.
    from repro.lint import all_rules

    catalog = all_rules()
    assert len(catalog) >= 10
    packs = {rid[0] for rid in catalog}
    assert packs == {"D", "S", "F", "R", "P", "N"}
    assert all(len(rid) == 4 for rid in catalog)
    # the new packs each registered their full complement
    assert {"R501", "R502", "R503", "R504"} <= set(catalog)
    assert {"P601", "P602", "P603"} <= set(catalog)
    assert {"N701", "N702", "N703", "N704", "N705"} <= set(catalog)


def test_no_findings_beyond_committed_baseline(package_lint):
    # The ratchet: *any* new finding — warning or error — must either be
    # fixed or explicitly accepted by regenerating LINT_BASELINE.json
    # (`python -m repro lint --write-baseline`, the documented escape
    # hatch).  The committed baseline is the repo's acknowledged debt.
    from repro.lint import Baseline

    baseline_path = os.path.join(
        os.path.dirname(__file__), "..", "LINT_BASELINE.json"
    )
    assert os.path.exists(baseline_path), (
        "LINT_BASELINE.json is missing — regenerate it with "
        "`PYTHONPATH=src python -m repro lint src/repro --write-baseline`"
    )
    baseline = Baseline.load(baseline_path)
    fresh, _suppressed = baseline.apply(package_lint[1])
    assert not fresh, (
        "new lint findings not in LINT_BASELINE.json (fix them, or "
        "accept with --write-baseline):\n"
        + "\n".join(d.format() for d in fresh)
    )
