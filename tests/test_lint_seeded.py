"""The seeded fixture repo: one module per R5xx/N7xx rule
reconstructing a bug actually fixed in this repo's history (R5xx: PRs
3–4 lifecycle bugs; N7xx: the PR-7 vfs listing-order bug and its
ordering-hazard siblings), plus its fixed twin.  Each rule must catch
its reconstruction and accept the fix — the end-to-end proof the packs
would have caught the original regressions.

The retirement twins prove the same for the syntactic rules D106, D107,
S202 and F303, which were folded into the flow-sensitive rules owning
their hazards: each buggy twin marks every shape the retired rule caught
with ``# expect: <survivor>``, and its fixed twin carries every shape
the retired rule accepted."""

from __future__ import annotations

import os
import re

import pytest

from repro.lint import Analyzer, LintConfig

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint_seeded")


def lint_dir(which: str):
    analyzer = Analyzer(config=LintConfig(allow={}))
    return analyzer.lint_paths([os.path.join(FIXTURES, which)])


EXPECTED = {
    "R501": "fabric_timer.py",
    "R502": "span_probe.py",
    "R503": "checkpoint_store.py",
    "R504": "node_pool.py",
}

EXPECTED_N7 = {
    "N701": "vfs_listing.py",
    "N702": "sweep_merge.py",
    "N703": "stats_probe.py",
    "N704": "tie_key.py",
    "N705": "clock_launder.py",
}

#: Retirement twin -> the survivor that owns the retired rule's hazard.
RETIRED = {
    "event_fanout.py": "N701",  # D106
    "set_total.py": "N703",  # D106
    "id_order.py": "N704",  # D107
    "pool_claim.py": "R504",  # S202
    "state_refs.py": "F401",  # F303
}

_EXPECT = re.compile(r"#\s*expect:\s*(\w+)")


def _expected_lines(path: str) -> set[tuple[int, str]]:
    """``(line, rule id)`` for every ``# expect: <rule>`` marker."""
    out = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            m = _EXPECT.search(line)
            if m:
                out.add((lineno, m.group(1)))
    return out


@pytest.mark.parametrize(
    "rid,filename", sorted({**EXPECTED, **EXPECTED_N7}.items())
)
def test_each_rule_catches_its_bug_reconstruction(rid, filename):
    findings = lint_dir("buggy")
    hits = [
        d
        for d in findings
        if d.rule_id == rid and os.path.basename(d.path) not in RETIRED
    ]
    assert hits, f"{rid} missed its seeded reconstruction"
    assert all(os.path.basename(d.path) == filename for d in hits)


def test_buggy_tree_has_exactly_the_seeded_lifecycle_findings():
    findings = [d for d in lint_dir("buggy") if d.rule_id.startswith("R5")]
    assert sorted({d.rule_id for d in findings}) == sorted(EXPECTED)


def test_buggy_tree_has_exactly_the_seeded_ordering_findings():
    findings = [d for d in lint_dir("buggy") if d.rule_id.startswith("N7")]
    assert sorted({d.rule_id for d in findings}) == sorted(EXPECTED_N7)


def test_fixed_twins_are_clean():
    findings = lint_dir("fixed")
    assert [d for d in findings if d.rule_id.startswith("R5")] == []
    assert [d for d in findings if d.rule_id.startswith("N7")] == []


@pytest.mark.parametrize("filename,survivor", sorted(RETIRED.items()))
def test_survivor_flags_every_shape_of_the_retired_rule(filename, survivor):
    path = os.path.join(FIXTURES, "buggy", filename)
    expected = _expected_lines(path)
    assert expected and {rid for _, rid in expected} == {survivor}
    found = {
        (d.line, d.rule_id)
        for d in lint_dir("buggy")
        if os.path.basename(d.path) == filename
    }
    # every marked shape, by the named survivor, and nothing else
    assert found == expected


def test_retirement_twins_are_clean_under_every_rule():
    findings = lint_dir("fixed")
    twins = [d for d in findings if os.path.basename(d.path) in RETIRED]
    assert [d.format() for d in twins] == []
