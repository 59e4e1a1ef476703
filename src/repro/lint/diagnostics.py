"""Diagnostic objects emitted by the analyzer.

A :class:`Diagnostic` is one finding: a rule id (``D101``, ``R504``,
``F401``...), a severity, a location (``file:line:col``), and a
human-readable message.  Diagnostics sort by location so reports are
stable regardless of rule execution order — the analyzer itself must be
as deterministic as the code it polices.

:func:`sarif_report` renders a finding list as a SARIF 2.1.0 log so CI
systems (GitHub code scanning, Azure DevOps, ...) can surface lint and
sanitizer results as inline annotations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

__all__ = ["Severity", "Diagnostic", "sarif_report"]


class Severity(enum.IntEnum):
    """Ordered severity levels (comparable: ``ERROR > WARNING``)."""

    WARNING = 1
    ERROR = 2

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return {"warn": cls.WARNING, "warning": cls.WARNING, "error": cls.ERROR}[
                text.strip().lower()
            ]
        except KeyError:
            raise ValueError(f"unknown severity: {text!r}") from None

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One analyzer finding, ordered by (path, line, col, rule_id)."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: Severity
    message: str

    def format(self) -> str:
        """Render as ``path:line:col: RULE [severity] message``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )

    def as_dict(self) -> dict:
        """JSON-serializable representation (for ``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": str(self.severity),
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Diagnostic":
        """Inverse of :meth:`as_dict` (used by the incremental cache)."""
        return cls(
            path=data["path"],
            line=int(data["line"]),
            col=int(data["col"]),
            rule_id=data["rule"],
            severity=Severity.parse(data["severity"]),
            message=data["message"],
        )


#: SARIF's result levels for our two severities.
_SARIF_LEVELS = {Severity.WARNING: "warning", Severity.ERROR: "error"}


def sarif_report(
    diagnostics: Iterable[Diagnostic],
    rule_summaries: Optional[Mapping[str, str]] = None,
    tool_name: str = "repro.lint",
) -> dict:
    """Render diagnostics as a SARIF 2.1.0 log (a JSON-serializable
    dict).  ``rule_summaries`` maps rule ids to one-line descriptions
    for the driver's rule table; ids appearing only in findings (e.g.
    the sanitizer's dynamic S9xx reports) are listed without one.
    """
    diags = sorted(diagnostics)
    seen_rules: dict[str, str] = {}
    for d in diags:
        if d.rule_id not in seen_rules:
            summary = (rule_summaries or {}).get(d.rule_id, "")
            seen_rules[d.rule_id] = summary
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "informationUri": "https://github.com/",
                        "rules": [
                            {
                                "id": rid,
                                "shortDescription": {"text": summary or rid},
                            }
                            for rid, summary in sorted(seen_rules.items())
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": d.rule_id,
                        "level": _SARIF_LEVELS[d.severity],
                        "message": {"text": d.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {"uri": d.path},
                                    "region": {
                                        "startLine": max(1, d.line),
                                        "startColumn": max(1, d.col),
                                    },
                                }
                            }
                        ],
                    }
                    for d in diags
                ],
            }
        ],
    }
