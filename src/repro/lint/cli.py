"""``python -m repro lint`` — the command-line surface.

Examples
--------
::

    python -m repro lint src/repro                 # text report, exit 1 on errors
    python -m repro lint src/repro --format json   # machine-readable findings
    python -m repro lint --format sarif --output lint.sarif   # CI annotations
    python -m repro lint --fail-on warn            # strict: warnings also fail
    python -m repro lint --select D101,D102 path/  # run a subset of rules
    python -m repro lint --list-rules              # print the catalog
    python -m repro lint --explain N701            # docs + bad/good example
    python -m repro lint src/repro --statistics    # per-rule counts, cache rate
    python -m repro lint --changed-only            # only files changed in git
    python -m repro lint --write-baseline          # ratchet: record current debt
    python -m repro lint --baseline LINT_BASELINE.json   # report only new findings

Repeated runs are incremental by default: per-file findings are cached
in ``.repro-lint-cache.json`` keyed by content hash, and invalidated
wholesale when the rule set, config, or interprocedural facts change.
``--no-cache`` forces a cold run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import time
from typing import Iterable, Optional

from .analyzer import Analyzer, all_rules
from .baseline import Baseline
from .cache import LintCache
from .config import LintConfig
from .diagnostics import Diagnostic, Severity, sarif_report

__all__ = ["add_lint_arguments", "render_report", "run_lint", "main"]

DEFAULT_CACHE_PATH = ".repro-lint-cache.json"
DEFAULT_BASELINE_PATH = "LINT_BASELINE.json"


def _default_target() -> str:
    """The installed ``repro`` package directory."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text", dest="fmt"
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the report to this path instead of stdout",
    )
    parser.add_argument(
        "--fail-on",
        choices=["warn", "error"],
        default="error",
        help="lowest severity that causes a nonzero exit (default: error)",
    )
    parser.add_argument(
        "--select",
        default="",
        help="comma-separated rule ids to run exclusively (e.g. D101,R504)",
    )
    parser.add_argument(
        "--ignore", default="", help="comma-separated rule ids to disable"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print a rule's documentation, severity, and a minimal "
        "bad/good example pair, then exit",
    )
    parser.add_argument(
        "--cache",
        default=DEFAULT_CACHE_PATH,
        help=f"incremental cache file (default: {DEFAULT_CACHE_PATH})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache for this run",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="lint only files changed vs. git HEAD (plus untracked files)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="suppress findings recorded in this baseline file "
        "(ratchet mode: only new findings are reported)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings as the baseline and exit",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="also report per-rule counts, files analyzed, cache hit "
        "rate, and wall time",
    )


def _parse_ids(text: str) -> frozenset[str]:
    return frozenset(x.strip().upper() for x in text.split(",") if x.strip())


def _expand_py_files(paths: Iterable[str]) -> list[str]:
    """Flatten directories into their ``.py`` files, sorted walk order
    (mirrors :meth:`Analyzer.lint_paths`)."""
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
    return files


def _git_changed_files() -> Optional[set[str]]:
    """Absolute paths of files modified vs. HEAD plus untracked files;
    ``None`` when git is unavailable or this is not a work tree."""
    out: set[str] = set()
    for cmd in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        for line in proc.stdout.splitlines():
            line = line.strip()
            if line:
                out.add(os.path.abspath(line))
    return out


def render_report(
    diagnostics: Iterable[Diagnostic],
    fmt: str,
    n_paths: int = 1,
    tool_name: str = "repro.lint",
    statistics: Optional[dict] = None,
) -> str:
    """Render a finding list in one of the CLI's formats (shared with
    ``python -m repro sanitize``).

    Without ``statistics`` the json payload is a plain findings list —
    the stable machine interface; passing ``statistics`` switches json
    to a ``{"findings": ..., "statistics": ...}`` envelope and appends
    a summary block to the text format.
    """
    diags = sorted(diagnostics)
    if fmt == "json":
        findings = [d.as_dict() for d in diags]
        if statistics is not None:
            return json.dumps(
                {"findings": findings, "statistics": statistics}, indent=2
            )
        return json.dumps(findings, indent=2)
    if fmt == "sarif":
        summaries = {rid: cls.summary for rid, cls in all_rules().items()}
        return json.dumps(sarif_report(diags, summaries, tool_name=tool_name), indent=2)
    lines = [d.format() for d in diags]
    n_err = sum(1 for d in diags if d.severity >= Severity.ERROR)
    n_warn = len(diags) - n_err
    lines.append(
        f"{len(diags)} finding(s): {n_err} error(s), "
        f"{n_warn} warning(s) in {n_paths} path(s)"
    )
    if statistics is not None:
        lines.append("-- statistics --")
        lines.append(f"files analyzed:     {statistics['files_analyzed']}")
        lines.append(f"files from cache:   {statistics['files_cached']}")
        lines.append(f"cache hit rate:     {statistics['cache_hit_rate']:.1%}")
        if statistics.get("suppressed_by_baseline"):
            lines.append(
                f"baseline-suppressed: {statistics['suppressed_by_baseline']}"
            )
        lines.append(f"wall time:          {statistics['wall_time_s']:.3f}s")
        for rid in sorted(statistics["rule_counts"]):
            lines.append(f"  {rid}: {statistics['rule_counts'][rid]}")
    return "\n".join(lines)


def _explain_rule(catalog: dict, rule_id: str) -> int:
    """Print one rule's documentation and its bad/good example pair
    (the same sources the test suite pins — the bad twin must fire,
    the good twin must stay silent)."""
    rid = rule_id.strip().upper()
    cls = catalog.get(rid)
    if cls is None:
        print(f"unknown rule id: {rid} (try --list-rules)")
        return 2
    lines = [f"{rid}  [{cls.severity}]  {cls.summary}", ""]
    doc = (cls.__doc__ or "").strip("\n")
    if doc:
        import textwrap

        lines.append(textwrap.dedent(" " * 4 + doc).strip())
        lines.append("")
    bad = getattr(cls, "example_bad", None)
    good = getattr(cls, "example_good", None)
    if bad:
        lines.append("bad:")
        lines.extend("    " + ln for ln in bad.rstrip("\n").splitlines())
    if good:
        lines.append("good:")
        lines.extend("    " + ln for ln in good.rstrip("\n").splitlines())
    if not bad and not good:
        lines.append("(no example pair recorded for this rule)")
    print("\n".join(lines).rstrip())
    return 0


def run_lint(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()  # repro: noqa[D101]  CLI wall-time report
    catalog = all_rules()
    if args.list_rules:
        for rid in sorted(catalog):
            cls = catalog[rid]
            print(f"{rid}  [{cls.severity}]  {cls.summary}")
        return 0
    if getattr(args, "explain", None):
        return _explain_rule(catalog, args.explain)
    for rid in _parse_ids(args.select) | _parse_ids(args.ignore):
        if rid not in catalog:
            print(f"unknown rule id: {rid} (try --list-rules)")
            return 2
    config = LintConfig(select=_parse_ids(args.select), ignore=_parse_ids(args.ignore))
    analyzer = Analyzer(config=config)
    paths = args.paths or [_default_target()]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"no such file or directory: {missing[0]}")
        return 2

    if getattr(args, "changed_only", False):
        changed = _git_changed_files()
        if changed is None:
            print("--changed-only requires a git work tree")
            return 2
        paths = [
            f
            for f in _expand_py_files(paths)
            if os.path.abspath(f) in changed
        ]

    cache: Optional[LintCache] = None
    if not getattr(args, "no_cache", False):
        cache = LintCache(getattr(args, "cache", DEFAULT_CACHE_PATH))
    diagnostics = analyzer.lint_paths(paths, cache=cache)
    if cache is not None:
        cache.save()

    baseline_path = getattr(args, "baseline", None)
    if getattr(args, "write_baseline", False):
        path = baseline_path or DEFAULT_BASELINE_PATH
        Baseline.record(diagnostics).save(path)
        print(f"wrote baseline with {len(diagnostics)} finding(s) to {path}")
        return 0
    suppressed_count = 0
    if baseline_path is not None:
        if not os.path.exists(baseline_path):
            print(f"no such baseline file: {baseline_path}")
            return 2
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, OSError) as exc:
            print(f"cannot read baseline {baseline_path}: {exc}")
            return 2
        diagnostics, suppressed_count = baseline.apply(diagnostics)

    statistics = None
    if getattr(args, "statistics", False):
        statistics = analyzer.stats.as_dict()
        statistics["suppressed_by_baseline"] = suppressed_count
        statistics["wall_time_s"] = time.perf_counter() - t0  # repro: noqa[D101]

    report = render_report(
        diagnostics, args.fmt, n_paths=len(paths), statistics=statistics
    )
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"wrote {len(diagnostics)} finding(s) to {output}")
    else:
        print(report)

    threshold = Severity.parse(args.fail_on)
    return 1 if any(d.severity >= threshold for d in diagnostics) else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="determinism & flow-safety static analyzer",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - `python -m repro.lint.cli`
    import sys

    sys.exit(main())
