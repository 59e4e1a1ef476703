"""``repro.lint`` — determinism & flow-safety static analysis.

The whole reproduction rests on one invariant: every simulated component
is **deterministic under a seed**, so the paper's 1-hour campaigns
replay identically in milliseconds.  Nothing in Python enforces that —
one stray ``time.time()``, one unseeded ``random`` draw, one
hash-ordered ``set`` iteration in scheduling code silently corrupts
every benchmark.  This package is the enforcement: a self-contained,
stdlib-``ast``-based analyzer with seven rule packs, one detector per
hazard class,

* **D1xx determinism** — wall-clock reads, sleeps, global RNGs, env-var
  reads;
* **S2xx DES safety** — non-Event yields and swallowed simulation
  errors in process generators;
* **F3xx flow validation** — provider names absent from the
  action-provider registry in literal :class:`~repro.flows.FlowState`
  constructions;
* **F4xx flow dataflow** — an interprocedural symbolic execution of
  literal flow definitions that propagates each provider's declared
  ``output_schema`` through the state sequence: dangling ``$.`` payload
  references (including ``$.states`` refs to unknown or later states),
  parameters outside a provider's ``input_schema``, type conflicts
  where a payload key flows into a parameter of another type, and
  providers missing schema declarations;
* **R5xx resource lifecycle** — path-sensitive leak detection over
  per-function CFGs (:mod:`.cfg`) refined by interprocedural cleanup
  summaries (:mod:`.callgraph`): scheduled events without a matching
  ``Environment.cancel``, tracer spans open on an exception edge, temp
  files with cleanup-free failure paths, resource requests discarded or
  not released on every path;
* **P6xx hot-path performance** — allocation/closure creation in
  ``# repro: hotpath`` functions, per-element array loops in the
  instrument/analysis data plane, invariant lookups in hot loops;
* **N7xx ordering taint** — an interprocedural forward taint analysis
  (:mod:`.taint`) tracking order-, host-, and identity-tainted values
  through assignments, returns, call arguments, and comprehensions to
  scheduling, tie-break, comparison, metrics, and accumulation sinks:
  the flow-aware layer that catches an unsorted ``listdir`` laundered
  through three helpers into ``env.schedule``, a set iterated into
  ``ev.succeed()``, or ``id()`` values compared to pick a process;

plus ``# repro: noqa[RULE-ID]`` line suppressions, whole-file
``# repro: noqa-file[RULE-ID]`` suppressions, path-scoped allowances
for the two files that legitimately touch the wall clock, and a CLI
(``python -m repro lint``, with ``text``/``json``/``sarif`` output, a
content-hash incremental cache, ``--changed-only`` git mode,
``--baseline`` ratchet mode, and ``--statistics``).  A tier-1
self-check test runs it over all of ``src/repro`` so any regression
fails the ordinary pytest run.

>>> from repro.lint import Analyzer
>>> Analyzer().lint_source("import time\\nt = time.time()\\n")[0].rule_id
'D101'
"""

from __future__ import annotations

from .analyzer import Analyzer, FileContext, LintStats, Rule, all_rules, register
from .baseline import Baseline
from .cache import LintCache
from .callgraph import ProjectGraph, build_graph
from .cfg import CFG, Block, build_cfg
from .config import (
    DEFAULT_ALLOW,
    LintConfig,
    ProviderSchema,
    discover_provider_names,
    discover_provider_schemas,
)
from .diagnostics import Diagnostic, Severity, sarif_report
from .resolver import ImportResolver
from .taint import TaintFinding, TaintIndex, analyze_module, build_taint_index

__all__ = [
    "Analyzer",
    "FileContext",
    "LintStats",
    "Rule",
    "register",
    "all_rules",
    "Baseline",
    "LintCache",
    "ProjectGraph",
    "build_graph",
    "CFG",
    "Block",
    "build_cfg",
    "LintConfig",
    "DEFAULT_ALLOW",
    "ProviderSchema",
    "discover_provider_names",
    "discover_provider_schemas",
    "Diagnostic",
    "Severity",
    "sarif_report",
    "ImportResolver",
    "TaintFinding",
    "TaintIndex",
    "analyze_module",
    "build_taint_index",
]
