"""N7xx — interprocedural ordering/taint rules.

The flow-aware layer over :mod:`repro.lint.taint`: where D1xx flags a
syntactic *call site* (``time.time()``), these rules flag a *flow* — an
order-, host- or identity-tainted value that traveled through
assignments, returns, and helper calls before reaching a sink that can
break bit-identical replay.  They are also the only check for unordered
iteration and ``id()`` ordering: such code is a hazard exactly when its
order reaches one of these sinks.

* **N701** order taint (directory listings, set/unstable-dict iteration,
  completion order) reaching a scheduling sink — ``env.schedule``
  delays/priorities, ``env.timeout`` delays, ``env.process`` arguments,
  and events queued by ``.succeed``/``.fail``/``.put`` on an
  order-tainted receiver or argument.
* **N702** a parallel completion-order stream (``as_completed``,
  ``imap_unordered``) merged without an ordering barrier.  The
  :mod:`repro.core.sweep` ordered-merge idiom — keyed stores
  (``out[key] = value``) or a post-loop ``sort`` — is the blessed
  pattern.
* **N703** float accumulation (``sum``/``+=``) over an unordered
  iterable, or order taint reaching a metrics/trace emission sink:
  float addition is non-associative, so iteration order perturbs the
  Table-1 numbers.  ``math.fsum`` (exactly rounded) and ``sorted(...)``
  are the fixes.
* **N704** identity/hash dependence (``id()``, ``hash()``, ``key=id``)
  reaching a tie-break key, an ordering comparison, a scheduling sink,
  or an emitted payload — object addresses and salted hashes change
  every process.
* **N705** a wall-clock or env-var read laundered through helper
  returns into a sim input (the interprocedural upgrade of D101/D105:
  the *read* may sit in an allow-listed bridge module, but its value
  must not steer the simulation).

All five are errors: each one is a replay-determinism hazard, and the
golden-trace suite treats any of them as a broken invariant.  Because
the engine is a may-analysis it over-approximates; a reviewed
``# repro: noqa[N70x]`` on the sink line is the escape hatch.

Every rule carries an ``example_bad``/``example_good`` pair (shown by
``python -m repro lint --explain RULE`` and pinned by the test suite:
the bad twin must fire, the good twin must stay silent).
"""

from __future__ import annotations

import ast

from ..analyzer import FileContext, Rule, register
from ..diagnostics import Severity

__all__ = [
    "OrderTaintedSchedule",
    "UnorderedCompletionMerge",
    "UnorderedFloatAccumulation",
    "IdentityOrderDependence",
    "LaunderedHostRead",
]

_SINK_DESC = {
    "schedule": "a scheduling sink (env.schedule/timeout/process or an "
    "event trigger)",
    "tiebreak": "a sort tie-break key",
    "compare": "an ordering comparison",
    "emit": "a metrics/trace emission",
    "accum": "a float accumulation",
    "merge": "a completion-order merge",
}


def _flow(finding) -> str:
    kinds = "+".join(sorted(finding.kinds)) or "order"
    where = _SINK_DESC.get(finding.sink, finding.sink)
    via = f" via {finding.via}()" if finding.via else ""
    return f"{kinds}-tainted value reaches {where}{via}"


class _TaintRule(Rule):
    """Shared shape: one pass over the module's resolved findings."""

    interests = (ast.Module,)
    severity = Severity.ERROR

    def matches(self, finding) -> bool:
        raise NotImplementedError

    def message(self, finding) -> str:
        raise NotImplementedError

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        for finding in ctx.taint_findings():
            if self.matches(finding):
                ctx.report(self, finding, self.message(finding))


@register
class OrderTaintedSchedule(_TaintRule):
    """Order-dependent value steering the DES scheduler.

    A delay, priority, or process argument derived from an unsorted
    directory listing, set/unstable-dict iteration, or parallel
    completion order makes the event queue's contents depend on hash
    seeds, filesystem state, or thread timing — the trace diverges
    between runs even under a fixed seed.  The same holds for events
    queued in that order: ``ev.succeed()``, ``ev.fail(exc)`` or
    ``store.put(x)`` with an order-tainted receiver or argument, and
    ``env.process(run(env, job))`` with an order-tainted generator
    argument.  Sort the source (``sorted(os.listdir(...))``) before it
    feeds the scheduler.

    Not flagged, although the retired D106 reported them:

    * set iteration whose order reaches no sink — no delay, queued
      event, process argument, float sum or metric depends on it — so
      replays cannot diverge through it;
    * ``dict.popitem()``: since Python 3.7 it pops the most recently
      inserted item (LIFO), and the project requires Python >= 3.10,
      so its order follows insertion, not hashing;
    * module-level snippets that reach no sink (``for x in {1, 2}:
      print(x)`` at import time): the engine analyzes function and
      method bodies only.
    """

    rule_id = "N701"
    summary = "order-tainted value reaches a scheduling sink"

    example_bad = (
        "import os\n"
        "\n"
        "def arm(env, root):\n"
        "    for offset, _name in enumerate(os.listdir(root)):\n"
        "        yield env.timeout(offset)\n"
    )
    example_good = (
        "import os\n"
        "\n"
        "def arm(env, root):\n"
        "    for offset, _name in enumerate(sorted(os.listdir(root))):\n"
        "        yield env.timeout(offset)\n"
    )

    def matches(self, finding) -> bool:
        return finding.sink == "schedule" and "order" in finding.kinds

    def message(self, finding) -> str:
        return (
            f"{_flow(finding)} — the event queue now depends on "
            "iteration/listing order; sort the source before it "
            "steers the scheduler"
        )


@register
class UnorderedCompletionMerge(_TaintRule):
    """Completion-order results merged without an ordering barrier.

    Appending or yielding from an ``as_completed``/``imap_unordered``
    loop bakes thread/process finish order into the result.  Use the
    sweep ordered-merge idiom: store into a dict keyed by submission
    index (``out[key] = value``) or sort the accumulator after the
    loop — both make the merged result a pure function of the inputs.
    """

    rule_id = "N702"
    summary = "parallel completion order merged without an ordering barrier"

    example_bad = (
        "from concurrent.futures import as_completed\n"
        "\n"
        "def gather(futures):\n"
        "    out = []\n"
        "    for fut in as_completed(futures):\n"
        "        out.append(fut.result())\n"
        "    return out\n"
    )
    example_good = (
        "from concurrent.futures import as_completed\n"
        "\n"
        "def gather(futures):\n"
        "    out = []\n"
        "    for fut in as_completed(futures):\n"
        "        out.append(fut.result())\n"
        "    out.sort()\n"
        "    return out\n"
    )

    def matches(self, finding) -> bool:
        return finding.sink == "merge"

    def message(self, finding) -> str:
        return (
            "completion-order loop accumulates results without an "
            "ordering barrier — key the store by submission index or "
            "sort the accumulator after the loop (see the sweep "
            "ordered-merge idiom)"
        )


@register
class UnorderedFloatAccumulation(_TaintRule):
    """Order-sensitive float reduction feeding results or metrics.

    ``sum`` and ``+=`` round after every addition, so the total depends
    on iteration order; over a set or an unstable dict that order is
    arbitrary, and the drift lands straight in the Table-1 numbers.
    Sort the iterable first, or use ``math.fsum`` (exactly rounded,
    order-independent).
    """

    rule_id = "N703"
    summary = "float accumulation over an unordered iterable feeds results"

    example_bad = (
        "def total(values):\n"
        "    pending = set(values)\n"
        "    return sum(pending)\n"
    )
    example_good = (
        "def total(values):\n"
        "    pending = set(values)\n"
        "    return sum(sorted(pending))\n"
    )

    def matches(self, finding) -> bool:
        return "order" in finding.kinds and finding.sink in ("accum", "emit")

    def message(self, finding) -> str:
        return (
            f"{_flow(finding)} — float addition is order-sensitive; "
            "sort the iterable or use math.fsum"
        )


@register
class IdentityOrderDependence(_TaintRule):
    """``id()``/``hash()`` values deciding order or emitted payloads.

    Object addresses are allocation-order artifacts and string hashes
    are salted per process: a tie-break key, an ordering comparison
    (``if id(a) < id(b):`` choosing which process starts, a comparator
    returning ``id(self) < id(other)``), a schedule input, or a trace
    field derived from them differs on every run.  Tie-break on a
    stable attribute (name, sequence number) instead.  Equality
    (``id(a) == id(b)``) is an identity test and stays deterministic.

    Not flagged, although the retired D107 reported them: module-level
    snippets that reach no sink (``xs = sorted(objs, key=id)`` at import
    time).  The engine analyzes function and method bodies only.
    """

    rule_id = "N704"
    summary = "identity/hash-dependent value reaches ordering or payloads"

    example_bad = (
        "def rank(items):\n"
        "    return sorted(items, key=id)\n"
    )
    example_good = (
        "def rank(items):\n"
        "    return sorted(items, key=str)\n"
    )

    def matches(self, finding) -> bool:
        return "ident" in finding.kinds and finding.sink in (
            "tiebreak",
            "compare",
            "schedule",
            "emit",
        )

    def message(self, finding) -> str:
        return (
            f"{_flow(finding)} — id()/hash() values differ per process; "
            "use a stable key (name, sequence number)"
        )


@register
class LaunderedHostRead(_TaintRule):
    """Wall-clock/env read reaching a sim input through the call graph.

    D101/D105 flag the read itself, but an allow-listed bridge module
    may legitimately touch the wall clock — what must never happen is
    that value flowing onward into a delay or priority.  This rule
    follows the value through helper returns and call arguments to the
    scheduling sink.  Derive sim inputs from the seeded RNG or the sim
    clock (``env.now``) instead.
    """

    rule_id = "N705"
    summary = "laundered wall-clock/env read reaches a sim input"

    example_bad = (
        "import time\n"
        "\n"
        "def _jitter():\n"
        "    return time.time() % 1.0\n"
        "\n"
        "def launch(env):\n"
        "    yield env.timeout(_jitter())\n"
    )
    example_good = (
        "def _jitter(rng):\n"
        "    return rng.random()\n"
        "\n"
        "def launch(env, rng):\n"
        "    yield env.timeout(_jitter(rng))\n"
    )

    def matches(self, finding) -> bool:
        return finding.sink == "schedule" and "host" in finding.kinds

    def message(self, finding) -> str:
        return (
            f"{_flow(finding)} — wall-clock/env values vary per host "
            "and run; derive sim inputs from the seeded RNG or env.now"
        )
