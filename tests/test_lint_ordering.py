"""Positive + negative cases for every N7xx rule, pinned to the same
``example_bad``/``example_good`` pairs ``--explain`` prints, plus the
flow-sensitivity cases that separate this pack from D1xx."""

from __future__ import annotations

import pytest

from repro.lint import Analyzer, all_rules

N7_RULES = ["N701", "N702", "N703", "N704", "N705"]


def rule_ids(source: str):
    return [d.rule_id for d in Analyzer().lint_source(source)]


@pytest.mark.parametrize("rid", N7_RULES)
def test_example_pair_is_honest(rid):
    # the documented example pair: bad fires its own rule, good is
    # completely clean (not just N-clean — it is held up as model code)
    cls = all_rules()[rid]
    assert rid in rule_ids(cls.example_bad)
    assert rule_ids(cls.example_good) == []


def test_n701_fires_interprocedurally():
    src = (
        "import os\n"
        "\n"
        "def _names(root):\n"
        "    return os.listdir(root)\n"
        "\n"
        "def arm(env, root):\n"
        "    for n, _ in enumerate(_names(root)):\n"
        "        yield env.timeout(n)\n"
    )
    assert "N701" in rule_ids(src)


def test_n701_silent_when_helper_sorts():
    src = (
        "import os\n"
        "\n"
        "def _names(root):\n"
        "    return sorted(os.listdir(root))\n"
        "\n"
        "def arm(env, root):\n"
        "    for n, _ in enumerate(_names(root)):\n"
        "        yield env.timeout(n)\n"
    )
    assert "N701" not in rule_ids(src)


def test_n701_covers_schedule_delay_argument():
    src = (
        "def kick(env, ev, pending):\n"
        "    delay = sum(set(pending))\n"
        "    env.schedule(ev, delay)\n"
    )
    assert "N701" in rule_ids(src)


def test_n702_keyed_store_is_blessed():
    src = (
        "from concurrent.futures import as_completed\n"
        "\n"
        "def gather(futures):\n"
        "    out = {}\n"
        "    for fut in as_completed(futures):\n"
        "        out[futures[fut]] = fut.result()\n"
        "    return [out[k] for k in sorted(out)]\n"
    )
    assert "N702" not in rule_ids(src)


def test_n702_fires_on_imap_unordered():
    src = (
        "def gather(pool, work):\n"
        "    out = []\n"
        "    for res in pool.imap_unordered(work, range(8)):\n"
        "        out.append(res)\n"
        "    return out\n"
    )
    assert "N702" in rule_ids(src)


def test_n702_fires_on_completion_order_yield():
    src = (
        "from concurrent.futures import as_completed\n"
        "\n"
        "def stream(futures):\n"
        "    for fut in as_completed(futures):\n"
        "        yield fut.result()\n"
    )
    assert "N702" in rule_ids(src)


def test_n703_fsum_is_the_blessed_reduction():
    src = (
        "import math\n"
        "\n"
        "def total(values):\n"
        "    return math.fsum(set(values))\n"
    )
    assert "N703" not in rule_ids(src)


def test_n703_fires_on_emitted_order_taint():
    src = (
        "import os\n"
        "\n"
        "def probe(metric, root):\n"
        "    latest = 0.0\n"
        "    for n, _ in enumerate(os.listdir(root)):\n"
        "        latest = latest + n\n"
        "    metric.observe(latest)\n"
    )
    assert "N703" in rule_ids(src)


def test_n704_fires_on_hash_tiebreak():
    src = "def rank(items):\n    return sorted(items, key=hash)\n"
    assert "N704" in rule_ids(src)


def test_n704_fires_on_identity_comparison_through_a_helper():
    # flow-sensitive: the address travels through a helper's return
    # before an ordering comparison decides which process starts
    src = (
        "def _addr(obj):\n"
        "    return id(obj)\n"
        "\n"
        "def start_first(env, a, b, work):\n"
        "    first = a if _addr(a) < _addr(b) else b\n"
        "    env.process(work(env, first))\n"
    )
    diags = [d for d in Analyzer().lint_source(src) if d.rule_id == "N704"]
    # the comparison, and the process whose argument it picked
    assert [d.line for d in diags] == [5, 6]


def test_n704_silent_on_stable_attribute_key():
    src = "def rank(items):\n    return sorted(items, key=lambda i: i.seq)\n"
    assert "N704" not in rule_ids(src)


def test_n705_flow_not_just_call_site():
    # the read sits in one function, the sink in another — D101 flags
    # the read, N705 must flag the *flow* in the scheduling function
    src = (
        "import time\n"
        "\n"
        "def _stamp():\n"
        "    return time.time()\n"
        "\n"
        "def launch(env):\n"
        "    yield env.timeout(_stamp() % 1.0)\n"
    )
    diags = Analyzer().lint_source(src)
    n705 = [d for d in diags if d.rule_id == "N705"]
    assert len(n705) == 1
    assert n705[0].line == 7  # the env.timeout line, not the read


def test_n705_seeded_rng_is_clean():
    src = (
        "def _jitter(rng):\n"
        "    return rng.random()\n"
        "\n"
        "def launch(env, rng):\n"
        "    yield env.timeout(_jitter(rng))\n"
    )
    assert "N705" not in rule_ids(src)


def test_n7_findings_respect_noqa():
    src = (
        "import os\n"
        "\n"
        "def arm(env, root):\n"
        "    for n, _ in enumerate(os.listdir(root)):\n"
        "        yield env.timeout(n)  # repro: noqa[N701]  reviewed\n"
    )
    assert "N701" not in rule_ids(src)


def test_n7_rules_are_errors():
    catalog = all_rules()
    for rid in N7_RULES:
        assert str(catalog[rid].severity) == "error"


def test_n7_rules_are_selectable():
    from repro.lint import LintConfig

    src = (
        "import os\n"
        "\n"
        "def arm(env, root):\n"
        "    for n, _ in enumerate(os.listdir(root)):\n"
        "        yield env.timeout(n)\n"
    )
    only = Analyzer(config=LintConfig(select=frozenset({"N701"})))
    assert [d.rule_id for d in only.lint_source(src)] == ["N701"]
    without = Analyzer(config=LintConfig(ignore=frozenset({"N701"})))
    assert "N701" not in [d.rule_id for d in without.lint_source(src)]
