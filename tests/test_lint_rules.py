"""Per-rule fixtures: every rule has at least one positive snippet (the
rule fires) and one negative (clean, or noqa-suppressed)."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import Analyzer, LintConfig


def lint(source: str, **config_kwargs):
    """Lint a snippet with no path allowances (so every rule can fire)."""
    config_kwargs.setdefault("allow", {})
    analyzer = Analyzer(config=LintConfig(**config_kwargs))
    return analyzer.lint_source(textwrap.dedent(source), path="snippet.py")


def rule_ids(source: str, **config_kwargs):
    return [d.rule_id for d in lint(source, **config_kwargs)]


# -- D101: wall-clock calls ---------------------------------------------------


def test_d101_fires_on_time_time():
    assert "D101" in rule_ids("import time\nt = time.time()\n")


def test_d101_sees_through_aliases():
    assert "D101" in rule_ids("import time as _t\nt = _t.monotonic()\n")
    assert "D101" in rule_ids("from time import perf_counter\nt = perf_counter()\n")
    assert "D101" in rule_ids(
        "from datetime import datetime\nd = datetime.now()\n"
    )


def test_d101_clean_on_env_now_and_rebound_time():
    assert rule_ids("def f(env):\n    return env.now\n") == []
    # a local rebinding shadows the import: no longer the stdlib clock
    assert rule_ids("import time\ntime = FakeClock()\nt = time.time()\n") == []


# -- D102: time.sleep ---------------------------------------------------------


def test_d102_fires_on_sleep():
    assert "D102" in rule_ids("import time\ntime.sleep(0.1)\n")
    assert "D102" in rule_ids("from time import sleep\nsleep(1)\n")


def test_d102_clean_on_injected_sleep():
    assert (
        rule_ids("def run(sleep):\n    sleep(0.1)\n") == []
    )  # injected callable, not the stdlib


# -- D103: global random ------------------------------------------------------


def test_d103_fires_on_global_random():
    assert "D103" in rule_ids("import random\nx = random.random()\n")
    assert "D103" in rule_ids("import random\nrandom.seed(1)\n")


def test_d103_clean_on_rng_streams():
    src = """
    from repro.rng import RngRegistry
    rng = RngRegistry(1).stream("jitter")
    x = rng.normal()
    """
    assert rule_ids(src) == []


# -- D104: legacy numpy.random ------------------------------------------------


def test_d104_fires_on_legacy_np_random():
    assert "D104" in rule_ids("import numpy as np\nx = np.random.rand(4)\n")
    assert "D104" in rule_ids("import numpy\nnumpy.random.seed(0)\n")


def test_d104_clean_on_generator_api():
    assert rule_ids("import numpy as np\nr = np.random.default_rng(3)\n") == []
    assert rule_ids("import numpy as np\ns = np.random.SeedSequence(7)\n") == []


# -- D105: env-var reads ------------------------------------------------------


def test_d105_fires_on_environ_reads():
    ids = rule_ids("import os\na = os.environ['X']\nb = os.getenv('Y')\n")
    assert ids.count("D105") == 2


def test_d105_clean_on_explicit_config():
    assert rule_ids("def f(cfg):\n    return cfg['X']\n") == []


# -- S201: yielding non-events ------------------------------------------------


def test_s201_fires_on_literal_yields_in_process_generators():
    assert "S201" in rule_ids("def proc(env):\n    yield 5\n")
    assert "S201" in rule_ids("def proc(env):\n    yield\n")


def test_s201_ignores_plain_iterators_and_event_yields():
    # a generator that never touches an env is not a DES process
    assert rule_ids("def gen():\n    yield 5\n") == []
    assert rule_ids("def proc(env):\n    yield env.timeout(1.0)\n") == []


# -- S203: swallowed errors ---------------------------------------------------


def test_s203_fires_on_bare_except_anywhere():
    assert "S203" in rule_ids("try:\n    f()\nexcept:\n    pass\n")


def test_s203_fires_on_pass_only_broad_handler_in_process():
    src = """
    def proc(env):
        try:
            yield env.timeout(1)
        except Exception:
            pass
    """
    assert "S203" in rule_ids(src)


def test_s203_accepts_handlers_that_record_or_reraise():
    src = """
    def proc(env, record):
        try:
            yield env.timeout(1)
        except Exception as exc:
            record["error"] = str(exc)
    """
    assert rule_ids(src) == []


# -- literal definitions F401 still reads -------------------------------------


def test_f301_clean_on_wellformed_chain():
    src = """
    d = FlowDefinition(
        title="t",
        states=(
            FlowState(name="A", provider="transfer"),
            FlowState(name="B", provider="compute"),
        ),
    )
    """
    assert rule_ids(src) == []


def test_f302_skips_dynamic_definitions():
    src = """
    states = build_states()
    d = FlowDefinition(title="t", states=states)
    """
    assert rule_ids(src) == []


# -- F304: unknown providers --------------------------------------------------


def test_f304_fires_on_unknown_provider():
    src = 's = FlowState(name="A", provider="never_registered")\n'
    assert "F304" in rule_ids(src)


def test_f304_accepts_registry_and_dynamic_providers():
    assert rule_ids('s = FlowState(name="A", provider="transfer")\n') == []
    assert rule_ids('s = FlowState(name="A", provider="local_compress")\n') == []
    # dynamic provider names are out of static reach: skipped, not flagged
    assert rule_ids('s = FlowState(name="A", provider=make_provider())\n') == []


# -- shapes the retired D106/D107/S202/F303 accepted --------------------------
# Those hazards belong to N701/N703, N704, R504 and F401 now; the buggy and
# fixed twins under tests/fixtures/lint_seeded/ pin every shape the retired
# rules caught (tests/test_lint_seeded.py).  These cases must stay clean.


def test_d106_clean_when_sorted():
    src = """
    def launch(env, jobs, run):
        for job in sorted(set(jobs)):
            env.process(run(env, job))
    """
    assert rule_ids(src) == []
    assert rule_ids("for x in sorted({1, 2, 3}):\n    print(x)\n") == []


def test_d107_clean_on_identity_equality():
    # id() equality is a plain identity test, stable within one run
    src = """
    def start_one(env, a, b, work):
        if id(a) == id(b):
            env.process(work(env, a))
    """
    assert rule_ids(src) == []
    assert rule_ids("xs = sorted([2, 1])\n") == []


def test_s202_accepts_with_tryfinally_and_ownership_transfer():
    clean_with = """
    def proc(env, pool):
        with pool.request() as req:
            yield req
            yield env.timeout(10)
    """
    clean_finally = """
    def proc(env, pool):
        req = pool.request()
        try:
            yield req
            yield env.timeout(10)
        finally:
            req.release()
    """
    clean_transfer = """
    def provision(env, pool):
        req = pool.request()
        yield req
        return Node(request=req)
    """
    assert rule_ids(clean_with) == []
    assert rule_ids(clean_finally) == []
    assert rule_ids(clean_transfer) == []


def test_f303_clean_on_backward_reference():
    src = """
    d = FlowDefinition(
        title="t",
        states=(
            FlowState(name="A", provider="transfer"),
            FlowState(name="B", provider="compute",
                      parameters={"endpoint": "$.input.ep",
                                  "function_id": "$.states.A.task_id"}),
        ),
    )
    """
    assert rule_ids(src) == []


# -- suppression paths shared by all rules ------------------------------------


@pytest.mark.parametrize(
    "snippet, rid",
    [
        ("import time\nt = time.time()  # repro: noqa[D101] calibration\n", "D101"),
        ("import time\ntime.sleep(1)  # repro: noqa\n", "D102"),
        ("import random\nrandom.random()  # repro: noqa[D103] demo only\n", "D103"),
    ],
)
def test_noqa_suppresses_each_pack(snippet, rid):
    assert rid not in rule_ids(snippet)


def test_noqa_with_wrong_id_does_not_suppress():
    src = "import time\nt = time.time()  # repro: noqa[D999]\n"
    assert "D101" in rule_ids(src)


# -- F405: providers swallowing fault signals ---------------------------------


def test_f405_fires_on_silent_pass_in_provider():
    src = """
    class MyActionProvider:
        def run(self, body):
            try:
                self.service.submit(body)
            except ServiceUnavailable:
                pass
    """
    assert "F405" in rule_ids(src)


def test_f405_fires_on_schema_declared_provider_and_tuple_catch():
    src = """
    class Uploader:
        input_schema = {"src": "str"}

        def run(self, body):
            try:
                self.push(body)
            except (FlowError, ValueError):
                ok = False
    """
    assert "F405" in rule_ids(src)


def test_f405_fires_on_run_status_protocol_class():
    src = """
    class Mover:
        def run(self, body):
            try:
                self.go(body)
            except ActionTimeout:
                pass

        def status(self, action_id):
            return None
    """
    assert "F405" in rule_ids(src)


def test_f405_clean_when_provider_reraises():
    src = """
    class MyActionProvider:
        def run(self, body):
            try:
                self.service.submit(body)
            except ServiceUnavailable:
                raise
    """
    assert rule_ids(src) == []


def test_f405_clean_when_provider_records_the_fault():
    src = """
    class MyActionProvider:
        def run(self, body):
            try:
                self.service.submit(body)
            except ServiceUnavailable as exc:
                self.records[body["id"]].error = str(exc)
    """
    assert rule_ids(src) == []


def test_f405_clean_outside_provider_classes():
    # the executor and the chaos controller legitimately absorb these
    src = """
    class FlowsService:
        def drive(self, provider, body):
            try:
                provider.run(body)
            except ServiceUnavailable:
                pass
    """
    assert rule_ids(src) == []
    src = """
    def helper(service, body):
        try:
            service.submit(body)
        except FlowError:
            pass
    """
    assert rule_ids(src) == []


def test_f405_ignores_unrelated_exceptions_in_providers():
    src = """
    class MyActionProvider:
        def run(self, body):
            try:
                self.service.submit(body)
            except KeyError:
                pass
    """
    assert rule_ids(src) == []
