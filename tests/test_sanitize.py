"""The DES schedule-race sanitizer: cohort tracking, causality, the
tie-break reversal, and the campaign-level driver."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.core.sanitize import SanitizeResult, campaign_trace, sanitize_campaign
from repro.errors import ConfigError, SimulationError
from repro.lint import Severity
from repro.sim import NORMAL, URGENT, Environment, Resource, Store


def test_import_repro_does_not_load_the_linter():
    # campaign processes import repro (and the sanitizer) but never the
    # analyzer; SanitizeResult.diagnostics() loads it on first use.  Nor
    # do they load the real-file data plane (repro.analysis, scipy) or a
    # graph library: a campaign runs none of it
    code = (
        "import sys, repro, repro.core, repro.core.sanitize, repro.chaos\n"
        "banned = ('repro.lint.', 'repro.analysis.', 'scipy.', 'networkx.')\n"
        "print(sorted(m for m in sys.modules if (m + '.').startswith(banned)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.strip() == "[]"


# -- kernel plumbing ----------------------------------------------------------


def test_environment_rejects_unknown_tiebreak():
    with pytest.raises(SimulationError, match="tiebreak"):
        Environment(tiebreak="random")


def test_sanitizer_absent_by_default_and_touch_is_a_noop():
    env = Environment()
    assert env.sanitizer is None
    env.touch(object(), "w")  # must not raise with the sanitizer off


def test_lifo_tiebreak_reverses_same_tick_order_only():
    def run(tiebreak):
        env = Environment(tiebreak=tiebreak)
        log = []
        for name, delay in (("a", 1.0), ("b", 1.0), ("c", 2.0)):
            env.timeout(delay, name).callbacks.append(
                lambda event: log.append(event.value)
            )
        env.run()
        return log

    assert run("fifo") == ["a", "b", "c"]
    assert run("lifo") == ["b", "a", "c"]  # only the same-tick pair flips


def test_touch_rejects_bad_mode_and_ignores_setup_phase():
    env = Environment(sanitize=True)
    env.touch(object(), "w", label="setup")  # outside any firing: ignored
    assert env.sanitizer.races() == []

    def proc(env):
        yield env.timeout(1.0)
        env.touch(object(), "x")

    env.process(proc(env))
    with pytest.raises(ValueError, match="touch mode"):
        env.run()
    env.touch(object(), "x")  # after run() raised: outside any firing, ignored

    env = Environment(sanitize=True)
    env.process(proc(env))
    env.run(until=0.5)
    env.touch(object(), "x")  # after run() returned: outside any firing, ignored


# -- race detection -----------------------------------------------------------


def contention(tiebreak="fifo"):
    """Two processes, spawned in one firing, claim one Resource unit at
    the same tick — their requests land in the same (10.0, URGENT)
    initialization cohort and are ordered only by insertion sequence."""
    env = Environment(sanitize=True, tiebreak=tiebreak)
    pool = Resource(env, capacity=1)
    order = []

    def grab(env, name):
        with pool.request() as req:
            yield req
            order.append(name)
            yield env.timeout(1.0)

    def driver(env):
        yield env.timeout(10.0)
        env.process(grab(env, "a"))
        env.process(grab(env, "b"))

    env.process(driver(env))
    env.run()
    return env, order


def test_same_tick_resource_contention_is_a_race():
    env, order = contention()
    races = env.sanitizer.races()
    assert len(races) == 1
    race = races[0]
    assert race.time == 10.0 and race.priority == URGENT
    assert race.obj == "Resource#1"
    assert [name for name, _ in race.actors] == [
        "Process(grab)#1",
        "Process(grab)#2",
    ]
    assert all(mode == "w" for _, mode in race.actors)
    assert "insertion sequence" in race.describe()


def test_the_reversed_tiebreak_actually_flips_the_racy_grant():
    _, fifo_order = contention("fifo")
    _, lifo_order = contention("lifo")
    assert fifo_order == ["a", "b"]
    assert lifo_order == ["b", "a"]


def test_same_tick_store_puts_from_two_processes_race():
    env = Environment(sanitize=True)
    store = Store(env)

    def producer(env, item):
        yield env.timeout(5.0)
        store.put(item)

    env.process(producer(env, "x"))
    env.process(producer(env, "y"))
    env.run()
    races = env.sanitizer.races()
    assert len(races) == 1
    assert races[0].obj == "Store#1"


def test_urgent_and_normal_cohorts_are_not_cross_flagged():
    # One writer lands at (t, URGENT), the other at (t, NORMAL): the
    # priority field orders them under every tie-break — no race.
    env = Environment(sanitize=True)
    store = Store(env)

    def normal_writer(env):
        yield env.timeout(3.0)
        store.put("n")

    def urgent_writer(env):
        store.put("u")
        yield env.timeout(0.5)

    def spawner(env):
        yield env.timeout(3.0)
        env.process(urgent_writer(env))  # its start is URGENT at the same tick

    env.process(normal_writer(env))
    env.process(spawner(env))
    env.run()
    # urgent_writer's put runs in the (3.0, URGENT) process-start cohort,
    # normal_writer's in (3.0, NORMAL): distinct cohorts.
    assert sorted(env.sanitizer._cohorts) == [(3.0, URGENT), (3.0, NORMAL)]
    assert env.sanitizer.races() == []


def test_causally_chained_same_tick_touches_are_not_races():
    # The gated-copier shape: a put resumes the consumer, whose re-armed
    # get touches the same store in the same cohort.  Chain, not race.
    env = Environment(sanitize=True)
    store = Store(env)
    got = []

    def producer(env):
        yield env.timeout(1.0)
        store.put("x")

    def consumer(env):
        item = yield store.get()
        got.append(item)
        store.get()  # re-arm immediately, same tick as the put

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == ["x"]
    assert env.sanitizer.races() == []


def test_single_actor_touching_twice_is_not_a_race():
    env = Environment(sanitize=True)
    pool = Resource(env, capacity=2)

    def hog(env):
        yield env.timeout(1.0)
        a = pool.request()
        yield a
        b = pool.request()
        yield b
        a.release()
        b.release()

    env.process(hog(env))
    env.run()
    assert env.sanitizer.races() == []


# -- campaign driver ----------------------------------------------------------


def test_campaign_trace_is_deterministic_and_nonempty():
    from repro.core import run_campaign

    a = campaign_trace(run_campaign("hyperspectral", duration_s=400.0, seed=3))
    b = campaign_trace(run_campaign("hyperspectral", duration_s=400.0, seed=3))
    assert a == b
    assert len(a) > 1 and a[-1].startswith("copier files=")


def test_sanitize_campaign_refuses_stream_mode(monkeypatch):
    """A stream campaign's trace is its one copier line, so the S902
    diff would compare nothing and pass.  The tie-break and the
    sanitizer switch are the function's own, so a caller's value would
    be silently ignored: refused too."""
    import repro.core.sanitize as sanitize

    def no_run(*args, **kwargs):
        raise AssertionError("a campaign ran")

    monkeypatch.setattr(sanitize, "run_campaign", no_run)
    with pytest.raises(ConfigError, match="stream"):
        sanitize_campaign("hyperspectral", ingest="stream")
    with pytest.raises(ConfigError, match="tiebreak"):
        sanitize_campaign("hyperspectral", tiebreak="lifo")
    with pytest.raises(ConfigError, match="sanitize"):
        sanitize_campaign("hyperspectral", sanitize=False)


def test_sanitize_result_diagnostics_render_s901_and_s902():
    from repro.sim.sanitize import RaceReport

    race = RaceReport(
        time=4.0,
        priority=NORMAL,
        obj="Resource#1",
        actors=(("Process(a)#1", "w"), ("Process(b)#2", "w")),
    )
    result = SanitizeResult(
        campaign="demo",
        forward=None,
        reverse=None,
        races_forward=[race],
        races_reverse=[race],
        trace_forward=["line-1", "line-2"],
        trace_reverse=["line-1", "line-2-changed", "extra"],
    )
    assert not result.clean
    ds = result.diagnostics()
    ids = [d.rule_id for d in ds]
    assert ids.count("S901") == 1  # same hazard under both tie-breaks: deduped
    assert ids.count("S902") == 2  # one changed line, one extra line
    assert all(d.severity is Severity.ERROR for d in ds)
    assert all(d.path == "<campaign:demo>" for d in ds)
    divergence = next(d for d in ds if d.rule_id == "S902")
    assert divergence.line == 2 and "reversed tie-break" in divergence.message
