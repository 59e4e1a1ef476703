"""Property tests for the fabric's max–min fair allocation.

The fabric is the reference allocator plus two shortcuts: a lone stream
skips :func:`~repro.net.fabric.max_min_fair_rates`, and same-tick
completions are removed in one batch with one reallocation.  The claim
is exact: at *every* instant, every active stream's rate equals what a
from-scratch :func:`~repro.net.fabric.max_min_fair_rates` over all
active streams would assign — including protocol ``efficiency < 1``
streams, same-host (infinite-rate) streams, and links degraded or
blacked out (``scale=0``) mid-transfer.

Randomized scenarios drive admissions, completions, and link-health
flaps on random multi-switch topologies, and a monitor compares the
fabric's rates against the reference allocation at random checkpoint
times, for exact float equality.  Fixed one-stream scenarios pin the
fabric's one-stream shortcut to the same floats.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import NetworkFabric, Topology
from repro.net.fabric import max_min_fair_rates
from repro.sim import Environment
from repro.units import Gbps, MB


def reference_rates(fabric: NetworkFabric) -> dict[int, float]:
    """From-scratch global allocation over the fabric's current state."""
    streams = list(fabric.active_streams)
    caps = {}
    for s in streams:
        for link in s.links:
            caps[link.key] = link.capacity_bps * fabric._link_scale.get(link.key, 1.0)
    return max_min_fair_rates(streams, caps)


def check_against_reference(fabric: NetworkFabric, failures: "list[str]") -> None:
    ref = reference_rates(fabric)
    for s in fabric.active_streams:
        want = ref[s.stream_id]
        if s.rate != want:
            failures.append(
                f"t={fabric.env.now}: stream {s.stream_id} "
                f"({s.src}->{s.dst}, eff={s.efficiency}) "
                f"fabric rate {s.rate!r} != reference {want!r}"
            )
    # Per-pair throughput must agree with the allocation it sums.
    by_pair: dict[tuple[str, str], float] = {}
    for s in fabric.active_streams:
        key = (s.src, s.dst)
        by_pair[key] = by_pair.get(key, 0.0) + s.rate
    for key, want in by_pair.items():
        got = fabric.throughput(*key)
        if got != want and not (math.isinf(got) and math.isinf(want)):
            failures.append(f"t={fabric.env.now}: throughput{key} {got!r} != {want!r}")


@st.composite
def scenarios(draw):
    n_switches = draw(st.integers(min_value=1, max_value=3))
    hosts_per = draw(st.integers(min_value=2, max_value=4))
    n_hosts = n_switches * hosts_per
    cap = st.sampled_from([Gbps(0.1), Gbps(0.5), Gbps(1), Gbps(2.5), Gbps(10)])
    host_caps = draw(st.lists(cap, min_size=n_hosts, max_size=n_hosts))
    trunk_caps = draw(st.lists(cap, min_size=n_switches, max_size=n_switches))
    host = st.integers(min_value=0, max_value=n_hosts - 1)
    transfers = draw(
        st.lists(
            st.tuples(
                host,  # src
                host,  # dst (== src makes a same-host, infinite-rate stream)
                st.floats(min_value=0.1, max_value=80.0),  # size in MB
                st.sampled_from([1.0, 1.0, 0.9, 0.62, 0.25]),  # efficiency
                st.floats(min_value=0.0, max_value=4.0),  # start time
            ),
            min_size=1,
            max_size=10,
        )
    )
    # Health flaps hit host uplinks: (host, scale, time).  scale=0.0 is
    # a full blackout; a final restore below unsticks stalled streams.
    flaps = draw(
        st.lists(
            st.tuples(
                host,
                st.sampled_from([0.0, 0.0, 0.15, 0.5, 1.0]),
                st.floats(min_value=0.0, max_value=6.0),
            ),
            max_size=4,
        )
    )
    checkpoints = draw(
        st.lists(
            st.floats(min_value=0.001, max_value=8.0),
            min_size=3,
            max_size=8,
            unique=True,
        )
    )
    return {
        "n_switches": n_switches,
        "hosts_per": hosts_per,
        "host_caps": host_caps,
        "trunk_caps": trunk_caps,
        "transfers": transfers,
        "flaps": flaps,
        "checkpoints": sorted(checkpoints),
    }


def build(scenario):
    env = Environment()
    topo = Topology()
    n_switches = scenario["n_switches"]
    for k in range(n_switches):
        topo.add_node(f"sw{k}", kind="switch")
        if k:
            topo.add_link(f"sw{k-1}", f"sw{k}", scenario["trunk_caps"][k])
    uplinks = []
    for h, cap in enumerate(scenario["host_caps"]):
        sw = f"sw{h % n_switches}"
        topo.add_node(f"h{h}")
        topo.add_link(f"h{h}", sw, cap)
        uplinks.append((f"h{h}", sw))
    return env, topo, uplinks


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_incremental_allocation_equals_reference(scenario):
    env, topo, uplinks = build(scenario)
    fabric = NetworkFabric(env, topo)
    failures: "list[str]" = []
    done: "list[int]" = []

    def submit(env, src, dst, size_mb, eff, start):
        yield env.timeout(start)
        stream = yield fabric.transfer(f"h{src}", f"h{dst}", MB(size_mb), efficiency=eff)
        done.append(stream.stream_id)
        check_against_reference(fabric, failures)

    def flap(env, host, scale, at):
        yield env.timeout(at)
        fabric.set_link_health(*uplinks[host], scale)
        check_against_reference(fabric, failures)

    def monitor(env):
        for t in scenario["checkpoints"]:
            if t > env.now:
                yield env.timeout(t - env.now)
            check_against_reference(fabric, failures)
        # After every flap has fired, restore every uplink so
        # blacked-out streams can drain and the run terminates.
        if env.now < 10.0:
            yield env.timeout(10.0 - env.now)
        for a, b in uplinks:
            fabric.set_link_health(a, b, 1.0)
            check_against_reference(fabric, failures)

    for t in scenario["transfers"]:
        env.process(submit(env, *t))
    for f in scenario["flaps"]:
        env.process(flap(env, *f))
    env.process(monitor(env))
    env.run()
    assert not failures, "\n".join(failures[:10])
    assert len(done) == len(scenario["transfers"])
    assert fabric.active_streams == []


def test_blackout_stalls_and_restore_resumes():
    """scale=0 mid-transfer stalls the stream at rate 0 (reference
    agrees), and restoring health completes it."""
    env = Environment()
    topo = Topology()
    topo.add_node("a")
    topo.add_node("sw", kind="switch")
    topo.add_node("b")
    topo.add_link("a", "sw", Gbps(1))
    topo.add_link("sw", "b", Gbps(1))
    fabric = NetworkFabric(env, topo)
    failures: "list[str]" = []
    done = fabric.transfer("a", "b", MB(100))

    def chaos(env):
        yield env.timeout(0.1)
        fabric.set_link_health("a", "sw", 0.0)
        check_against_reference(fabric, failures)
        (stalled,) = fabric.active_streams
        assert stalled.rate == 0.0
        yield env.timeout(10.0)
        assert not done.triggered  # still stalled
        fabric.set_link_health("a", "sw", 1.0)
        check_against_reference(fabric, failures)

    env.process(chaos(env))
    env.run()
    assert done.triggered and not failures


@pytest.mark.parametrize("efficiency", [1.0, 0.62])
@pytest.mark.parametrize("scale", [0.0, 0.15, 0.5, 1.0])
def test_one_stream_shortcut_equals_reference(scale, efficiency):
    """A lone stream skips the allocator; its rate must still be the
    allocator's float — with its tightest link degraded or blacked out
    (the bottleneck moves between hops as ``scale`` changes)."""
    env = Environment()
    topo = Topology()
    topo.add_node("a")
    topo.add_node("sw", kind="switch")
    topo.add_node("b")
    topo.add_link("a", "sw", Gbps(1))
    topo.add_link("sw", "b", Gbps(0.5))
    fabric = NetworkFabric(env, topo)
    failures: "list[str]" = []
    done = fabric.transfer("a", "b", MB(200), efficiency=efficiency)

    def chaos(env):
        yield env.timeout(0.1)
        check_against_reference(fabric, failures)
        fabric.set_link_health("a", "sw", scale)
        check_against_reference(fabric, failures)
        (s,) = fabric.active_streams
        assert s.rate == min(Gbps(1) * scale, Gbps(0.5)) * efficiency
        yield env.timeout(1.0)
        fabric.set_link_health("a", "sw", 1.0)
        check_against_reference(fabric, failures)

    env.process(chaos(env))
    env.run()
    assert done.triggered and not failures


def test_one_stream_shortcut_same_host_is_infinite():
    """A lone same-host stream gets the allocator's ``inf`` rate."""
    env = Environment()
    topo = Topology()
    topo.add_node("a")
    fabric = NetworkFabric(env, topo)
    failures: "list[str]" = []
    done = fabric.transfer("a", "a", MB(10))
    seen: "list[float]" = []

    def probe(env):
        # Runs in the admission tick, after the stream was admitted.
        seen.extend(s.rate for s in fabric.active_streams)
        check_against_reference(fabric, failures)
        yield done

    env.process(probe(env))
    env.run()
    assert seen == [math.inf] and not failures
    assert done.value.remaining_bytes == 0.0


def test_active_streams_are_in_stream_id_order():
    """The view is ascending by stream id and tracks admissions."""
    env = Environment()
    topo = Topology()
    topo.add_node("hub", kind="switch")
    for h in range(4):
        topo.add_node(f"h{h}")
        topo.add_link(f"h{h}", "hub", Gbps(1))
    fabric = NetworkFabric(env, topo)

    def submit(env, i):
        yield env.timeout(float(i))
        yield fabric.transfer(f"h{i}", f"h{(i + 1) % 4}", MB(2000))

    def probe(env):
        yield env.timeout(1.5)  # two streams in flight
        assert [s.stream_id for s in fabric.active_streams] == [1, 2]
        yield env.timeout(1.0)  # third admission
        assert [s.stream_id for s in fabric.active_streams] == [1, 2, 3]

    for i in range(3):
        env.process(submit(env, i))
    env.process(probe(env))
    env.run()
    assert fabric.active_streams == []


def test_noop_settle_is_skipped_and_identity():
    """A repeat settle at one timestamp leaves every byte count
    untouched (it is skipped outright — zero elapsed time is the
    arithmetic identity)."""
    env = Environment()
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", Gbps(1))
    fabric = NetworkFabric(env, topo)
    fabric.transfer("a", "b", MB(80))

    def probe(env):
        yield env.timeout(0.2)
        fabric._settle()
        before = [(s.stream_id, s.remaining_bytes) for s in fabric.active_streams]
        assert fabric._last_settle == env.now
        fabric._settle()  # no-op: same timestamp
        after = [(s.stream_id, s.remaining_bytes) for s in fabric.active_streams]
        assert after == before

    env.process(probe(env))
    env.run()


def test_micro_fix_table1_identical():
    """Satellite regression: the settle-skip and the lone-stream shortcut
    leave the shipped campaigns' Table 1 rows exactly as recorded on the
    pre-optimization fabric."""
    import os

    from repro.core.campaign import run_campaign
    from tests import golden_capture

    gdir = os.path.join(os.path.dirname(__file__), "goldens")
    for use_case in ("hyperspectral", "spatiotemporal"):
        name = golden_capture.golden_filename("campaign", use_case, 1, "fifo")
        golden = golden_capture.read_golden(os.path.join(gdir, name))
        res = run_campaign(use_case, duration_s=3600.0, seed=1)
        assert asdict(res.table1()) == golden["table1"], use_case
