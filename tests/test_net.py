"""Tests for topology and the max–min fair network fabric."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import EndpointError
from repro.net import NetworkFabric, Topology, max_min_fair_rates
from repro.net.fabric import Stream
from repro.sim import Environment
from repro.stream import StreamPublisher, StreamReceiver
from repro.units import MB, Gbps


def star_topology():
    """user -- switch(1Gbps) -- backbone(200Gbps) -- eagle."""
    t = Topology()
    t.add_node("user")
    t.add_node("switch", kind="switch")
    t.add_node("core", kind="switch")
    t.add_node("eagle")
    t.add_link("user", "switch", Gbps(1), latency_s=0.0005)
    t.add_link("switch", "core", Gbps(200), latency_s=0.001)
    t.add_link("core", "eagle", Gbps(200), latency_s=0.001)
    return t


# -- topology -------------------------------------------------------------------


def test_route_and_latency():
    t = star_topology()
    route = t.route("user", "eagle")
    assert len(route) == 3
    assert t.path_latency("user", "eagle") == pytest.approx(0.0025)
    assert t.bottleneck_capacity("user", "eagle") == Gbps(1)


def test_route_same_node_empty():
    t = star_topology()
    assert t.route("user", "user") == []
    assert t.bottleneck_capacity("user", "user") == float("inf")


def test_no_route_raises():
    t = Topology()
    t.add_node("a")
    t.add_node("b")
    with pytest.raises(EndpointError, match="no route"):
        t.route("a", "b")


def test_unknown_node_raises():
    t = star_topology()
    with pytest.raises(EndpointError):
        t.route("user", "mars")
    with pytest.raises(EndpointError):
        t.node_kind("mars")


def test_duplicate_node_and_link_rejected():
    t = Topology()
    t.add_node("a")
    with pytest.raises(EndpointError):
        t.add_node("a")
    t.add_node("b")
    t.add_link("a", "b", 100)
    with pytest.raises(EndpointError):
        t.add_link("b", "a", 100)
    with pytest.raises(EndpointError):
        t.add_link("a", "a", 100)
    with pytest.raises(EndpointError):
        t.add_link("a", "b", 0)


@pytest.mark.parametrize(
    "capacity, latency",
    [
        (float("nan"), 0.0),
        (float("inf"), 0.0),
        (100, -0.5),
        (100, float("nan")),
        (100, float("inf")),
    ],
)
def test_add_link_rejects_non_finite_capacity_and_bad_latency(capacity, latency):
    """A NaN or infinite capacity used to pass and later break the
    allocator; a negative or NaN latency used to be charged as zero."""
    t = Topology()
    t.add_node("a")
    t.add_node("b")
    with pytest.raises(EndpointError):
        t.add_link("a", "b", capacity, latency_s=latency)
    assert t.links() == []


@pytest.fixture
def count_searches(monkeypatch):
    """Count the shortest-path searches the topology runs (memo misses)."""
    calls: list[tuple[str, str]] = []
    real = Topology._shortest_path

    def counting(self, src, dst):
        calls.append((src, dst))
        return real(self, src, dst)

    monkeypatch.setattr(Topology, "_shortest_path", counting)
    return calls


def test_route_returns_a_fresh_list(count_searches):
    t = star_topology()
    first = t.route("user", "eagle")
    first.clear()
    first.append("junk")
    second = t.route("user", "eagle")
    assert second is not first
    assert [l.key for l in second] == [
        ("switch", "user"), ("core", "switch"), ("core", "eagle")
    ]
    assert t.path_latency("user", "eagle") == pytest.approx(0.0025)
    assert count_searches == [("user", "eagle")]  # memoized after the first


def test_topology_change_invalidates_memoized_routes(count_searches):
    """A memoized route must not outlive a change to the graph: a new
    lower-latency path shows in route, path_latency and a transfer
    started afterwards."""
    t = Topology()
    for n in ("a", "b", "c"):
        t.add_node(n)
    t.add_link("a", "b", Gbps(1), latency_s=1.0)
    assert [l.key for l in t.route("a", "b")] == [("a", "b")]
    assert t.path_latency("a", "b") == 1.0
    assert len(count_searches) == 1

    t.add_node("d")
    t.route("a", "b")
    assert len(count_searches) == 2  # add_node cleared the memo

    t.add_link("a", "c", Gbps(1), latency_s=0.1)
    t.add_link("c", "b", Gbps(1), latency_s=0.1)
    assert [l.key for l in t.route("a", "b")] == [("a", "c"), ("b", "c")]
    assert t.path_latency("a", "b") == 0.1 + 0.1
    env = Environment()
    done = NetworkFabric(env, t).transfer("a", "b", 0)
    env.run(until=done)
    assert env.now == 0.1 + 0.1


def test_stream_session_routes_each_pair_once(count_searches):
    """Per-chunk transfers reuse the memoized route: a 100-chunk session
    makes one shortest-path search, not one per chunk."""
    env = Environment()
    topo = Topology()
    topo.add_node("inst")
    topo.add_node("sw", kind="switch")
    topo.add_node("node")
    topo.add_link("inst", "sw", Gbps(1), latency_s=0.0005)
    topo.add_link("sw", "node", Gbps(10), latency_s=0.001)
    fabric = NetworkFabric(env, topo)
    receiver = StreamReceiver(env, host="node")
    publisher = StreamPublisher(
        env, fabric, receiver, src_host="inst", chunk_bytes=MB(1)
    )
    session = publisher.start("/acq.emd", MB(100))
    env.run()
    assert session.status == "DELIVERED"
    assert session.chunks_sent == 100
    assert count_searches == [("inst", "node")]


@st.composite
def drawn_graphs(draw):
    """2–6 nodes, any subset of the node pairs linked (so cycles and
    unreachable nodes both occur), latencies from a small set with
    zeros and ties, and two distinct endpoints (``src == dst`` is
    ``test_route_same_node_empty``)."""
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    latency = draw(
        st.dictionaries(st.sampled_from(pairs), st.sampled_from((0.0, 0.001, 0.5, 1.0)))
    )
    src, dst = draw(st.permutations(range(n)))[:2]
    return n, latency, f"n{src}", f"n{dst}"


def _simple_path_weights(adj, node, dst, seen, weight):
    """The weight of every simple path from ``node`` to ``dst``, summed
    from the source in path order."""
    if node == dst:
        yield weight
        return
    for nxt, w in adj[node].items():
        if nxt not in seen:
            yield from _simple_path_weights(adj, nxt, dst, seen | {nxt}, weight + w)


@settings(max_examples=300, deadline=None)
@given(drawn_graphs())
# free routes of two and three hops, the longer one reached first
@example((5, {(0, 1): 0.0, (1, 2): 0.0, (2, 3): 0.0, (0, 4): 0.0, (3, 4): 0.0}, "n0", "n3"))
def test_route_is_a_least_weight_simple_path(graph):
    """On any graph, cycles included, ``path`` returns a chain of
    existing links from ``src`` to ``dst`` visiting no node twice, whose
    weight (latency; 1e-9 for a zero-latency link) is the least over
    every simple path, and raises exactly when ``dst`` is unreachable."""
    n, latency, src, dst = graph
    t = Topology()
    for i in range(n):
        t.add_node(f"n{i}")
    adj = {f"n{i}": {} for i in range(n)}
    for (i, j), lat in latency.items():
        t.add_link(f"n{i}", f"n{j}", Gbps(1), latency_s=lat)
        adj[f"n{i}"][f"n{j}"] = adj[f"n{j}"][f"n{i}"] = lat if lat > 0 else 1e-9
    weights = list(_simple_path_weights(adj, src, dst, {src}, 0.0))
    if not weights:
        with pytest.raises(EndpointError, match="no route"):
            t.path(src, dst)
        return
    links, path_latency = t.path(src, dst)
    visited, weight = [src], 0.0
    for link in links:
        assert visited[-1] in (link.a, link.b)
        nxt = link.b if link.a == visited[-1] else link.a
        assert t.link(visited[-1], nxt) is link
        visited.append(nxt)
        weight += adj[link.a][link.b]
    assert visited[-1] == dst
    assert len(set(visited)) == len(visited)
    assert weight == min(weights)
    assert path_latency == sum(l.latency_s for l in links)


# -- max-min fairness -------------------------------------------------------------


def _mk_stream(sid, links, eff=1.0):
    return Stream(
        stream_id=sid,
        src="s",
        dst="d",
        links=tuple(links),
        remaining_bytes=1.0,
        done=None,  # not used by the allocator
        efficiency=eff,
    )


def test_single_stream_gets_bottleneck():
    t = star_topology()
    s = _mk_stream(1, t.route("user", "eagle"))
    rates = max_min_fair_rates([s], {l.key: l.capacity_bps for l in t.links()})
    assert rates[1] == pytest.approx(Gbps(1))


def test_equal_share_on_shared_bottleneck():
    t = star_topology()
    links = t.route("user", "eagle")
    streams = [_mk_stream(i, links) for i in range(4)]
    rates = max_min_fair_rates(
        streams, {l.key: l.capacity_bps for l in t.links()}
    )
    for i in range(4):
        assert rates[i] == pytest.approx(Gbps(1) / 4)


def test_unequal_paths_water_filling():
    # a--m capacity 10; b--m capacity 100; m--d capacity 100.
    t = Topology()
    for n in "ambd":
        t.add_node(n)
    t.add_link("a", "m", 10)
    t.add_link("b", "m", 100)
    t.add_link("m", "d", 100)
    s1 = _mk_stream(1, t.route("a", "d"))  # limited to 10 by a--m
    s2 = _mk_stream(2, t.route("b", "d"))
    rates = max_min_fair_rates(
        [s1, s2], {l.key: l.capacity_bps for l in t.links()}
    )
    assert rates[1] == pytest.approx(10)
    # s2 gets the leftover on m--d: min(100 - 50?,...) — progressive
    # filling: round 1 fair share on m--d is 50, a--d is 10 → freeze s1 at
    # 10, m--d left 90 → s2 frozen at min(90, 100) = 90.
    assert rates[2] == pytest.approx(90)


def test_efficiency_scales_achieved_rate():
    t = star_topology()
    s = _mk_stream(1, t.route("user", "eagle"), eff=0.5)
    rates = max_min_fair_rates([s], {l.key: l.capacity_bps for l in t.links()})
    assert rates[1] == pytest.approx(Gbps(1) * 0.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_fairness_never_oversubscribes_property(n_streams):
    """Property: total allocation per link never exceeds its capacity."""
    t = star_topology()
    links = t.route("user", "eagle")
    streams = [_mk_stream(i, links) for i in range(n_streams)]
    caps = {l.key: l.capacity_bps for l in t.links()}
    rates = max_min_fair_rates(streams, caps)
    per_link: dict = {}
    for s in streams:
        for l in s.links:
            per_link[l.key] = per_link.get(l.key, 0.0) + rates[s.stream_id]
    for key, used in per_link.items():
        assert used <= caps[key] * (1 + 1e-9)
    # Work conservation on the single bottleneck: fully used.
    assert per_link[("switch", "user")] == pytest.approx(Gbps(1))


# -- fabric (DES) -------------------------------------------------------------------


def test_single_transfer_time():
    env = Environment()
    fabric = NetworkFabric(env, star_topology())
    done = fabric.transfer("user", "eagle", MB(125))  # 125 MB at 1 Gbps = 1 s

    result = env.run(until=done)
    assert result.remaining_bytes <= 1e-3
    assert env.now == pytest.approx(1.0 + 0.0025, abs=1e-3)


def test_two_transfers_share_bandwidth():
    env = Environment()
    fabric = NetworkFabric(env, star_topology())
    d1 = fabric.transfer("user", "eagle", MB(125))
    d2 = fabric.transfer("user", "eagle", MB(125))
    ends = []

    def waiter(env, ev, name):
        yield ev
        ends.append((name, env.now))

    env.process(waiter(env, d1, "a"))
    env.process(waiter(env, d2, "b"))
    env.run()
    # Both share 1 Gbps: each runs ~2 s instead of 1 s.
    for _, end in ends:
        assert 1.9 < end < 2.2


def test_staggered_transfer_speeds_up_after_first_finishes():
    env = Environment()
    fabric = NetworkFabric(env, star_topology())
    times = {}

    def run(env):
        d1 = fabric.transfer("user", "eagle", MB(125))
        yield env.timeout(0.5)
        d2 = fabric.transfer("user", "eagle", MB(125))
        yield d1
        times["t1"] = env.now
        yield d2
        times["t2"] = env.now

    env.process(run(env))
    env.run()
    # t1: 0.5 s alone (62.5 MB) + 1 s shared (62.5 MB at half rate) ≈ 1.5 s
    assert times["t1"] == pytest.approx(1.5, abs=0.02)
    # t2: shared for 1 s (62.5 MB), alone for 0.5 s ≈ ends at 2.0 s
    assert times["t2"] == pytest.approx(2.0, abs=0.02)


def test_zero_byte_transfer_completes_after_latency():
    env = Environment()
    fabric = NetworkFabric(env, star_topology())
    done = fabric.transfer("user", "eagle", 0)
    env.run(until=done)
    assert env.now == pytest.approx(0.0025)


def test_same_host_transfer_instant():
    env = Environment()
    fabric = NetworkFabric(env, star_topology())
    done = fabric.transfer("user", "user", MB(500))
    env.run(until=done)
    assert env.now == pytest.approx(0.0)


def test_transfer_validation():
    env = Environment()
    fabric = NetworkFabric(env, star_topology())
    with pytest.raises(EndpointError):
        fabric.transfer("user", "eagle", -1)
    with pytest.raises(EndpointError):
        fabric.transfer("user", "eagle", 10, efficiency=0)
    with pytest.raises(EndpointError):
        fabric.transfer("user", "eagle", 10, efficiency=1.5)


@pytest.mark.parametrize("nbytes", [float("nan"), float("inf"), -float("inf")])
def test_transfer_rejects_non_finite_size(nbytes):
    """A NaN or infinite size used to be admitted and then kill the
    fabric's scheduler with a misleading zero-rate error."""
    env = Environment()
    fabric = NetworkFabric(env, star_topology())
    with pytest.raises(EndpointError, match="finite"):
        fabric.transfer("user", "eagle", nbytes)
    env.run()
    assert fabric.active_streams == []


def test_throughput_observable():
    env = Environment()
    fabric = NetworkFabric(env, star_topology())
    fabric.transfer("user", "eagle", MB(1250))
    seen = []

    def probe(env):
        yield env.timeout(1.0)
        seen.append(fabric.throughput("user", "eagle"))

    env.process(probe(env))
    env.run()
    assert seen[0] == pytest.approx(Gbps(1), rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=500),  # MB
            st.floats(min_value=0, max_value=10),  # start offset s
        ),
        min_size=1,
        max_size=8,
    )
)
def test_fabric_conservation_property(jobs):
    """Property: every byte arrives, and no transfer beats the line rate."""
    env = Environment()
    t = star_topology()
    fabric = NetworkFabric(env, t)
    records = []

    def submit(env, size_mb, delay):
        yield env.timeout(delay)
        start = env.now
        stream = yield fabric.transfer("user", "eagle", MB(size_mb))
        elapsed = env.now - start
        records.append((size_mb, elapsed))

    for size_mb, delay in jobs:
        env.process(submit(env, size_mb, delay))
    env.run()
    assert len(records) == len(jobs)
    for size_mb, elapsed in records:
        min_time = MB(size_mb) / Gbps(1)  # line-rate lower bound
        assert elapsed >= min_time * 0.999


# -- event-queue hygiene under mid-flight admissions ---------------------------


def test_repeated_admissions_do_not_bloat_the_event_queue():
    """Each mid-flight admission abandons the scheduler's per-iteration
    completion timer.  Those timers used to pile up in the event queue
    (one per admission, alive until their far-future deadline); the
    fabric now withdraws stale timers, so the queue stays bounded by
    live work, not admission count."""
    env = Environment()
    t = star_topology()
    fabric = NetworkFabric(env, t)

    # One huge stream keeps the completion timer far in the future.
    big = fabric.transfer("user", "eagle", MB(8000))

    n_admissions = 100
    done_small = []

    def trickle():
        for _ in range(n_admissions):
            yield env.timeout(0.2)
            stream = yield fabric.transfer("user", "eagle", MB(0.1))
            done_small.append(stream)

    peak = [0]

    def monitor():
        while True:
            peak[0] = max(peak[0], env._n_pending())
            yield env.timeout(0.1)

    env.process(trickle())
    mon = env.process(monitor())
    env.run(until=big)
    assert len(done_small) == n_admissions
    # Live events at any instant: a few per active stream + the monitor.
    # With the leak this peaks at O(n_admissions) (~100+).
    assert peak[0] < 25, f"event queue peaked at {peak[0]} entries"


def test_cancelled_fabric_timers_do_not_fire_spuriously():
    """After the big stream's rate changes, the stale timer must not
    wake the scheduler at the obsolete deadline."""
    env = Environment()
    t = star_topology()
    fabric = NetworkFabric(env, t)
    done_a = fabric.transfer("user", "eagle", MB(100))

    def second():
        yield env.timeout(0.1)
        yield fabric.transfer("user", "eagle", MB(100))

    env.process(second())
    env.run()
    # Both streams completed; queue fully drained (no orphan events).
    assert done_a.processed
    assert env._n_pending() == env._cancelled_count == 0
