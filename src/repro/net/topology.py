"""Network topology: hosts, switches, and capacity/latency-weighted links.

The testbed mirrors Sec. 2.1: PicoProbe user machines behind a 1 Gbps
switch, the ANL backbone at up to 200 Gbps, and the ALCF systems (Eagle
storage, Polaris).  Routing is a latency-weighted shortest-path search
over the topology's own adjacency, memoized per node pair.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

from ..errors import EndpointError

__all__ = ["Link", "Topology"]


@dataclass(frozen=True)
class Link:
    """An undirected link with a shared capacity (bytes/s) and one-way
    latency (seconds)."""

    a: str
    b: str
    capacity_bps: float  # bytes per second, shared across streams
    latency_s: float = 0.0

    @cached_property
    def key(self) -> tuple[str, str]:
        """Endpoint pair in sorted order; built once per link (the
        fabric reads it for every link of every chunk)."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


class Topology:
    """Named nodes + capacity links with shortest-path routing."""

    def __init__(self) -> None:
        #: node -> kind ("host", "switch", ...).
        self._kinds: dict[str, str] = {}
        #: node -> {neighbour: the link between them}.
        self._adj: dict[str, dict[str, Link]] = {}
        #: (src, dst) -> (route links, summed one-way latency).  Filled on
        #: first query; any change to the graph clears it.
        self._routes: dict[tuple[str, str], tuple[tuple[Link, ...], float]] = {}

    # -- construction ----------------------------------------------------
    def add_node(self, name: str, kind: str = "host") -> None:
        """Add a host or switch (``kind`` is informational)."""
        if name in self._kinds:
            raise EndpointError(f"node already exists: {name!r}")
        self._kinds[name] = kind
        self._adj[name] = {}
        self._routes.clear()

    def add_link(self, a: str, b: str, capacity_bps: float, latency_s: float = 0.0) -> Link:
        """Connect two existing nodes."""
        for n in (a, b):
            if n not in self._kinds:
                raise EndpointError(f"unknown node: {n!r}")
        if a == b:
            raise EndpointError("self-links are not allowed")
        # Comparisons written so that NaN fails them too.
        if not 0 < capacity_bps < math.inf:
            raise EndpointError(f"capacity must be positive and finite, got {capacity_bps}")
        if not 0 <= latency_s < math.inf:
            raise EndpointError(f"latency must be >= 0 and finite, got {latency_s}")
        link = Link(a, b, float(capacity_bps), float(latency_s))
        if b in self._adj[a]:
            raise EndpointError(f"link already exists: {link.key}")
        self._adj[a][b] = self._adj[b][a] = link
        self._routes.clear()
        return link

    # -- queries -----------------------------------------------------------
    def node_kind(self, name: str) -> str:
        try:
            return self._kinds[name]
        except KeyError:
            raise EndpointError(f"unknown node: {name!r}") from None

    def link(self, a: str, b: str) -> Link:
        try:
            return self._adj[a][b]
        except KeyError:
            raise EndpointError(f"no link between {a!r} and {b!r}") from None

    def links(self) -> list[Link]:
        unique = {l.key: l for nbrs in self._adj.values() for l in nbrs.values()}
        return [unique[k] for k in sorted(unique)]

    def path(self, src: str, dst: str) -> tuple[tuple[Link, ...], float]:
        """Memoized route: ``(links, summed one-way latency)``.

        The tuple is shared between callers.  Raises like :meth:`route`
        for an unknown node or a missing path; failures are not memoized.
        """
        key = (src, dst)
        entry = self._routes.get(key)
        if entry is not None:
            return entry
        for n in (src, dst):
            if n not in self._kinds:
                raise EndpointError(f"unknown node: {n!r}")
        links = self._shortest_path(src, dst) if src != dst else ()
        entry = self._routes[key] = (links, sum(l.latency_s for l in links))
        return entry

    def _shortest_path(self, src: str, dst: str) -> tuple[Link, ...]:
        """Dijkstra from ``src`` to ``dst`` over link latencies; a
        zero-latency link weighs 1e-9, so among free routes the one with
        fewer hops wins."""
        dist = {src: 0.0}
        via: dict[str, tuple[str, Link]] = {}
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == dst:
                break
            if d > dist[u]:
                continue  # a stale entry: u was reached more cheaply since
            for v, link in self._adj[u].items():
                dv = d + (link.latency_s if link.latency_s > 0 else 1e-9)
                if dv < dist.get(v, math.inf):
                    dist[v] = dv
                    via[v] = (u, link)
                    heapq.heappush(heap, (dv, v))
        else:
            raise EndpointError(f"no route from {src!r} to {dst!r}")
        links = []
        node = dst
        while node != src:
            node, link = via[node]
            links.append(link)
        return tuple(reversed(links))

    def route(self, src: str, dst: str) -> list[Link]:
        """Latency-weighted shortest path as a (fresh) list of links."""
        return list(self.path(src, dst)[0])

    def path_latency(self, src: str, dst: str) -> float:
        """Sum of one-way link latencies along the route."""
        return self.path(src, dst)[1]

    def bottleneck_capacity(self, src: str, dst: str) -> float:
        """Smallest link capacity along the route (inf for src == dst)."""
        links, _ = self.path(src, dst)
        return min((l.capacity_bps for l in links), default=float("inf"))
