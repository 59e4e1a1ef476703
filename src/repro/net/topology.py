"""Network topology: hosts, switches, and capacity/latency-weighted links.

The testbed mirrors Sec. 2.1: PicoProbe user machines behind a 1 Gbps
switch, the ANL backbone at up to 200 Gbps, and the ALCF systems (Eagle
storage, Polaris).  Built on a :mod:`networkx` graph so routing is
shortest-path and easily inspectable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import networkx as nx

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
        self._g = nx.Graph()
        self._links: dict[tuple[str, str], Link] = {}
        #: (src, dst) -> (route links, summed one-way latency).  Filled on
        #: first query; any change to the graph clears it.
        self._routes: dict[tuple[str, str], tuple[tuple[Link, ...], float]] = {}

    # -- construction ----------------------------------------------------
    def add_node(self, name: str, kind: str = "host") -> None:
        """Add a host or switch (``kind`` is informational)."""
        if name in self._g:
            raise EndpointError(f"node already exists: {name!r}")
        self._g.add_node(name, kind=kind)
        self._routes.clear()

    def add_link(self, a: str, b: str, capacity_bps: float, latency_s: float = 0.0) -> Link:
        """Connect two existing nodes."""
        for n in (a, b):
            if n not in self._g:
                raise EndpointError(f"unknown node: {n!r}")
        if a == b:
            raise EndpointError("self-links are not allowed")
        # Comparisons written so that NaN fails them too.
        if not 0 < capacity_bps < math.inf:
            raise EndpointError(f"capacity must be positive and finite, got {capacity_bps}")
        if not 0 <= latency_s < math.inf:
            raise EndpointError(f"latency must be >= 0 and finite, got {latency_s}")
        link = Link(a, b, float(capacity_bps), float(latency_s))
        if link.key in self._links:
            raise EndpointError(f"link already exists: {link.key}")
        self._links[link.key] = link
        self._g.add_edge(a, b, weight=latency_s if latency_s > 0 else 1e-9)
        self._routes.clear()
        return link

    # -- queries -----------------------------------------------------------
    def nodes(self) -> list[str]:
        return sorted(self._g.nodes)

    def node_kind(self, name: str) -> str:
        try:
            return self._g.nodes[name]["kind"]
        except KeyError:
            raise EndpointError(f"unknown node: {name!r}") from None

    def link(self, a: str, b: str) -> Link:
        key = (a, b) if a <= b else (b, a)
        try:
            return self._links[key]
        except KeyError:
            raise EndpointError(f"no link between {a!r} and {b!r}") from None

    def links(self) -> list[Link]:
        return sorted(self._links.values(), key=lambda l: l.key)

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
            if n not in self._g:
                raise EndpointError(f"unknown node: {n!r}")
        if src == dst:
            links: tuple[Link, ...] = ()
        else:
            try:
                nodes = nx.shortest_path(self._g, src, dst, weight="weight")
            except nx.NetworkXNoPath:
                raise EndpointError(f"no route from {src!r} to {dst!r}") from None
            links = tuple(self.link(a, b) for a, b in zip(nodes, nodes[1:]))
        entry = self._routes[key] = (links, sum(l.latency_s for l in links))
        return entry

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
