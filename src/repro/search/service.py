"""Authenticated, timed facade over :class:`SearchIndex`.

The flows' "Data Publication" step talks to this service: ingest
requires the ingest scope, queries the query scope, and each call
charges a cloud API latency so publication time shows up in the Fig. 4
breakdown ("a light-weight action ... performed on a Polaris login
node").
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from ..auth import ScopeAuthorizer, Token
from ..auth.identity import SEARCH_INGEST_SCOPE, SEARCH_QUERY_SCOPE, AuthClient
from ..obs import NULL_OBS
from ..rng import RngRegistry, lognormal_from_median
from ..sim import Environment
from .index import FieldFilter, SearchIndex

__all__ = ["SearchService"]


class SearchService:
    """One Globus-Search-style tenant holding named indices."""

    def __init__(
        self,
        env: Environment,
        auth: AuthClient,
        rngs: Optional[RngRegistry] = None,
        ingest_latency_s: float = 0.8,
        query_latency_s: float = 0.15,
        latency_sigma: float = 0.3,
        obs: Any = NULL_OBS,
    ) -> None:
        self.env = env
        self._ingest_auth = ScopeAuthorizer(auth, SEARCH_INGEST_SCOPE)
        self._query_auth = ScopeAuthorizer(auth, SEARCH_QUERY_SCOPE)
        self.rngs = rngs or RngRegistry(seed=0)
        self.ingest_latency_s = float(ingest_latency_s)
        self.query_latency_s = float(query_latency_s)
        self.latency_sigma = float(latency_sigma)
        m = obs.metrics
        self._m_ingests = m.counter("search.ingests")
        self._m_queries = m.counter("search.queries")
        #: Chaos hook: a duck-typed outage gate (see
        #: :class:`repro.chaos.ServiceGate`).  ``None`` means always up.
        self.gate: Any = None
        self._indices: dict[str, SearchIndex] = {}

    def create_index(self, name: str, validate: bool = True) -> SearchIndex:
        if name in self._indices:
            raise ValueError(f"index already exists: {name!r}")
        idx = SearchIndex(name, validate=validate)
        self._indices[name] = idx
        return idx

    def index(self, name: str) -> SearchIndex:
        try:
            return self._indices[name]
        except KeyError:
            raise ValueError(f"unknown index: {name!r}") from None

    def check_available(self) -> None:
        """Raise :class:`~repro.errors.ServiceUnavailable` when a chaos
        gate has the search API inside an outage window."""
        if self.gate is not None:
            self.gate.check(self.env.now)

    def _charge(self, median: float):
        rng = self.rngs.stream("search.latency")
        return self.env.timeout(
            lognormal_from_median(rng, median, self.latency_sigma)
        )

    # -- DES-timed operations (use inside processes) -------------------------
    def ingest(
        self,
        token: Token,
        index: str,
        subject: str,
        content: dict[str, Any],
        visible_to: Iterable[str] = ("public",),
    ):
        """DES sub-process: authenticated ingest with API latency.

        Use as ``entry = yield from service.ingest(...)``.
        """
        self.check_available()
        self._ingest_auth.authorize(token, self.env.now)
        idx = self.index(index)
        yield self._charge(self.ingest_latency_s)
        self._m_ingests.inc()
        return idx.ingest(subject, content, visible_to, now=self.env.now)

    def query(
        self,
        token: Token,
        index: str,
        q: Optional[str] = None,
        filters: Iterable[FieldFilter] = (),
        limit: int = 10,
        offset: int = 0,
        facet_fields: Iterable[str] = (),
    ):
        """DES sub-process: authenticated query with API latency.

        Use as ``results = yield from service.query(...)``.
        """
        identity = self._query_auth.authorize(token, self.env.now)
        idx = self.index(index)
        yield self._charge(self.query_latency_s)
        self._m_queries.inc()
        return idx.query(
            q=q,
            filters=filters,
            identity=identity,
            limit=limit,
            offset=offset,
            facet_fields=facet_fields,
        )
