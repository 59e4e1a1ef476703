"""In-memory search index: free text + filters + facets + visibility.

A faithful miniature of Globus Search's GMETA model: records are
(subject, content, visible_to) triples; queries combine a free-text
string (TF-IDF ranked over all textual content), structured field
filters on dotted paths, and facet requests; results are filtered by the
caller's identity against each record's ``visible_to`` list before
anything is scored.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..auth import Identity
from ..errors import SearchError
from .datacite import validate_datacite

__all__ = ["GmetaEntry", "FieldFilter", "SearchHit", "SearchResults", "SearchIndex"]

_TOKEN = re.compile(r"[a-z0-9]+")

PUBLIC = "public"


def tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def _walk_strings(value: Any, out: list[str]) -> None:
    """Append every string in ``value`` to ``out``, depth first."""
    if isinstance(value, str):
        out.append(value)
    elif isinstance(value, dict):
        for v in value.values():
            _walk_strings(v, out)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _walk_strings(v, out)


def _dig(doc: dict, path: str) -> Any:
    node: Any = doc
    for part in path.split("."):
        if isinstance(node, dict) and part in node:
            node = node[part]
        else:
            return None
    return node


@dataclass(frozen=True)
class GmetaEntry:
    """One ingested record."""

    subject: str
    content: dict[str, Any]
    visible_to: tuple[str, ...]
    ingested_at: float


@dataclass(frozen=True)
class FieldFilter:
    """Structured constraint on a dotted content path.

    ``op``: ``"eq"``, ``"ne"``, ``"lt"``, ``"le"``, ``"gt"``, ``"ge"``,
    ``"contains"`` (substring / list membership), ``"between"``
    (inclusive pair).
    """

    path: str
    op: str
    value: Any

    _OPS = ("eq", "ne", "lt", "le", "gt", "ge", "contains", "between")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise SearchError(f"unknown filter op {self.op!r}; use one of {self._OPS}")

    def matches(self, content: dict[str, Any]) -> bool:
        got = _dig(content, self.path)
        if got is None:
            return False
        try:
            if self.op == "eq":
                return got == self.value
            if self.op == "ne":
                return got != self.value
            if self.op == "lt":
                return got < self.value
            if self.op == "le":
                return got <= self.value
            if self.op == "gt":
                return got > self.value
            if self.op == "ge":
                return got >= self.value
            if self.op == "contains":
                return self.value in got
            if self.op == "between":
                lo, hi = self.value
                return lo <= got <= hi
        except TypeError:
            return False
        return False


@dataclass(frozen=True)
class SearchHit:
    subject: str
    score: float
    content: dict[str, Any]


@dataclass(frozen=True)
class SearchResults:
    hits: tuple[SearchHit, ...]
    total_matched: int
    facets: dict[str, dict[str, int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.hits)

    def subjects(self) -> list[str]:
        return [h.subject for h in self.hits]


class SearchIndex:
    """Inverted-index search over DataCite-validated records."""

    def __init__(self, name: str, validate: bool = True) -> None:
        self.name = name
        self.validate = validate
        self._entries: dict[str, GmetaEntry] = {}
        self._postings: dict[str, dict[str, int]] = defaultdict(dict)  # term -> {subject: tf}

    # -- ingest ------------------------------------------------------------
    def ingest(
        self,
        subject: str,
        content: dict[str, Any],
        visible_to: Iterable[str] = (PUBLIC,),
        now: float = 0.0,
    ) -> GmetaEntry:
        """Add or replace the record for ``subject``."""
        if not subject or not isinstance(subject, str):
            raise SearchError(f"subject must be a non-empty string, got {subject!r}")
        if self.validate:
            validate_datacite(content)
        if isinstance(visible_to, str):
            raise SearchError(
                f"visible_to must be a collection of identities, got {visible_to!r}"
            )
        visible = tuple(visible_to)
        if not visible:
            raise SearchError("visible_to must not be empty (use 'public')")
        if not all(isinstance(v, str) and v for v in visible):
            raise SearchError(
                f"visible_to entries must be non-empty strings, got {visible!r}"
            )
        if subject in self._entries:
            self._remove_postings(subject)
        entry = GmetaEntry(
            subject=subject,
            content=content,
            visible_to=visible,
            ingested_at=float(now),
        )
        self._entries[subject] = entry
        strings: list[str] = []
        _walk_strings(content, strings)
        # No token spans the joining space: one pass counts what a
        # tokenize() per string would, in the same first-seen order.
        for term, tf in Counter(tokenize(" ".join(strings))).items():
            self._postings[term][subject] = tf
        return entry

    def delete(self, subject: str) -> None:
        if subject not in self._entries:
            raise SearchError(f"unknown subject: {subject!r}")
        self._remove_postings(subject)
        del self._entries[subject]

    def _remove_postings(self, subject: str) -> None:
        for term in list(self._postings):
            self._postings[term].pop(subject, None)
            if not self._postings[term]:
                del self._postings[term]

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def get(self, subject: str, identity: Optional[Identity] = None) -> GmetaEntry:
        entry = self._entries.get(subject)
        if entry is None or not self._visible(entry, identity):
            raise SearchError(f"unknown subject: {subject!r}")
        return entry

    @staticmethod
    def _visible(entry: GmetaEntry, identity: Optional[Identity]) -> bool:
        if PUBLIC in entry.visible_to:
            return True
        return identity is not None and identity.urn in entry.visible_to

    def query(
        self,
        q: Optional[str] = None,
        filters: Iterable[FieldFilter] = (),
        identity: Optional[Identity] = None,
        limit: int = 10,
        offset: int = 0,
        facet_fields: Iterable[str] = (),
    ) -> SearchResults:
        """Run a query.

        Free-text terms are OR-combined and TF-IDF ranked; filters are
        AND-combined; visibility is enforced before scoring.  With no
        ``q``, all (visible, filtered) records match with score 0 and
        are returned newest-ingested first.
        """
        if limit < 0 or offset < 0:
            raise SearchError("limit/offset must be >= 0")
        filters = list(filters)
        candidates = [
            e
            for e in self._entries.values()
            if self._visible(e, identity)
            and all(f.matches(e.content) for f in filters)
        ]
        n_docs = max(len(self._entries), 1)
        if q:
            terms = tokenize(q)
            scores: dict[str, float] = defaultdict(float)
            for term in terms:
                postings = self._postings.get(term, {})
                if not postings:
                    continue
                idf = math.log(1.0 + n_docs / len(postings))
                for subject, tf in postings.items():
                    scores[subject] += (1.0 + math.log(tf)) * idf
            matched = [e for e in candidates if scores.get(e.subject, 0.0) > 0]
            matched.sort(key=lambda e: (-scores[e.subject], e.subject))
            hits = [
                SearchHit(e.subject, scores[e.subject], e.content) for e in matched
            ]
        else:
            matched = sorted(candidates, key=lambda e: (-e.ingested_at, e.subject))
            hits = [SearchHit(e.subject, 0.0, e.content) for e in matched]

        facets: dict[str, dict[str, int]] = {}
        for fld in facet_fields:
            counts: Counter = Counter()
            for h in hits:
                v = _dig(h.content, fld)
                if isinstance(v, (list, tuple)):
                    counts.update(str(x) for x in v)
                elif v is not None:
                    counts[str(v)] += 1
            facets[fld] = dict(counts)

        window = hits[offset : offset + limit]
        return SearchResults(
            hits=tuple(window), total_matched=len(hits), facets=facets
        )
