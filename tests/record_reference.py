"""Reference implementations of the per-record publish path.

Every acquisition is published the same way: its metadata is serialized
with :meth:`repro.emd.AcquisitionMetadata.to_json` (the flow carries it,
and ``write_emd`` embeds it in every EMD file), and the search record
built from it is indexed by :meth:`repro.search.SearchIndex.ingest`.
These are those two code paths as they were first written, kept
verbatim as the byte-level ground truth:

* :func:`to_json_reference` serializes through :func:`dataclasses.asdict`;
* :func:`postings_reference` replays ``ingest``'s posting updates, one
  ``tokenize`` call per string found by a recursive generator, and
  replaces a re-ingested subject the way the index does.

``tests/test_record_identity.py`` asserts the shipped code produces the
same JSON bytes and the same postings (terms, term frequencies, term
order and per-term subject order).  They live with the tests, outside
the shipped package.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from dataclasses import asdict
from typing import Any, Iterable, Iterator

from repro.emd import AcquisitionMetadata

_TOKEN = re.compile(r"[a-z0-9]+")


def to_json_reference(md: AcquisitionMetadata) -> str:
    """``AcquisitionMetadata.to_json`` built on ``dataclasses.asdict``."""
    doc = asdict(md)
    doc["shape"] = list(md.shape)
    return json.dumps(doc, sort_keys=True)


def tokenize_reference(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def _walk_strings(value: Any) -> Iterator[str]:
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _walk_strings(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _walk_strings(v)


def postings_reference(
    records: Iterable[tuple[str, Any]],
) -> dict[str, dict[str, int]]:
    """The postings (term -> {subject: tf}) of ingesting ``records`` in order."""
    postings: dict[str, dict[str, int]] = defaultdict(dict)
    seen: set[str] = set()
    for subject, content in records:
        if subject in seen:
            for term in list(postings):
                postings[term].pop(subject, None)
                if not postings[term]:
                    del postings[term]
        seen.add(subject)
        counts: Counter = Counter()
        for text in _walk_strings(content):
            counts.update(tokenize_reference(text))
        for term, tf in counts.items():
            postings[term][subject] = tf
    return dict(postings)


def ordered_postings(
    postings: dict[str, dict[str, int]],
) -> list[tuple[str, list[tuple[str, int]]]]:
    """Postings as nested lists, so ``==`` compares the orders as well."""
    return [(term, list(subjects.items())) for term, subjects in postings.items()]
