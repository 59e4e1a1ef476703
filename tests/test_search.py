"""Tests for the search substrate: schema, index, service."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.auth import AuthClient
from repro.auth.identity import SEARCH_INGEST_SCOPE, SEARCH_QUERY_SCOPE
from repro.errors import PermissionDenied, SchemaError, SearchError
from repro.rng import RngRegistry
from repro.search import (
    FieldFilter,
    SearchIndex,
    SearchService,
    make_record,
    validate_datacite,
)
from repro.sim import Environment


def record(ident="doi:1", title="hyperspectral scan", year=2023, **ext):
    return make_record(ident, title, ["alice"], year, **ext)


# -- DataCite schema ---------------------------------------------------------


def test_make_record_valid():
    doc = record(subjects=["microscopy", "gold"])
    assert doc["identifier"] == "doi:1"
    assert doc["subjects"] == ["microscopy", "gold"]


def test_missing_fields_listed():
    with pytest.raises(SchemaError) as ei:
        validate_datacite({"title": "x"})
    msg = str(ei.value)
    assert "identifier" in msg and "creators" in msg and "publication_year" in msg


def test_bad_year_rejected():
    with pytest.raises(SchemaError, match="publication_year"):
        record(year=99)


def test_bad_creators_rejected():
    with pytest.raises(SchemaError, match="creator"):
        make_record("d", "t", [], 2023)
    with pytest.raises(SchemaError, match="creator"):
        make_record("d", "t", [""], 2023)


def test_non_dict_rejected():
    with pytest.raises(SchemaError):
        validate_datacite("nope")


def test_bad_subjects_rejected():
    with pytest.raises(SchemaError, match="subjects"):
        record(subjects="not-a-list")


# -- index: ingest + free text -------------------------------------------------


def test_ingest_and_get():
    idx = SearchIndex("portal")
    idx.ingest("s1", record(), now=5.0)
    e = idx.get("s1")
    assert e.content["title"] == "hyperspectral scan"
    assert e.ingested_at == 5.0
    assert len(idx) == 1


def test_ingest_replaces_subject():
    idx = SearchIndex("portal")
    idx.ingest("s1", record(title="first title zephyr"))
    idx.ingest("s1", record(title="second title quixote"))
    assert len(idx) == 1
    assert len(idx.query(q="zephyr")) == 0
    assert len(idx.query(q="quixote")) == 1


def test_invalid_record_rejected_at_ingest():
    idx = SearchIndex("portal")
    with pytest.raises(SchemaError):
        idx.ingest("s1", {"title": "no identifier"})


def test_free_text_ranking_prefers_higher_tf():
    idx = SearchIndex("portal")
    idx.ingest("a", record("d1", "gold gold gold nanoparticle"))
    idx.ingest("b", record("d2", "gold film"))
    idx.ingest("c", record("d3", "carbon background"))
    res = idx.query(q="gold")
    assert res.subjects() == ["a", "b"]
    assert res.hits[0].score > res.hits[1].score


def test_query_no_text_returns_newest_first():
    idx = SearchIndex("portal")
    idx.ingest("old", record("d1"), now=1.0)
    idx.ingest("new", record("d2"), now=9.0)
    res = idx.query()
    assert res.subjects() == ["new", "old"]


def test_query_limit_offset():
    idx = SearchIndex("portal")
    for i in range(10):
        idx.ingest(f"s{i}", record(f"d{i}"), now=float(i))
    res = idx.query(limit=3)
    assert len(res) == 3
    assert res.total_matched == 10
    res2 = idx.query(limit=3, offset=3)
    assert set(res.subjects()).isdisjoint(res2.subjects())
    with pytest.raises(SearchError):
        idx.query(limit=-1)


def test_delete():
    idx = SearchIndex("portal")
    idx.ingest("s1", record())
    idx.delete("s1")
    assert len(idx) == 0
    assert len(idx.query(q="hyperspectral")) == 0
    with pytest.raises(SearchError):
        idx.delete("s1")


# -- filters + facets -------------------------------------------------------------


def test_field_filters():
    idx = SearchIndex("portal")
    idx.ingest("a", record("d1", year=2022, experiment={"signal_type": "hyperspectral"}))
    idx.ingest("b", record("d2", year=2023, experiment={"signal_type": "spatiotemporal"}))
    eq = idx.query(filters=[FieldFilter("experiment.signal_type", "eq", "hyperspectral")])
    assert eq.subjects() == ["a"]
    ge = idx.query(filters=[FieldFilter("publication_year", "ge", 2023)])
    assert ge.subjects() == ["b"]
    both = idx.query(
        filters=[
            FieldFilter("publication_year", "between", (2022, 2023)),
            FieldFilter("experiment.signal_type", "ne", "hyperspectral"),
        ]
    )
    assert both.subjects() == ["b"]


def test_filter_missing_path_excludes():
    idx = SearchIndex("portal")
    idx.ingest("a", record("d1"))
    assert idx.query(filters=[FieldFilter("nope.deep", "eq", 1)]).subjects() == []


def test_filter_date_range_iso_strings():
    idx = SearchIndex("portal")
    idx.ingest("a", record("d1", dates={"created": "2023-06-01T00:10:00"}))
    idx.ingest("b", record("d2", dates={"created": "2023-06-01T02:00:00"}))
    res = idx.query(
        filters=[
            FieldFilter(
                "dates.created",
                "between",
                ("2023-06-01T00:00:00", "2023-06-01T01:00:00"),
            )
        ]
    )
    assert res.subjects() == ["a"]


def test_unknown_filter_op():
    with pytest.raises(SearchError):
        FieldFilter("x", "regex", ".*")


def test_facets_count_values():
    idx = SearchIndex("portal")
    idx.ingest("a", record("d1", experiment={"signal_type": "hyperspectral"}))
    idx.ingest("b", record("d2", experiment={"signal_type": "hyperspectral"}))
    idx.ingest("c", record("d3", experiment={"signal_type": "spatiotemporal"}))
    res = idx.query(facet_fields=["experiment.signal_type"])
    assert res.facets["experiment.signal_type"] == {
        "hyperspectral": 2,
        "spatiotemporal": 1,
    }


def test_facets_over_list_values():
    idx = SearchIndex("portal")
    idx.ingest("a", record("d1", subjects=["gold", "film"]))
    idx.ingest("b", record("d2", subjects=["gold"]))
    res = idx.query(facet_fields=["subjects"])
    assert res.facets["subjects"] == {"gold": 2, "film": 1}


# -- visibility --------------------------------------------------------------------


def test_visibility_filtering():
    auth = AuthClient()
    alice = auth.register_identity("alice")
    bob = auth.register_identity("bob")
    idx = SearchIndex("portal")
    idx.ingest("pub", record("d1"), visible_to=("public",))
    idx.ingest("priv", record("d2"), visible_to=(alice.urn,))
    assert idx.query(identity=None).subjects() == ["pub"]
    assert set(idx.query(identity=alice).subjects()) == {"pub", "priv"}
    assert idx.query(identity=bob).subjects() == ["pub"]


def test_get_respects_visibility():
    auth = AuthClient()
    alice = auth.register_identity("alice")
    idx = SearchIndex("portal")
    idx.ingest("priv", record(), visible_to=(alice.urn,))
    idx.get("priv", identity=alice)
    with pytest.raises(SearchError):
        idx.get("priv", identity=None)


def test_empty_visible_to_rejected():
    idx = SearchIndex("portal")
    with pytest.raises(SearchError):
        idx.ingest("s", record(), visible_to=())


@pytest.mark.parametrize(
    "visible_to", ["public", ("public", ""), ("public", None)], ids=["string", "empty", "none"]
)
def test_malformed_visible_to_rejected(visible_to):
    idx = SearchIndex("t")
    with pytest.raises(SearchError, match="visible_to"):
        idx.ingest("s", record(), visible_to=visible_to)
    assert len(idx) == 0


def test_bad_subject_rejected():
    idx = SearchIndex("portal")
    with pytest.raises(SearchError):
        idx.ingest("", record())


# -- service (auth + timing) --------------------------------------------------------


def test_search_service_auth_and_latency():
    env = Environment()
    auth = AuthClient()
    alice = auth.register_identity("alice")
    ok = auth.issue_token(alice, [SEARCH_INGEST_SCOPE, SEARCH_QUERY_SCOPE], now=0.0)
    svc = SearchService(env, auth, RngRegistry(0), ingest_latency_s=0.8, latency_sigma=0.0)
    svc.create_index("portal")
    out = {}

    def run(env):
        yield from svc.ingest(ok, "portal", "s1", record())
        out["ingested_at"] = env.now
        res = yield from svc.query(ok, "portal", q="hyperspectral")
        out["res"] = res

    env.process(run(env))
    env.run()
    assert out["ingested_at"] == pytest.approx(0.8)
    assert out["res"].subjects() == ["s1"]


def test_search_service_scope_enforced():
    env = Environment()
    auth = AuthClient()
    alice = auth.register_identity("alice")
    query_only = auth.issue_token(alice, [SEARCH_QUERY_SCOPE], now=0.0)
    svc = SearchService(env, auth, RngRegistry(0))
    svc.create_index("portal")

    def run(env):
        with pytest.raises(PermissionDenied):
            yield from svc.ingest(query_only, "portal", "s1", record())
        yield env.timeout(0)

    env.process(run(env))
    env.run()


def test_search_service_duplicate_index():
    env = Environment()
    svc = SearchService(env, AuthClient())
    svc.create_index("a")
    with pytest.raises(ValueError):
        svc.create_index("a")
    with pytest.raises(ValueError):
        svc.index("missing")


# -- properties -----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(alphabet="abcdef ", min_size=1, max_size=30), min_size=1, max_size=15))
def test_ingest_then_query_total_consistency(titles):
    """Property: every ingested record is findable by its own title terms
    (when they tokenize to something)."""
    idx = SearchIndex("p", validate=False)
    for i, t in enumerate(titles):
        idx.ingest(f"s{i}", {"title": t})
    for i, t in enumerate(titles):
        toks = [w for w in t.split() if w]
        if not toks:
            continue
        res = idx.query(q=toks[0], limit=len(titles))
        assert f"s{i}" in res.subjects()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.integers(0, 29))
def test_pagination_partition_property(n, offset):
    """Property: limit/offset windows partition the full result list."""
    idx = SearchIndex("p", validate=False)
    for i in range(n):
        idx.ingest(f"s{i:02d}", {"title": "x"}, now=float(i))
    full = idx.query(limit=n).subjects()
    window = idx.query(limit=5, offset=offset).subjects()
    assert window == full[offset : offset + 5]
