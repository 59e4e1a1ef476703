"""Byte-identity gate for the per-record publish path.

Every acquisition's metadata is serialized once by
``AcquisitionMetadata.to_json`` and its search record indexed once by
``SearchIndex.ingest``; ``write_emd`` embeds the same JSON in every EMD
file.  This suite checks both against their frozen first versions in
``tests/record_reference.py``: the JSON byte for byte, the postings with
their terms, term frequencies, term order and per-term subject order.
No normalization is applied to either side.
"""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import run_campaign
from repro.emd import (
    AcquisitionMetadata,
    DetectorConfig,
    MicroscopeState,
    SampleInfo,
    StagePosition,
    write_emd,
)
from repro.instrument import MovieSpec, PicoProbe
from repro.rng import RngRegistry
from repro.search import SearchIndex

from tests.record_reference import (
    ordered_postings,
    postings_reference,
    to_json_reference,
)

# -- metadata JSON -----------------------------------------------------------

_EDGE_FLOATS = (-0.0, 0.0, 5e-324, 1e308, math.inf, -math.inf)
floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
texts = st.text(max_size=12)  # any code point but surrogates
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | floats | texts,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(texts, inner, max_size=3),
    max_leaves=12,
)

detectors = st.builds(
    DetectorConfig,
    name=texts,
    kind=texts,
    solid_angle_sr=floats,
    pixel_size_um=floats,
    energy_resolution_ev=floats,
    enabled=st.booleans(),
)

metadata = st.builds(
    AcquisitionMetadata,
    acquisition_id=texts,
    acquired_at=floats,
    acquired_at_iso=texts,
    operator=texts,
    signal_type=texts,
    shape=st.lists(st.integers(0, 2**40), max_size=4).map(tuple),
    dtype=texts,
    microscope=st.builds(
        MicroscopeState,
        instrument=texts,
        beam_energy_kev=floats,
        probe_size_pm=floats,
        magnification=floats,
        camera_length_mm=floats,
        stage=st.builds(
            StagePosition,
            x_um=floats,
            y_um=floats,
            z_um=floats,
            alpha_deg=floats,
            beta_deg=floats,
        ),
        detectors=st.lists(detectors, max_size=3).map(tuple),
        vacuum_environment=texts,
    ),
    sample=st.builds(
        SampleInfo,
        name=texts,
        description=texts,
        elements=st.lists(texts, max_size=4).map(tuple),
        preparation=texts,
    ),
    software_version=texts,
    extra=st.dictionaries(texts, json_values, max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(metadata)
def test_to_json_matches_reference(md):
    assert md.to_json() == to_json_reference(md)


def test_acquired_metadata_json_matches_reference():
    probe = PicoProbe(RngRegistry(seed=11), operator="bench")
    cube, _ = probe.acquire_hyperspectral(shape=(24, 24), n_channels=32)
    movie, _ = probe.acquire_spatiotemporal(
        MovieSpec(n_frames=2, shape=(32, 32), n_particles=2)
    )
    for md in (cube.metadata, movie.metadata):
        assert md.to_json() == to_json_reference(md)


# -- search postings ---------------------------------------------------------

# Case mappings that change length or are context-sensitive, letters whose
# lowercase falls in [a-z] (Kelvin sign), digits and token separators.
_PIECES = (
    "İ", "K", "ẞ", "ß", "ΑΣ", "ΣΑ", "Σ", "ς", "é", "ﬁ", "ǅ",
    "a", "Z", "x9", "0", "42", " ", "-", ".", "_", "/", ":", "\t", "\n",
)
post_texts = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=8).map("".join),
    st.text(max_size=10),
)
contents = st.recursive(
    st.none() | st.integers() | st.floats(allow_nan=False) | post_texts,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(post_texts, inner, max_size=4),
    max_leaves=16,
)
records = st.lists(
    st.tuples(
        st.sampled_from(("doi:a", "doi:b", "doi:c", "doi:d")),
        st.dictionaries(post_texts, contents, max_size=4),
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(records)
def test_postings_match_reference(recs):
    idx = SearchIndex("t", validate=False)
    for subject, content in recs:
        idx.ingest(subject, content)
    assert ordered_postings(idx._postings) == ordered_postings(
        postings_reference(recs)
    )


@pytest.mark.parametrize("ingest", ["file", "stream"])
@pytest.mark.parametrize("use_case", ["hyperspectral", "spatiotemporal"])
def test_campaign_portal_postings_match_reference(use_case, ingest):
    res = run_campaign(use_case, duration_s=1800.0, seed=3, ingest=ingest)
    index = res.testbed.portal_index
    assert len(index) > 0
    entries = [(e.subject, e.content) for e in index._entries.values()]
    assert ordered_postings(index._postings) == ordered_postings(
        postings_reference(entries)
    )


# -- EMD file bytes ----------------------------------------------------------


def test_hyperspectral_file_bytes_unchanged(tmp_path):
    # The embedded metadata JSON is part of the file; this digest was
    # recorded while to_json still went through dataclasses.asdict.
    sig, _ = PicoProbe(RngRegistry(seed=5), operator="bench").acquire_hyperspectral(
        shape=(24, 24), n_channels=64
    )
    path = tmp_path / "h.emd"
    write_emd(path, sig, compression="zlib")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "865243c1cf4c5b8ac64f29a07029367d85bedc98a2ef4c4bdc8b8e76bbdc231f"
    )
