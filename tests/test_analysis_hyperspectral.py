"""Tests for hyperspectral reductions, metadata extraction, and video
conversion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    build_search_document,
    identify_elements,
    intensity_figure_svg,
    intensity_map,
    movie_to_uint8,
    read_video,
    spectrum_figure_svg,
    sum_spectrum,
    video_info,
    write_video,
)
from repro.emd import EmdFile, write_emd
from repro.errors import FormatError, ReproError
from repro.instrument import PicoProbe, energy_axis
from repro.rng import RngRegistry
from repro.search import validate_datacite


@pytest.fixture(scope="module")
def hyper_signal():
    probe = PicoProbe(RngRegistry(0), operator="alice")
    sig, particles = probe.acquire_hyperspectral(shape=(48, 48), n_channels=512)
    return sig, particles


# -- reductions --------------------------------------------------------------


def test_intensity_map_shape(hyper_signal):
    sig, _ = hyper_signal
    img = intensity_map(sig.data)
    assert img.shape == (48, 48)
    np.testing.assert_allclose(img, sig.data.sum(axis=2))


def test_sum_spectrum_shape(hyper_signal):
    sig, _ = hyper_signal
    spec = sum_spectrum(sig.data)
    assert spec.shape == (512,)
    np.testing.assert_allclose(spec, sig.data.sum(axis=(0, 1)))


def test_reductions_reject_non_cube():
    with pytest.raises(ReproError):
        intensity_map(np.zeros((4, 4)))
    with pytest.raises(ReproError):
        sum_spectrum(np.zeros(4))


def test_identify_elements_finds_film_composition(hyper_signal):
    sig, _ = hyper_signal
    energies = sig.dims[2].values
    spec = sum_spectrum(sig.data)
    hits = identify_elements(spec, energies)
    found = {h.element for h in hits}
    # The polyamide film's light elements dominate the spectrum.
    assert {"C", "N", "O"} <= found


def test_identify_elements_validation():
    with pytest.raises(ReproError):
        identify_elements(np.zeros(10), np.zeros(11))


def test_identify_elements_flat_spectrum():
    e = energy_axis(128)
    assert identify_elements(np.zeros(128), e) == []


def test_figure_svgs_render(hyper_signal):
    sig, _ = hyper_signal
    f1 = intensity_figure_svg(sig.data)
    f2 = spectrum_figure_svg(sig.data, sig.dims[2].values)
    assert f1.startswith("<svg") and "base64" in f1
    assert f2.startswith("<svg") and "polyline" in f2


# -- metadata extraction ----------------------------------------------------------


def test_extract_metadata_from_file(tmp_path, hyper_signal):
    sig, _ = hyper_signal
    path = tmp_path / "a.emd"
    write_emd(path, sig)
    with EmdFile(path) as f:
        assert f.metadata() == sig.metadata


def test_metadata_tree_structure(hyper_signal):
    """The search document's ``experiment`` section is the metadata tree
    the portal's Fig. 2C table shows."""
    sig, _ = hyper_signal
    tree = build_search_document(sig.metadata)["experiment"]
    assert tree["operator"] == "alice"
    assert tree["microscope"]["beam_energy_kev"] == 300.0
    assert tree["microscope"]["stage"].keys() >= {"x_um", "alpha_deg"}
    assert tree["microscope"]["detectors"][0]["name"] == "XPAD"
    assert tree["signal_type"] == "hyperspectral"
    assert tree["sample"]["elements"]


def test_build_search_document_is_valid_datacite(hyper_signal):
    sig, _ = hyper_signal
    doc = build_search_document(
        sig.metadata,
        plots={"intensity": "<svg/>"},
        data_location="/eagle/data/a.emd",
    )
    validate_datacite(doc)
    assert doc["experiment"]["signal_type"] == "hyperspectral"
    assert doc["plots"]["intensity"] == "<svg/>"
    assert doc["data_location"] == "/eagle/data/a.emd"
    assert "hyperspectral" in doc["subjects"]


# -- video conversion -------------------------------------------------------------


def test_movie_to_uint8_casts_and_scales():
    movie = np.linspace(0, 1000, 4 * 8 * 8).reshape(4, 8, 8).astype(np.float64)
    out = movie_to_uint8(movie)
    assert out.dtype == np.uint8
    assert out.shape == movie.shape
    assert out.max() == 255
    assert out.min() == 0


def test_movie_to_uint8_constant_input():
    out = movie_to_uint8(np.full((2, 4, 4), 7.0))
    assert (out == 0).all()


def test_movie_to_uint8_validation():
    with pytest.raises(FormatError):
        movie_to_uint8(np.zeros((4, 4)))


def test_video_roundtrip(tmp_path):
    frames = [np.full((8, 8), i * 10, dtype=np.uint8) for i in range(5)]
    path = tmp_path / "m.mpng"
    n = write_video(path, frames, fps=10.0)
    assert n == 5
    assert video_info(path) == (5, 10.0)
    payloads = list(read_video(path))
    assert len(payloads) == 5
    assert all(p.startswith(b"\x89PNG") for p in payloads)


def test_video_bad_fps(tmp_path):
    with pytest.raises(FormatError):
        write_video(tmp_path / "m.mpng", [], fps=0)


def test_video_truncation_detected(tmp_path):
    path = tmp_path / "m.mpng"
    write_video(path, [np.zeros((4, 4), dtype=np.uint8)] * 3, fps=5)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 10])
    with pytest.raises(FormatError):
        list(read_video(path))


def test_video_not_mpng(tmp_path):
    path = tmp_path / "m.mpng"
    path.write_bytes(b"garbage" * 10)
    with pytest.raises(FormatError):
        video_info(path)
