"""Tests for the flow analysis functions and their cost models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    analyze_hyperspectral_file,
    analyze_spatiotemporal_file,
    read_video,
    video_info,
)
from repro.core.functions import (
    analyze_virtual_hyperspectral,
    analyze_virtual_spatiotemporal,
    file_descriptor,
    hyperspectral_cost_model,
    spatiotemporal_cost_model,
)
from repro.emd import write_emd
from repro.errors import ComputeError
from repro.instrument import (
    HYPERSPECTRAL_USE_CASE,
    SPATIOTEMPORAL_USE_CASE,
    MovieSpec,
    PicoProbe,
)
from repro.rng import RngRegistry
from repro.search import validate_datacite
from repro.storage import VirtualFS
from repro.testbed import DEFAULT_CALIBRATION


def make_vfile(uc=HYPERSPECTRAL_USE_CASE, size=None):
    probe = PicoProbe(RngRegistry(0), operator="tester")
    md = probe.stamp_metadata(uc.signal_type, uc.shape, uc.dtype, uc.sample, 5.0)
    fs = VirtualFS("u")
    return fs.create(
        "/transfer/x.emd",
        size if size is not None else uc.file_size_bytes,
        created_at=5.0,
        metadata=md,
    )


def test_file_descriptor_roundtrips_metadata():
    vf = make_vfile()
    d = file_descriptor(vf, "/eagle/x.emd")
    assert d["dest_path"] == "/eagle/x.emd"
    assert d["size_bytes"] == 91e6
    assert d["signal_type"] == "hyperspectral"
    assert "metadata_json" in d


def test_file_descriptor_requires_metadata():
    fs = VirtualFS("u")
    bare = fs.create("/transfer/bare.emd", 10, created_at=0)
    with pytest.raises(ComputeError, match="metadata"):
        file_descriptor(bare, "/d")


def test_virtual_hyperspectral_produces_valid_record():
    vf = make_vfile()
    doc = analyze_virtual_hyperspectral(file_descriptor(vf, "/eagle/x.emd"))
    validate_datacite(doc)
    assert doc["data_location"] == "/eagle/x.emd"
    assert doc["experiment"]["signal_type"] == "hyperspectral"
    assert "intensity_image" in doc["derived_products"]


def test_virtual_spatiotemporal_produces_valid_record():
    vf = make_vfile(SPATIOTEMPORAL_USE_CASE)
    doc = analyze_virtual_spatiotemporal(file_descriptor(vf, "/eagle/m.emd"))
    validate_datacite(doc)
    assert "annotated_video" in doc["derived_products"]
    assert doc["experiment"]["shape"] == [600, 500, 500]


def test_hyperspectral_cost_scales_with_size():
    cal = DEFAULT_CALIBRATION
    model = hyperspectral_cost_model(cal, RngRegistry(0))
    small = make_vfile(size=10e6)
    big = make_vfile(size=500e6)
    c_small = np.median(
        [model((), {"file": file_descriptor(small, "/d")}) for _ in range(50)]
    )
    c_big = np.median(
        [model((), {"file": file_descriptor(big, "/d")}) for _ in range(50)]
    )
    assert c_big > c_small * 3
    assert c_small >= cal.hyperspectral_analysis_floor_s * 0.5


def test_spatiotemporal_cost_includes_per_frame_inference():
    cal = DEFAULT_CALIBRATION
    model = spatiotemporal_cost_model(cal, RngRegistry(0))
    vf = make_vfile(SPATIOTEMPORAL_USE_CASE)
    cost = np.median([model((), {"file": file_descriptor(vf, "/d")}) for _ in range(50)])
    # ≈ 30 s/GB * 1.2 GB + 0.013 * 600 frames ≈ 44 s.
    assert 30 < cost < 60


def test_real_hyperspectral_analysis_outputs(tmp_path):
    probe = PicoProbe(RngRegistry(0))
    sig, _ = probe.acquire_hyperspectral(shape=(32, 32), n_channels=256)
    path = tmp_path / "h.emd"
    write_emd(path, sig)
    doc = analyze_hyperspectral_file(path, tmp_path / "out")
    validate_datacite(doc)
    assert (tmp_path / "out" / "h_intensity.svg").exists()
    assert (tmp_path / "out" / "h_spectrum.svg").exists()
    assert "C" in doc["detected_elements"]
    assert doc["plots"]["intensity image"].startswith("<svg")


def test_real_hyperspectral_rejects_movie(tmp_path):
    probe = PicoProbe(RngRegistry(0))
    sig, _ = probe.acquire_spatiotemporal(
        MovieSpec(n_frames=2, shape=(64, 64), n_particles=1, radius_range=(4, 6))
    )
    path = tmp_path / "m.emd"
    write_emd(path, sig)
    with pytest.raises(ComputeError, match="hyperspectral"):
        analyze_hyperspectral_file(path, tmp_path / "out")


def test_real_spatiotemporal_analysis_outputs(tmp_path):
    probe = PicoProbe(RngRegistry(0))
    spec = MovieSpec(n_frames=6, shape=(96, 96), n_particles=3, radius_range=(5, 8))
    sig, truth = probe.acquire_spatiotemporal(spec)
    path = tmp_path / "m.emd"
    write_emd(path, sig)
    doc = analyze_spatiotemporal_file(path, tmp_path / "out")
    validate_datacite(doc)
    video = doc["annotated_video"]
    n, fps = video_info(video)
    assert n == 6
    assert len(doc["particle_counts"]) == 6
    assert doc["mean_particle_count"] > 0
    # Annotated frames are valid PNGs.
    assert all(p.startswith(b"\x89PNG") for p in read_video(video))


def test_real_spatiotemporal_rejects_cube(tmp_path):
    probe = PicoProbe(RngRegistry(0))
    sig, _ = probe.acquire_hyperspectral(shape=(32, 32), n_channels=16)
    path = tmp_path / "h.emd"
    write_emd(path, sig)
    with pytest.raises(ComputeError, match="spatiotemporal"):
        analyze_spatiotemporal_file(path, tmp_path / "out")
