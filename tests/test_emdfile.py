"""Tests for the EMD layer and metadata schema."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.emd import (
    AcquisitionMetadata,
    DetectorConfig,
    EmdFile,
    EmdSignal,
    MicroscopeState,
    SampleInfo,
    StagePosition,
    default_dims,
    estimate_emd_size,
    iso_from_campaign_seconds,
    read_emd,
    write_emd,
)
from repro.emd.h5lite import H5LiteFile
from repro.errors import FormatError
from repro.instrument import MovieSpec, PicoProbe
from repro.rng import RngRegistry


def make_metadata(signal_type="hyperspectral", shape=(4, 5, 6)):
    return AcquisitionMetadata(
        acquisition_id="acq-0001",
        acquired_at=12.5,
        acquired_at_iso=iso_from_campaign_seconds(12.5),
        operator="alice",
        signal_type=signal_type,
        shape=shape,
        dtype="<f8",
        microscope=MicroscopeState(
            beam_energy_kev=300.0,
            magnification=2.1e6,
            stage=StagePosition(x_um=1.0, y_um=-2.0, alpha_deg=5.0),
            detectors=(
                DetectorConfig(name="XPAD", kind="xray-hyperspectral", solid_angle_sr=4.5),
            ),
        ),
        sample=SampleInfo(name="polyamide film", elements=("C", "N", "O", "Au")),
    )


def make_signal(signal_type="hyperspectral", shape=(4, 5, 6)):
    rng = np.random.default_rng(0)
    data = rng.random(shape)
    return EmdSignal(
        name="acq0",
        data=data,
        dims=default_dims(shape, signal_type),
        metadata=make_metadata(signal_type, shape),
    )


def test_write_read_roundtrip(tmp_path):
    sig = make_signal()
    path = tmp_path / "a.emd"
    write_emd(path, sig)
    with read_emd(path) as f:
        assert f.signal_names() == ["acq0"]
        h = f.signal()
        assert h.shape == (4, 5, 6)
        assert h.signal_type == "hyperspectral"
        np.testing.assert_array_equal(h.data.read(), sig.data)


def test_metadata_roundtrip(tmp_path):
    sig = make_signal()
    path = tmp_path / "a.emd"
    write_emd(path, sig)
    with read_emd(path) as f:
        md = f.metadata()
    assert md.acquisition_id == "acq-0001"
    assert md.operator == "alice"
    assert md.microscope.beam_energy_kev == 300.0
    assert md.microscope.stage.alpha_deg == 5.0
    assert md.microscope.detectors[0].name == "XPAD"
    assert md.sample.elements == ("C", "N", "O", "Au")
    assert md.shape == (4, 5, 6)


def test_dim_vectors_roundtrip(tmp_path):
    sig = make_signal("spatiotemporal", (3, 4, 4))
    path = tmp_path / "m.emd"
    write_emd(path, sig)
    with read_emd(path) as f:
        dims = f.signal().dims()
    assert [d.name for d in dims] == ["time", "height", "width"]
    assert [d.units for d in dims] == ["s", "px", "px"]
    np.testing.assert_array_equal(dims[0].values, np.arange(3.0))


def test_spatiotemporal_default_chunking_allows_frame_reads(tmp_path):
    sig = make_signal("spatiotemporal", (5, 8, 8))
    path = tmp_path / "m.emd"
    write_emd(path, sig)
    with read_emd(path) as f:
        h = f.signal()
        frame = h.data[2]
        np.testing.assert_array_equal(frame, sig.data[2])
        # chunked per frame
        assert h.data.chunks == (1, 8, 8)


@pytest.mark.parametrize(
    "shape,dtype,rows",
    [
        ((64, 64, 1024), np.uint16, 4),  # the Fig. 2 quicklook cube
        ((128, 128, 1024), np.uint16, 2),  # the CLI quicklook cube
        ((64, 64, 1024), np.float64, 1),  # a row wider than a band
        ((4, 5, 6), np.float64, 4),  # at most the signal's height
    ],
)
def test_hyperspectral_default_chunking_is_row_bands(tmp_path, shape, dtype, rows):
    sig = EmdSignal(
        name="acq0",
        data=np.zeros(shape, dtype=dtype),
        dims=default_dims(shape, "hyperspectral"),
        metadata=make_metadata("hyperspectral", shape),
    )
    path = tmp_path / "h.emd"
    write_emd(path, sig, compression="zlib")
    with read_emd(path) as f:
        assert f.signal().data.chunks == (rows,) + shape[1:]


def test_quicklook_cube_band_read_decodes_one_block(tmp_path):
    sig, _ = PicoProbe(RngRegistry(seed=11)).acquire_hyperspectral(
        shape=(64, 64), n_channels=1024
    )
    assert sig.data.dtype == np.uint16
    path = tmp_path / "q.emd"
    write_emd(path, sig, compression="zlib")
    with H5LiteFile(path) as f:
        ds = f[f"data/{sig.name}/data"]
        np.testing.assert_array_equal(ds[0:4], sig.data[0:4])
        assert f.read_stats["block_reads"] == 1
        np.testing.assert_array_equal(ds.read(), sig.data)
        assert f.read_stats["block_reads"] == 1 + 16


def test_movie_file_bytes_unchanged(tmp_path):
    # The time-first layout is one zlib chunk per frame; this digest was
    # recorded before hyperspectral cubes moved to row bands.
    sig, _ = PicoProbe(RngRegistry(seed=5), operator="bench").acquire_spatiotemporal(
        MovieSpec(n_frames=3, shape=(32, 32), n_particles=2)
    )
    path = tmp_path / "m.emd"
    write_emd(path, sig, compression="zlib")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9aae6c84544a30a38f8eee44824e50a5fe739eba73eb750251c645e64c3231f4"
    )


def test_signal_dim_mismatch_rejected():
    with pytest.raises(FormatError):
        EmdSignal(
            name="x",
            data=np.zeros((2, 2)),
            dims=default_dims((4, 5, 6), "hyperspectral"),
            metadata=make_metadata(),
        )


def test_default_dims_validates_rank():
    with pytest.raises(FormatError):
        default_dims((4, 5), "hyperspectral")
    with pytest.raises(FormatError):
        default_dims((4, 5, 6), "nope")


def test_ambiguous_signal_requires_name(tmp_path):
    # Write two signals by composing writers manually is unsupported via
    # write_emd (one signal per call); simulate missing signal instead.
    sig = make_signal()
    path = tmp_path / "a.emd"
    write_emd(path, sig)
    with read_emd(path) as f:
        with pytest.raises(KeyError):
            f.signal("nope")


def test_metadata_json_roundtrip_standalone():
    md = make_metadata()
    again = AcquisitionMetadata.from_json(md.to_json())
    assert again == md


def test_metadata_missing_field_raises():
    with pytest.raises(FormatError):
        AcquisitionMetadata.from_json("{}")
    with pytest.raises(FormatError):
        AcquisitionMetadata.from_json("not json")


def _payload(**fields):
    doc = {
        "acquisition_id": "acq-0001",
        "acquired_at": 12.5,
        "signal_type": "hyperspectral",
        "shape": [4, 5, 6],
    }
    doc.update(fields)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '"x"',
        _payload(microscope=[]),
        _payload(acquired_at="x"),
        _payload(acquired_at=None),
        _payload(shape=5),
        _payload(microscope={"stage": {"bogus": 1}}),
        _payload(microscope={"detectors": [{"name": "XPAD"}]}),
        _payload(shape="abc"),
        _payload(shape=[-1, 2.5]),
        _payload(extra=[1]),
    ],
    ids=[
        "array", "string", "microscope-array", "acquired-at-text",
        "acquired-at-null", "shape-int", "stage-unknown-field",
        "detector-without-kind", "shape-string", "shape-negative-float",
        "extra-array",
    ],
)
def test_malformed_metadata_raises_format_error(text):
    with pytest.raises(FormatError, match="invalid metadata"):
        AcquisitionMetadata.from_json(text)


def test_damaged_metadata_payload_fails_at_read(tmp_path):
    path = tmp_path / "d.emd"
    write_emd(path, make_signal())
    raw = path.read_bytes()
    assert raw.count(b'"shape": [4, 5, 6]') == 1
    path.write_bytes(raw.replace(b'"shape": [4, 5, 6]', b'"shape": "4, 5, 6"'))
    with EmdFile(path) as f:
        with pytest.raises(FormatError, match="invalid metadata"):
            f.metadata()


def test_minimal_metadata_payload_parses():
    md = AcquisitionMetadata.from_json(_payload())
    assert md.shape == (4, 5, 6)
    assert md.extra == {} and md.microscope == MicroscopeState()


def test_estimate_emd_size_matches_payload():
    # 600 x 500 x 500 float64 ≈ 1.2 GB — the paper's spatiotemporal file.
    est = estimate_emd_size((600, 500, 500), np.float64)
    assert est == pytest.approx(1.2e9, rel=0.01)
    # 256*256*680 float64 ≈ 356 MB; the hyperspectral 91 MB file uses f4.
    est2 = estimate_emd_size((256, 256, 680), np.float32)
    assert est2 == pytest.approx(178e6, rel=0.01)


def test_iso_timestamps_are_ordered():
    a = iso_from_campaign_seconds(0.0)
    b = iso_from_campaign_seconds(3600.0)
    assert a < b
    assert b.startswith("2023-06-01T01")
