"""Partial reads through `Dataset.__getitem__`.

Covers equality with numpy indexing over every layout/compression
combo, chunk-boundary edge cases (partial trailing chunks, negative
ints, empty selections, 1-D and 2-D datasets), the I/O-accounting
regression that a band read touches only that band's chunks, and the
worker pool: parallel reads and writes equal serial ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.emd.h5lite import H5LiteFile, H5LiteWriter

KEYS = [
    (slice(None),),
    (slice(2, 9),),
    (-1, -2, -3),
    (slice(8, 8),),  # empty
    (slice(1, 2), slice(2, 4), slice(3, 8)),  # inside one chunk
]


@pytest.fixture(scope="module")
def cube_file(tmp_path_factory):
    # (13, 17, 11) with chunk (4, 5, 11): partial chunks on the first
    # two axes exercise trailing-extent arithmetic.
    rng = np.random.default_rng(0)
    data = rng.normal(size=(13, 17, 11))
    path = tmp_path_factory.mktemp("h5view") / "cube.h5l"
    with H5LiteWriter(path) as w:
        w.create_dataset("/contig", data=data)
        w.create_dataset("/contig_z", data=data, compression="zlib")
        w.create_dataset("/chunk", data=data, chunks=(4, 5, 11))
        w.create_dataset("/chunk_z", data=data, chunks=(4, 5, 11), compression="zlib")
    return path, data


@pytest.mark.parametrize(
    "name", ["contig", "contig_z", "chunk", "chunk_z"]
)
def test_view_equals_numpy_indexing(cube_file, name):
    path, data = cube_file
    with H5LiteFile(path) as f:
        ds = f[name]
        for key in KEYS:
            got = ds[key]
            exp = data[key]
            assert got.shape == exp.shape, key
            assert np.array_equal(got, exp), key
        assert np.array_equal(ds.read(), data)
        assert np.array_equal(ds[3], data[3])


def test_getitem_api_unchanged(cube_file):
    # The pinned __getitem__ contract: steps stay rejected.
    path, data = cube_file
    with H5LiteFile(path) as f:
        with pytest.raises(IndexError):
            f["chunk"][::2]
        assert np.array_equal(f["chunk"][2:7, 1:9], data[2:7, 1:9])


def test_band_read_touches_only_band_chunks(cube_file):
    # Regression: a chunk-aligned band read must decode exactly the
    # chunks under the band — grid is (4, 4, 1), so one time-band of 4
    # rows (one time-chunk) crosses 1*4*1 = 4 chunks.
    path, data = cube_file
    with H5LiteFile(path) as f:
        ds = f["chunk"]
        before = dict(f.read_stats)
        band = ds[4:8]
        assert np.array_equal(band, data[4:8])
        assert f.read_stats["block_reads"] - before["block_reads"] == 4

        # Full read for scale: all 16 chunks.
        before = dict(f.read_stats)
        ds.read()
        assert f.read_stats["block_reads"] - before["block_reads"] == 16


def test_view_1d_and_2d_edges(tmp_path):
    rng = np.random.default_rng(1)
    a1 = rng.normal(size=(101,))
    a2 = (rng.random((64, 64)) * 1000).astype(np.int32)
    path = tmp_path / "edges.h5l"
    with H5LiteWriter(path) as w:
        w.create_dataset("/a1", data=a1, chunks=(7,))
        w.create_dataset("/a2", data=a2, chunks=(16, 16))
        w.create_dataset("/a2z", data=a2, chunks=(16, 16), compression="zlib")
    with H5LiteFile(path) as f:
        for key in [100, slice(0, 0), slice(100, 101)]:
            assert np.array_equal(f["a1"][key], a1[key]), key
        for key in [
            (17,),
            (slice(0, 0), slice(None)),
            (slice(15, 17), slice(31, 33)),  # straddles chunk corners
        ]:
            assert np.array_equal(f["a2"][key], a2[key]), key
            assert np.array_equal(f["a2z"][key], a2[key]), key
        assert f["a2"][17].dtype == np.int32


# -- the worker pool: parallel == serial --------------------------------------


def _write_cube(path, data, chunks):
    with H5LiteWriter(path) as w:
        w.create_dataset("/chunk_z", data=data, chunks=chunks, compression="zlib")
        w.create_dataset("/frames_z", data=data, chunks=(1,) + data.shape[1:], compression="zlib")


@pytest.mark.parametrize("chunks", [(4, 5, 11), (3, 17, 4)])
def test_pool_decode_and_encode_equal_serial(tmp_path, monkeypatch, chunks):
    from repro import parallel

    rng = np.random.default_rng(3)
    data = rng.normal(size=(13, 17, 11))
    reads = [
        ("read", lambda ds: ds.read()),
        ("getitem", lambda ds: ds[2:11, 1:16]),
        ("getitem_int", lambda ds: ds[5]),
        ("getitem_cols", lambda ds: ds[:, 3:9, 7]),
    ] + [(f"key{i}", lambda ds, key=key: ds[key]) for i, key in enumerate(KEYS)]
    files, results = {}, {}
    for n in (1, 2):
        monkeypatch.setattr(parallel, "workers", lambda n=n: n)
        path = tmp_path / f"w{n}.h5l"
        _write_cube(path, data, chunks)
        files[n] = path.read_bytes()
        with H5LiteFile(path) as f:
            for name in ("chunk_z", "frames_z"):
                for label, read in reads:
                    before = dict(f.read_stats)
                    got = read(f[name])
                    delta = {k: f.read_stats[k] - before[k] for k in before}
                    results[n, name, label] = (got, delta)
    assert files[1] == files[2]
    assert np.array_equal(results[2, "chunk_z", "read"][0], data)
    for (n, name, label), (got, delta) in results.items():
        if n == 2:
            ref, ref_delta = results[1, name, label]
            assert got.dtype == ref.dtype and np.array_equal(got, ref), (name, label)
            assert delta == ref_delta, (name, label)
    # The step-1 slices read exactly the chunks under them.
    assert results[1, "frames_z", "getitem"][1]["block_reads"] == 9
    assert results[1, "frames_z", "getitem_int"][1]["block_reads"] == 1
