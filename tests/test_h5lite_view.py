"""`Dataset.view` — zero-copy slice-on-demand reads.

Covers equality with full reads over every layout/compression combo,
chunk-boundary edge cases (partial trailing chunks, negative and
strided slices, whole-chunk hops), the zero-copy guarantees of the
mmap-backed paths, and the I/O-accounting regression that a band read
touches only that band's chunks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.emd.h5lite import H5LiteFile, H5LiteWriter

KEYS = [
    (slice(None),),
    (slice(2, 9),),
    (slice(None, None, 3), slice(1, None, 2), slice(None, None, -1)),
    (slice(None, None, -2),),
    (5, slice(3, 14, 4), slice(None, None, -3)),
    (slice(12, 2, -3), 4, slice(0, 11)),
    (-1, -2, -3),
    (slice(8, 8),),  # empty
    (slice(None, None, -1), slice(None, None, -1), slice(None, None, -1)),
    (slice(1, 2), slice(2, 4), slice(3, 8)),  # inside one chunk
    (slice(0, 13, 7),),  # step hops whole chunks
    (slice(11, None, -5), slice(16, 0, -4), slice(10, 1, -2)),
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
            got = ds.view(key)
            exp = data[key]
            assert got.shape == exp.shape, key
            assert np.array_equal(got, exp), key
        assert np.array_equal(ds.view(), data)
        assert np.array_equal(ds.view(3), data[3])


def test_view_equals_full_read(cube_file):
    path, data = cube_file
    with H5LiteFile(path) as f:
        for name in ("contig", "contig_z", "chunk", "chunk_z"):
            assert np.array_equal(f[name].view(), f[name].read())


def test_view_errors(cube_file):
    path, _ = cube_file
    with H5LiteFile(path) as f:
        ds = f["chunk"]
        with pytest.raises(IndexError):
            ds.view((0, 0, 0, 0))
        with pytest.raises(IndexError):
            ds.view(13)
        with pytest.raises(IndexError):
            ds.view(-14)
        with pytest.raises(IndexError):
            ds.view("bad")
        with pytest.raises(IndexError):
            ds.view(slice(None, None, 0))


def test_getitem_api_unchanged(cube_file):
    # The pinned __getitem__ contract: steps stay rejected there; the
    # new capability lives in view() only.
    path, data = cube_file
    with H5LiteFile(path) as f:
        with pytest.raises(IndexError):
            f["chunk"][::2]
        assert np.array_equal(f["chunk"][2:7, 1:9], data[2:7, 1:9])


def test_view_zero_copy_contiguous(cube_file):
    path, data = cube_file
    with H5LiteFile(path) as f:
        v = f["contig"].view((slice(2, 5),))
        # A real view: read-only, rooted in a non-ndarray buffer (the
        # mmap), not a fresh allocation.
        assert not v.flags.writeable
        assert v.base is not None
        assert np.array_equal(v, data[2:5])


def test_view_zero_copy_single_chunk(cube_file):
    path, data = cube_file
    with H5LiteFile(path) as f:
        v = f["chunk"].view((slice(1, 2), slice(2, 4), slice(3, 8)))
        assert not v.flags.writeable
        assert np.array_equal(v, data[1:2, 2:4, 3:8])
        # Crossing a chunk boundary or decompressing forces a copy.
        assert f["chunk"].view((slice(3, 6),)).flags.writeable
        assert f["chunk_z"].view((slice(1, 2), slice(2, 4), slice(3, 8))).flags.writeable


def test_view_valid_after_close(cube_file):
    # mmap-backed views outlive the file handle (the mapping survives
    # fd close; close() defers teardown while views pin the buffer).
    path, data = cube_file
    f = H5LiteFile(path)
    v = f["contig"].view((slice(0, 4),))
    f.close()
    assert np.array_equal(v, data[:4])


def test_band_read_touches_only_band_chunks(cube_file):
    # Regression: a chunk-aligned band view must decode exactly the
    # chunks under the band — grid is (4, 4, 1), so one time-band of 4
    # rows (one time-chunk) crosses 1*4*1 = 4 chunks.
    path, data = cube_file
    with H5LiteFile(path) as f:
        ds = f["chunk"]
        before = dict(f.read_stats)
        band = ds.view((slice(4, 8),))
        assert np.array_equal(band, data[4:8])
        assert f.read_stats["block_reads"] - before["block_reads"] == 4

        # A whole-chunk hop (step 7 over chunk height 4) reads only the
        # two chunks actually containing selected rows.
        before = dict(f.read_stats)
        ds.view((slice(0, 13, 7), slice(0, 1), slice(0, 1)))
        assert f.read_stats["block_reads"] - before["block_reads"] == 2

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
        for key in [
            slice(None, None, -4), slice(99, None, -1), 100, slice(3, 98, 13),
            slice(0, 0), slice(100, 101),
        ]:
            assert np.array_equal(f["a1"].view(key), a1[key]), key
        for key in [
            (slice(None, None, -1),),
            (slice(3, 60, 7), slice(50, 3, -5)),
            (17,),
            (slice(0, 0), slice(None)),
            (slice(15, 17), slice(31, 33)),  # straddles chunk corners
        ]:
            assert np.array_equal(f["a2"].view(key), a2[key]), key
            assert np.array_equal(f["a2z"].view(key), a2[key]), key
        assert f["a2"].view((17,)).dtype == np.int32


def test_view_preserves_dtype_and_order(tmp_path):
    data = np.arange(5 * 6, dtype=np.uint16).reshape(5, 6)
    path = tmp_path / "dtype.h5l"
    with H5LiteWriter(path) as w:
        w.create_dataset("/d", data=data, chunks=(2, 3))
    with H5LiteFile(path) as f:
        v = f["d"].view((slice(None, None, -1), slice(None, None, -2)))
        assert v.dtype == np.uint16
        assert np.array_equal(v, data[::-1, ::-2])


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
    ] + [(f"view{i}", lambda ds, key=key: ds.view(key)) for i, key in enumerate(KEYS)]
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
