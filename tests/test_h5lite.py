"""Unit and property tests for the h5lite container format."""

from __future__ import annotations

import json
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.emd import H5LiteFile, H5LiteWriter
from repro.errors import FormatError


def roundtrip(tmp_path, build):
    path = tmp_path / "t.h5l"
    with H5LiteWriter(path) as w:
        build(w)
    return H5LiteFile(path)


def test_empty_file_roundtrip(tmp_path):
    f = roundtrip(tmp_path, lambda w: None)
    assert f.root.keys() == []
    f.close()


def test_root_attrs(tmp_path):
    def build(w):
        r = w.require_group("/")
        r.attrs["version_major"] = 0
        r.attrs["title"] = "hello"
        r.attrs["ratio"] = 2.5
        r.attrs["flag"] = True
        r.attrs["nothing"] = None

    f = roundtrip(tmp_path, build)
    assert f.attrs["version_major"] == 0
    assert f.attrs["title"] == "hello"
    assert f.attrs["ratio"] == 2.5
    assert f.attrs["flag"] is True
    assert f.attrs["nothing"] is None
    f.close()


def test_attr_types_preserved(tmp_path):
    """ints stay ints, floats stay floats, bools stay bools."""

    def build(w):
        g = w.require_group("g")
        g.attrs["i"] = 3
        g.attrs["f"] = 3.0
        g.attrs["b"] = False

    f = roundtrip(tmp_path, build)
    g = f["g"]
    assert type(g.attrs["i"]) is int
    assert type(g.attrs["f"]) is float
    assert type(g.attrs["b"]) is bool
    f.close()


def test_array_attrs(tmp_path):
    def build(w):
        g = w.require_group("g")
        g.attrs["ints"] = [1, 2, 3]
        g.attrs["floats"] = np.array([[1.5, 2.5]])
        g.attrs["strs"] = ["a", "b"]

    f = roundtrip(tmp_path, build)
    g = f["g"]
    np.testing.assert_array_equal(g.attrs["ints"], [1, 2, 3])
    np.testing.assert_array_equal(g.attrs["floats"], [[1.5, 2.5]])
    assert list(g.attrs["strs"]) == ["a", "b"]
    f.close()


def test_nested_groups(tmp_path):
    f = roundtrip(tmp_path, lambda w: w.require_group("a/b/c"))
    assert f["a"].groups() == ["b"]
    assert f["a/b"].groups() == ["c"]
    assert f["a/b/c"].keys() == []
    f.close()


def test_contiguous_dataset_roundtrip(tmp_path):
    arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    f = roundtrip(tmp_path, lambda w: w.create_dataset("d", arr))
    ds = f["d"]
    assert ds.shape == (2, 3, 4)
    assert ds.dtype == np.float64
    np.testing.assert_array_equal(ds.read(), arr)
    f.close()


def test_compressed_dataset_roundtrip(tmp_path):
    arr = np.zeros((100, 100), dtype=np.int32)
    arr[10:20, 10:20] = 7
    f = roundtrip(tmp_path, lambda w: w.create_dataset("d", arr, compression="zlib"))
    np.testing.assert_array_equal(f["d"].read(), arr)
    f.close()


def test_compression_actually_shrinks(tmp_path):
    arr = np.zeros((512, 512), dtype=np.float64)
    p1 = tmp_path / "raw.h5l"
    p2 = tmp_path / "z.h5l"
    with H5LiteWriter(p1) as w:
        w.create_dataset("d", arr)
    with H5LiteWriter(p2) as w:
        w.create_dataset("d", arr, compression="zlib")
    assert p2.stat().st_size < p1.stat().st_size / 10


def test_chunked_full_read(tmp_path):
    arr = np.arange(5 * 6 * 7, dtype=np.float32).reshape(5, 6, 7)
    f = roundtrip(
        tmp_path, lambda w: w.create_dataset("d", arr, chunks=(2, 3, 4))
    )
    np.testing.assert_array_equal(f["d"].read(), arr)
    f.close()


def test_chunked_partial_read_single_frame(tmp_path):
    movie = np.random.default_rng(0).random((10, 16, 16))
    f = roundtrip(
        tmp_path, lambda w: w.create_dataset("m", movie, chunks=(1, 16, 16))
    )
    ds = f["m"]
    np.testing.assert_array_equal(ds[3], movie[3])
    np.testing.assert_array_equal(ds[9], movie[9])
    np.testing.assert_array_equal(ds[-1], movie[-1])
    f.close()


def test_chunked_partial_read_slices(tmp_path):
    arr = np.random.default_rng(1).random((9, 9))
    f = roundtrip(tmp_path, lambda w: w.create_dataset("d", arr, chunks=(4, 4)))
    ds = f["d"]
    np.testing.assert_array_equal(ds[2:7, 3:9], arr[2:7, 3:9])
    np.testing.assert_array_equal(ds[:, 5], arr[:, 5])
    np.testing.assert_array_equal(ds[0:0], arr[0:0])
    f.close()


def test_chunked_compressed_partial_read(tmp_path):
    arr = np.random.default_rng(2).random((6, 8, 8))
    f = roundtrip(
        tmp_path,
        lambda w: w.create_dataset("d", arr, chunks=(2, 8, 8), compression="zlib"),
    )
    np.testing.assert_array_equal(f["d"][1:5], arr[1:5])
    f.close()


def test_index_errors(tmp_path):
    arr = np.zeros((4, 4))
    f = roundtrip(tmp_path, lambda w: w.create_dataset("d", arr, chunks=(2, 2)))
    ds = f["d"]
    with pytest.raises(IndexError):
        ds[10]
    with pytest.raises(IndexError):
        ds[-5]
    with pytest.raises(IndexError):
        ds[0, 0, 0]
    with pytest.raises(IndexError):
        ds[::2]
    with pytest.raises(IndexError):
        ds["bad"]
    f.close()


def test_duplicate_path_rejected(tmp_path):
    path = tmp_path / "t.h5l"
    with H5LiteWriter(path) as w:
        w.create_dataset("d", np.zeros(3))
        with pytest.raises(FormatError, match="already exists"):
            w.create_dataset("d", np.zeros(3))


def test_group_dataset_collision_rejected(tmp_path):
    path = tmp_path / "t.h5l"
    with H5LiteWriter(path) as w:
        w.create_dataset("x", np.zeros(3))
        with pytest.raises(FormatError):
            w.require_group("x/y")


def test_write_after_close_rejected(tmp_path):
    path = tmp_path / "t.h5l"
    w = H5LiteWriter(path)
    w.close()
    with pytest.raises(FormatError, match="closed"):
        w.create_dataset("d", np.zeros(3))
    w.close()  # idempotent


def test_unsupported_dtype_rejected(tmp_path):
    path = tmp_path / "t.h5l"
    with H5LiteWriter(path) as w:
        with pytest.raises(FormatError, match="dtype"):
            w.create_dataset("d", np.array(["a", "b"]))


def test_missing_path_keyerror(tmp_path):
    f = roundtrip(tmp_path, lambda w: w.require_group("a"))
    with pytest.raises(KeyError):
        f["a/missing"]
    assert "a" in f
    assert "zzz" not in f
    f.close()


def test_walk_enumerates_everything(tmp_path):
    def build(w):
        w.require_group("g1/g2")
        w.create_dataset("g1/d1", np.zeros(2))
        w.create_dataset("top", np.zeros(2))

    f = roundtrip(tmp_path, build)
    paths = [p for p, _ in f.walk()]
    assert paths == ["/g1", "/g1/g2", "/g1/d1", "/top"]
    f.close()


def test_truncated_file_detected(tmp_path):
    path = tmp_path / "t.h5l"
    with H5LiteWriter(path) as w:
        w.create_dataset("d", np.arange(1000.0))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(FormatError):
        H5LiteFile(path)


def test_not_h5lite_detected(tmp_path):
    path = tmp_path / "t.h5l"
    path.write_bytes(b"PK\x03\x04" + b"\x00" * 100)
    with pytest.raises(FormatError, match="magic"):
        H5LiteFile(path)


def test_corrupt_footer_detected(tmp_path):
    path = tmp_path / "t.h5l"
    with H5LiteWriter(path) as w:
        w.create_dataset("d", np.arange(10.0))
    data = bytearray(path.read_bytes())
    # Flip bytes inside the footer region (just before the 24-byte tail).
    for i in range(len(data) - 40, len(data) - 30):
        data[i] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        H5LiteFile(path)


def test_scalar_dataset(tmp_path):
    f = roundtrip(tmp_path, lambda w: w.create_dataset("s", np.float64(3.5)))
    ds = f["s"]
    assert ds.shape == ()
    assert ds.read() == 3.5
    f.close()


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

_dtypes = st.sampled_from([np.uint8, np.int32, np.int64, np.float32, np.float64])


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    dtype=_dtypes,
    compression=st.sampled_from([None, "zlib"]),
)
def test_roundtrip_property(tmp_path_factory, data, dtype, compression):
    """Any array round-trips bit-exactly through the container."""
    shape = data.draw(
        st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3)
    )
    arr = data.draw(
        hnp.arrays(
            dtype=dtype,
            shape=tuple(shape),
            elements=hnp.from_dtype(np.dtype(dtype), allow_nan=False, allow_infinity=False),
        )
    )
    tmp = tmp_path_factory.mktemp("h5l") / "p.h5l"
    with H5LiteWriter(tmp) as w:
        w.create_dataset("d", arr, compression=compression)
    with H5LiteFile(tmp) as f:
        got = f["d"].read()
    np.testing.assert_array_equal(got, arr)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), compression=st.sampled_from([None, "zlib"]))
def test_chunked_slice_matches_numpy(tmp_path_factory, data, compression):
    """Property: any basic slice of a chunked dataset equals the same
    slice of the in-memory array, and reads exactly the chunks it
    intersects."""
    shape = tuple(
        data.draw(st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=3))
    )
    chunks = tuple(data.draw(st.integers(min_value=1, max_value=s)) for s in shape)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    arr = rng.integers(0, 1000, size=shape).astype(np.int64)

    sel, spans = [], []
    for s in shape:
        if data.draw(st.booleans()):
            i = data.draw(st.integers(min_value=-s, max_value=s - 1))
            sel.append(i)
            spans.append((i % s, i % s + 1))
        else:
            a = data.draw(st.integers(min_value=0, max_value=s))
            b = data.draw(st.integers(min_value=a, max_value=s))
            sel.append(slice(a, b))
            spans.append((a, b))
    sel = tuple(sel)
    # Per axis, the chunk-index range the selection crosses.
    intersected = math.prod(
        (b - 1) // c - a // c + 1 if b > a else 0 for (a, b), c in zip(spans, chunks)
    )

    tmp = tmp_path_factory.mktemp("h5l") / "p.h5l"
    with H5LiteWriter(tmp) as w:
        w.create_dataset("d", arr, chunks=chunks, compression=compression)
    with H5LiteFile(tmp) as f:
        before = f.read_stats["block_reads"]
        got = f["d"][sel]
        assert f.read_stats["block_reads"] - before == intersected
    np.testing.assert_array_equal(got, arr[sel])


# ---------------------------------------------------------------------------
# Block codec: stored bytes and corrupt blocks
# ---------------------------------------------------------------------------


def _blocks(path, name):
    with H5LiteFile(path) as f:
        return [tuple(e) for e in f[name]._blocks]


@pytest.mark.parametrize("n_workers", [1, 2])
def test_stored_payloads_are_the_blocks_raw_or_zlib_level_4(tmp_path, monkeypatch, n_workers):
    from repro import parallel

    monkeypatch.setattr(parallel, "workers", lambda: n_workers)
    rng = np.random.default_rng(4)
    cube = rng.normal(size=(5, 6, 7))
    fortran = np.asfortranarray(rng.integers(0, 9, size=(6, 4)).astype(np.int16))
    cases = {
        "contig": (cube, None, None),
        "contig_z": (cube, None, "zlib"),
        "chunk": (cube, (2, 4, 7), None),
        "chunk_z": (cube, (2, 4, 7), "zlib"),
        "fortran_z": (fortran, (4, 3), "zlib"),
        "scalar_z": (np.float64(3.5), None, "zlib"),
    }
    path = tmp_path / "t.h5l"
    with H5LiteWriter(path) as w:
        for name, (arr, chunks, comp) in cases.items():
            w.create_dataset(name, arr, chunks=chunks, compression=comp)
    stored = path.read_bytes()
    for name, (arr, chunks, comp) in cases.items():
        arr = np.asarray(arr)
        if chunks is None:
            pieces = [arr]
        else:
            grid = [-(-s // c) for s, c in zip(arr.shape, chunks)]
            pieces = [
                arr[tuple(slice(i * c, (i + 1) * c) for i, c in zip(idx, chunks))]
                for idx in np.ndindex(*grid)
            ]
        entries = _blocks(path, name)
        assert len(entries) == len(pieces), name
        for (offset, nbytes, raw_nbytes), piece in zip(entries, pieces):
            raw = np.ascontiguousarray(piece).tobytes()
            expected = zlib.compress(raw, 4) if comp == "zlib" else raw
            assert stored[offset : offset + nbytes] == expected, name
            assert raw_nbytes == len(raw), name


def _flip(path, offset, nbytes):
    data = bytearray(path.read_bytes())
    for i in range(offset + nbytes // 3, offset + nbytes // 3 + 8):
        data[i] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("chunks", [None, (1, 16, 16)])
def test_corrupt_zlib_block_is_a_format_error(tmp_path, monkeypatch, chunks, n_workers):
    from repro import parallel

    monkeypatch.setattr(parallel, "workers", lambda: n_workers)
    movie = np.random.default_rng(5).random((6, 16, 16))
    path = tmp_path / "t.h5l"
    with H5LiteWriter(path) as w:
        w.create_dataset("g/d", movie, chunks=chunks, compression="zlib")
    entries = _blocks(path, "g/d")
    offset, nbytes, _ = entries[2 if chunks else 0]  # frame 2's chunk
    _flip(path, offset, nbytes)
    readers = {
        "read": lambda ds: ds.read(),
        "getitem": lambda ds: ds[1:5],
    }
    for label, read in readers.items():
        with H5LiteFile(path) as f:
            with pytest.raises(FormatError, match=f"/g/d: corrupt zlib block at offset {offset}") as info:
                read(f["g/d"])
            assert isinstance(info.value.__cause__, zlib.error), label
            if chunks:
                # Frames outside the corrupt chunk still read.
                np.testing.assert_array_equal(f["g/d"][3:6], movie[3:6])


def _rewrite_footer(path, name, field, edit):
    """Replace ``field`` of dataset ``name``'s footer descriptor with
    ``edit(old_value, footer_offset)``."""
    data = path.read_bytes()
    offset = int.from_bytes(data[-24:-16], "little")
    length = int.from_bytes(data[-16:-8], "little")
    doc = json.loads(zlib.decompress(data[offset : offset + length]))
    desc = doc["root"]["groups"]["g"]["datasets"][name]
    desc[field] = edit(desc[field], offset)
    footer = zlib.compress(json.dumps(doc).encode("utf-8"))
    tail = offset.to_bytes(8, "little") + len(footer).to_bytes(8, "little") + data[-8:]
    path.write_bytes(data[:offset] + footer + tail)


# (dataset, descriptor field, edit(old value, footer offset), message fragment)
MALFORMED_FOOTERS = {
    "chunk_block_missing": ("chunked", "blocks", lambda old, end: old[:-1], "blocks"),
    "shape_past_block": ("contig", "shape", lambda old, end: [old[0] + 1, *old[1:]], "raw bytes"),
    "chunks_of_wrong_rank": ("chunked", "chunks", lambda old, end: old[1:], "chunks"),
    "zero_chunk_extent": ("chunked", "chunks", lambda old, end: [0, *old[1:]], "chunks"),
    "unknown_dtype": ("chunked", "dtype", lambda old, end: "<x9", "dtype"),
    "unknown_compression": ("chunked", "compression", lambda old, end: "lz4", "compression"),
    "negative_block_offset": (
        "chunked", "blocks", lambda old, end: [[-16, *old[0][1:]], *old[1:]], "block entry"
    ),
    "block_past_footer": (
        "chunked", "blocks", lambda old, end: [*old[:-1], [end, *old[-1][1:]]], "outside"
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED_FOOTERS))
def test_malformed_footer_is_a_format_error(tmp_path, case):
    name, field, edit, fragment = MALFORMED_FOOTERS[case]
    movie = np.random.default_rng(6).random((6, 16, 16))
    path = tmp_path / "t.h5l"
    with H5LiteWriter(path) as w:
        w.create_dataset("g/chunked", movie, chunks=(1, 16, 16), compression="zlib")
        w.create_dataset("g/contig", movie, compression="zlib")
    _rewrite_footer(path, name, field, edit)
    with pytest.raises(FormatError, match=f"^/g/{name}: malformed descriptor: .*{fragment}"):
        with H5LiteFile(path) as f:
            f[f"g/{name}"].read()
