"""h5lite — a from-scratch hierarchical scientific container format.

The paper stores microscopy data in EMD, a subset of HDF5.  HDF5 itself is
unavailable here, so this module implements the features EMD actually
exercises, in a compact single-file binary format:

* a tree of **groups**, each carrying typed **attributes**;
* n-dimensional **datasets** (NumPy arrays) stored contiguously or in
  **chunks**, optionally zlib-compressed per block;
* **lazy partial reads**: opening a file reads only the footer; slicing a
  chunked dataset touches only the intersecting chunks;
* **frame-parallel zlib**: the chunks of a compressed dataset are
  compressed and decompressed on the worker pool (:mod:`repro.parallel`),
  while file offsets, reads and I/O accounting stay on the calling
  thread, in chunk order — the file bytes are the serial writer's.

On-disk layout::

    [ 8 B magic ][ payload blocks … ][ zlib(footer JSON) ]
    [ 8 B footer offset ][ 8 B footer length ][ 8 B tail magic ]

The footer is a JSON document describing the tree; every dataset
descriptor records the byte extent of each of its blocks, which is what
makes partial reads possible without a global index structure.  The
reader checks every descriptor when it loads the footer, before any
block is read.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import zlib
from typing import Any, Iterator, Optional, Sequence, Union

import numpy as np

from ..errors import FormatError
from ..parallel import imap_ordered

__all__ = ["H5LiteWriter", "H5LiteFile", "Dataset", "Group", "Attributes"]

MAGIC = b"H5LITE\x01\n"
TAIL_MAGIC = b"ETILH5\x01\n"
FORMAT_VERSION = 1

_SCALAR_TAGS = {"i": int, "f": float, "s": str, "b": bool, "n": type(None)}


def _encode_attr(value: Any) -> dict:
    """Encode an attribute value with an explicit type tag so reads
    round-trip exactly (JSON alone would conflate ints/floats/arrays)."""
    if isinstance(value, bool):  # before int: bool is an int subclass
        return {"t": "b", "v": value}
    if isinstance(value, (int, np.integer)):
        return {"t": "i", "v": int(value)}
    if isinstance(value, (float, np.floating)):
        return {"t": "f", "v": float(value)}
    if isinstance(value, str):
        return {"t": "s", "v": value}
    if value is None:
        return {"t": "n", "v": None}
    if isinstance(value, (list, tuple, np.ndarray)):
        arr = np.asarray(value)
        if arr.dtype.kind in "iu":
            return {"t": "ai", "v": arr.ravel().tolist(), "shape": list(arr.shape)}
        if arr.dtype.kind == "f":
            return {"t": "af", "v": arr.ravel().tolist(), "shape": list(arr.shape)}
        if arr.dtype.kind in "US":
            return {"t": "as", "v": [str(x) for x in arr.ravel()], "shape": list(arr.shape)}
        raise FormatError(f"unsupported attribute array dtype: {arr.dtype}")
    raise FormatError(f"unsupported attribute type: {type(value).__name__}")


def _decode_attr(doc: dict) -> Any:
    tag = doc.get("t")
    if tag in _SCALAR_TAGS:
        return doc["v"]
    if tag == "ai":
        return np.asarray(doc["v"], dtype=np.int64).reshape(doc["shape"])
    if tag == "af":
        return np.asarray(doc["v"], dtype=np.float64).reshape(doc["shape"])
    if tag == "as":
        return np.asarray(doc["v"], dtype=object).reshape(doc["shape"])
    raise FormatError(f"unknown attribute tag: {tag!r}")


class Attributes:
    """Mutable, dict-like attribute set attached to a group or dataset."""

    def __init__(self, store: Optional[dict] = None) -> None:
        self._store: dict[str, dict] = store if store is not None else {}

    def __setitem__(self, key: str, value: Any) -> None:
        if not isinstance(key, str) or not key:
            raise FormatError(f"attribute name must be a non-empty str, got {key!r}")
        self._store[key] = _encode_attr(value)

    def __getitem__(self, key: str) -> Any:
        try:
            return _decode_attr(self._store[key])
        except KeyError:
            raise KeyError(key) from None

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def __delitem__(self, key: str) -> None:
        del self._store[key]

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[str]:
        return iter(self._store)

    def keys(self):
        return self._store.keys()

    def items(self) -> Iterator[tuple[str, Any]]:
        for k in self._store:
            yield k, self[k]

    def get(self, key: str, default: Any = None) -> Any:
        return self[key] if key in self else default

    def to_dict(self) -> dict[str, Any]:
        """Plain-Python snapshot (arrays become lists)."""
        out: dict[str, Any] = {}
        for k, v in self.items():
            out[k] = v.tolist() if isinstance(v, np.ndarray) else v
        return out


def _split_path(path: str) -> list[str]:
    parts = [p for p in path.strip("/").split("/") if p]
    for p in parts:
        if p in (".", ".."):
            raise FormatError(f"illegal path component {p!r} in {path!r}")
    return parts


def _chunk_grid(shape: Sequence[int], chunks: Sequence[int]) -> tuple[int, ...]:
    return tuple(math.ceil(s / c) for s, c in zip(shape, chunks))


def _chunk_extent(
    cidx: Sequence[int], chunks: Sequence[int], shape: Sequence[int]
) -> tuple[int, ...]:
    """Extent of the chunk at grid index ``cidx``; trailing chunks stop at
    the shape."""
    return tuple(min((ci + 1) * c, s) - ci * c for ci, c, s in zip(cidx, chunks, shape))


def _int_list(value: Any, minimum: int) -> bool:
    return isinstance(value, list) and all(type(v) is int and v >= minimum for v in value)


def _check_descriptor(path: str, desc: Any, data_end: int) -> None:
    """Reject a malformed footer descriptor of dataset ``path``.

    The footer is input from outside the program, so everything a read
    relies on is checked before any block is read: a dtype the writer
    accepts, the shape, the layout and its chunk extents, the codec, one
    block per chunk, each block inside ``[len(MAGIC), data_end)`` and
    decoding to its chunk's byte count.
    """

    def fail(why: str) -> FormatError:
        return FormatError(f"{path}: malformed descriptor: {why}")

    if not isinstance(desc, dict):
        raise fail("not an object")
    dtype_str = desc.get("dtype")
    try:
        dtype = np.dtype(dtype_str) if isinstance(dtype_str, str) else None
    except TypeError:
        dtype = None
    if dtype is None or dtype.kind not in "iufb":
        raise fail(f"unsupported dtype {dtype_str!r}")
    shape, layout, chunks = desc.get("shape"), desc.get("layout"), desc.get("chunks")
    if not _int_list(shape, 0):
        raise fail(f"shape {shape!r} is not a list of non-negative ints")
    if layout == "contiguous" and chunks is None:
        chunks, grid = shape, (1,) * len(shape)  # one block spanning the shape
    elif layout == "chunked" and _int_list(chunks, 1) and len(chunks) == len(shape):
        grid = _chunk_grid(shape, chunks)
    else:
        raise fail(f"layout {layout!r} with chunks {chunks!r} for shape {shape}")
    if desc.get("compression") not in (None, "zlib"):
        raise fail(f"unsupported compression {desc.get('compression')!r}")
    blocks = desc.get("blocks")
    if not isinstance(blocks, list) or len(blocks) != math.prod(grid):
        raise fail(f"expected {math.prod(grid)} blocks for the chunk grid {grid}")
    for entry, cidx in zip(blocks, np.ndindex(*grid)):
        if not (_int_list(entry, 0) and len(entry) == 3):
            raise fail(f"block entry {entry!r} is not three non-negative ints")
        offset, nbytes, raw_nbytes = entry
        if offset < len(MAGIC) or offset + nbytes > data_end:
            raise fail(
                f"block [{offset}, {offset + nbytes}) lies outside the payload "
                f"region [{len(MAGIC)}, {data_end})"
            )
        need = math.prod(_chunk_extent(cidx, chunks, shape)) * dtype.itemsize
        if raw_nbytes != need:
            raise fail(f"block at {offset} holds {raw_nbytes} raw bytes, its chunk needs {need}")


# The block codec.  Both functions are pure, so they may run on the
# worker pool (repro.parallel).


def _encode_block(
    raw: np.ndarray, compression: Optional[str]
) -> tuple["bytes | np.ndarray", int]:
    """The stored payload of one C-contiguous block and its raw byte
    count.  zlib and the file write read the array's buffer directly (a
    flat uint8 view, so ``len`` is its byte count): no ``tobytes`` copy."""
    flat = raw.reshape(-1).view(np.uint8)
    return (zlib.compress(flat, 4) if compression == "zlib" else flat), flat.nbytes


def _inflate(path: str, offset: int, payload: bytes) -> bytes:
    """Decode the zlib block stored at ``offset`` of dataset ``path``."""
    try:
        return zlib.decompress(payload)
    except zlib.error as exc:
        raise FormatError(f"{path}: corrupt zlib block at offset {offset}: {exc}") from exc


class _Node:
    """Internal tree node shared by writer and reader."""

    def __init__(self) -> None:
        self.attrs_doc: dict[str, dict] = {}
        self.groups: dict[str, _Node] = {}
        self.datasets: dict[str, dict] = {}

    def to_doc(self) -> dict:
        return {
            "attrs": self.attrs_doc,
            "groups": {k: v.to_doc() for k, v in self.groups.items()},
            "datasets": self.datasets,
        }

    @classmethod
    def from_doc(cls, doc: dict, data_end: int, prefix: str = "") -> "_Node":
        """Rebuild a footer's tree, checking every dataset descriptor
        (payload blocks end before ``data_end``)."""
        node = cls()
        node.attrs_doc = doc.get("attrs", {})
        node.datasets = doc.get("datasets", {})
        for name, desc in node.datasets.items():
            _check_descriptor(f"{prefix}/{name}", desc, data_end)
        for name, sub in doc.get("groups", {}).items():
            node.groups[name] = cls.from_doc(sub, data_end, f"{prefix}/{name}")
        return node


class H5LiteWriter:
    """Streaming writer.  Dataset payloads go to disk as soon as
    :meth:`create_dataset` is called; the footer is written on close.

    Use as a context manager::

        with H5LiteWriter(path) as w:
            g = w.require_group("/data/movie")
            g.attrs["emd_group_type"] = 1
            w.create_dataset("/data/movie/cube", data=arr,
                             chunks=(1, 640, 640), compression="zlib")
    """

    def __init__(self, path: "str | os.PathLike") -> None:
        self.path = os.fspath(path)
        self._fh: Optional[io.BufferedWriter] = open(self.path, "wb")
        self._fh.write(MAGIC)
        self._offset = len(MAGIC)
        self._root = _Node()
        self._closed = False

    # -- tree -------------------------------------------------------------
    def require_group(self, path: str) -> "WriterGroup":
        """Create intermediate groups as needed and return a handle."""
        self._check_open()
        node = self._root
        for part in _split_path(path):
            if part in node.datasets:
                raise FormatError(f"{path!r}: {part!r} is a dataset, not a group")
            node = node.groups.setdefault(part, _Node())
        return WriterGroup(self, node, path)

    def create_dataset(
        self,
        path: str,
        data: np.ndarray,
        chunks: Optional[Sequence[int]] = None,
        compression: Optional[str] = None,
    ) -> None:
        """Write an array under ``path``.

        ``chunks`` enables chunked layout (required for partial reads);
        ``compression`` may be ``"zlib"`` or ``None``.
        """
        self._check_open()
        data = np.asarray(data)
        if data.ndim and not data.flags.c_contiguous:
            data = np.ascontiguousarray(data)
        if data.dtype.kind not in "iufb":
            raise FormatError(f"unsupported dataset dtype: {data.dtype}")
        if compression not in (None, "zlib"):
            raise FormatError(f"unsupported compression: {compression!r}")
        parts = _split_path(path)
        if not parts:
            raise FormatError("dataset path must not be the root")
        name = parts[-1]
        parent = self.require_group("/".join(parts[:-1]))._node if parts[:-1] else self._root
        if name in parent.datasets or name in parent.groups:
            raise FormatError(f"path already exists: {path!r}")

        if chunks is not None:
            chunks = tuple(int(c) for c in chunks)
            if len(chunks) != data.ndim or any(c < 1 for c in chunks):
                raise FormatError(
                    f"chunks {chunks} incompatible with shape {data.shape}"
                )
            blocks = self._write_chunked(data, chunks, compression)
            layout = "chunked"
        else:
            blocks = [self._write_block(*_encode_block(data, compression))]
            layout = "contiguous"

        parent.datasets[name] = {
            "dtype": data.dtype.str,
            "shape": list(data.shape),
            "layout": layout,
            "chunks": list(chunks) if chunks is not None else None,
            "compression": compression if compression else None,
            "blocks": blocks,
        }

    def _write_chunked(
        self, data: np.ndarray, chunks: tuple[int, ...], compression: Optional[str]
    ) -> list:
        def encode(idx: tuple[int, ...]) -> tuple["bytes | np.ndarray", int]:
            sel = tuple(
                slice(i * c, min((i + 1) * c, s))
                for i, c, s in zip(idx, chunks, data.shape)
            )
            return _encode_block(np.ascontiguousarray(data[sel]), compression)

        indices = np.ndindex(*_chunk_grid(data.shape, chunks))
        # zlib runs on the worker pool; the file offsets advance here, in
        # chunk order.
        encoded = imap_ordered(encode, indices) if compression else map(encode, indices)
        return [self._write_block(payload, raw_nbytes) for payload, raw_nbytes in encoded]

    def _write_block(self, payload: "bytes | np.ndarray", raw_nbytes: int) -> list:
        assert self._fh is not None
        self._fh.write(payload)
        entry = [self._offset, len(payload), raw_nbytes]
        self._offset += len(payload)
        return entry

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Write the footer and finalize the file."""
        if self._closed:
            return
        assert self._fh is not None
        footer_doc = {"format_version": FORMAT_VERSION, "root": self._root.to_doc()}
        footer = zlib.compress(json.dumps(footer_doc).encode("utf-8"), 6)
        footer_offset = self._offset
        self._fh.write(footer)
        self._fh.write(footer_offset.to_bytes(8, "little"))
        self._fh.write(len(footer).to_bytes(8, "little"))
        self._fh.write(TAIL_MAGIC)
        self._fh.close()
        self._fh = None
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise FormatError("writer is closed")

    def __enter__(self) -> "H5LiteWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class WriterGroup:
    """Handle onto a group in an open writer (attribute access + nesting)."""

    def __init__(self, writer: H5LiteWriter, node: _Node, path: str) -> None:
        self._writer = writer
        self._node = node
        self._path = path.strip("/")

    @property
    def attrs(self) -> Attributes:
        return Attributes(self._node.attrs_doc)

    def require_group(self, relpath: str) -> "WriterGroup":
        full = f"{self._path}/{relpath}" if self._path else relpath
        return self._writer.require_group(full)

    def create_dataset(self, name: str, data: np.ndarray, **kw: Any) -> None:
        full = f"{self._path}/{name}" if self._path else name
        self._writer.create_dataset(full, data, **kw)


class Dataset:
    """Read-side dataset handle supporting lazy slicing.

    Basic indexing only (ints, negative ones included, and step-1
    slices; a step raises ``IndexError``), which covers how EMD data is
    consumed: whole-cube reads, per-frame reads, and axis subsets.
    """

    def __init__(self, file: "H5LiteFile", path: str, desc: dict) -> None:
        self._file = file
        self.path = path
        self.dtype = np.dtype(desc["dtype"])
        self.shape = tuple(desc["shape"])
        self.layout = desc["layout"]
        self.chunks = tuple(desc["chunks"]) if desc.get("chunks") else None
        self.compression = desc.get("compression")
        self._blocks = desc["blocks"]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of a scalar dataset")
        return self.shape[0]

    # -- reading ------------------------------------------------------------
    def read(self) -> np.ndarray:
        """Materialize the full array."""
        return self[(slice(None),) * len(self.shape)] if self.shape else self._read_scalar()

    def _read_scalar(self) -> np.ndarray:
        raw = self._read_block(self._blocks[0])
        return np.frombuffer(raw, dtype=self.dtype)[0]

    def _read_block(self, entry: Sequence[int]) -> bytes:
        offset, nbytes, _ = entry
        payload = self._file._pread(offset, nbytes)
        if self.compression == "zlib":
            return self._account(entry, _inflate(self.path, offset, payload))
        return self._account(entry, payload)

    def _account(self, entry: Sequence[int], raw: bytes) -> bytes:
        """Check a decoded block's size and count it in ``read_stats``."""
        offset, nbytes, raw_nbytes = entry
        if len(raw) != raw_nbytes:
            raise FormatError(
                f"{self.path}: block at {offset} decoded to {len(raw)} bytes, "
                f"expected {raw_nbytes}"
            )
        stats = self._file.read_stats
        stats["block_reads"] += 1
        stats["payload_bytes"] += nbytes
        stats["raw_bytes"] += raw_nbytes
        return raw

    def __getitem__(self, key: Any) -> np.ndarray:
        sel, squeeze = self._normalize_key(key)
        if self.layout == "contiguous":
            raw = self._read_block(self._blocks[0])
            arr = np.frombuffer(raw, dtype=self.dtype).reshape(self.shape)
            out = arr[sel].copy()
        else:
            out = self._gather(sel)
        if squeeze:
            out = out.reshape(tuple(s for s, sq in zip(out.shape, squeeze) if not sq))
        return out

    def _normalize_key(self, key: Any) -> tuple[tuple[slice, ...], list[bool]]:
        if not isinstance(key, tuple):
            key = (key,)
        if len(key) > len(self.shape):
            raise IndexError(
                f"too many indices for dataset of shape {self.shape}: {key!r}"
            )
        key = key + (slice(None),) * (len(self.shape) - len(key))
        sel: list[slice] = []
        squeeze: list[bool] = []
        for k, dim in zip(key, self.shape):
            if isinstance(k, (int, np.integer)):
                i = int(k)
                if i < 0:
                    i += dim
                if not 0 <= i < dim:
                    raise IndexError(f"index {k} out of range for axis of size {dim}")
                sel.append(slice(i, i + 1))
                squeeze.append(True)
            elif isinstance(k, slice):
                start, stop, step = k.indices(dim)
                if step != 1:
                    raise IndexError("h5lite datasets support step-1 slices only")
                sel.append(slice(start, max(start, stop)))
                squeeze.append(False)
            else:
                raise IndexError(f"unsupported index: {k!r}")
        return tuple(sel), squeeze

    def _chunk(self, cidx: Sequence[int]) -> tuple[Sequence[int], tuple[int, ...]]:
        """Block entry and extent of the chunk at grid index ``cidx``."""
        assert self.chunks is not None
        flat = 0
        for ci, g in zip(cidx, _chunk_grid(self.shape, self.chunks)):
            flat = flat * g + ci
        return self._blocks[flat], _chunk_extent(cidx, self.chunks, self.shape)

    def _gather(self, sel: Sequence[slice]) -> np.ndarray:
        """Copy the step-1 hyperslab ``sel`` of a chunked dataset into a
        fresh array.

        Only the chunks the selection intersects are read, in row-major
        chunk order.  zlib runs on the worker pool; the reads, the size
        checks, ``read_stats`` and the scatter into the result stay on
        this thread, in chunk order.
        """
        assert self.chunks is not None
        out = np.empty(tuple(s.stop - s.start for s in sel), dtype=self.dtype)
        if out.size == 0:
            return out
        cidxs = list(
            itertools.product(
                *(range(s.start // c, (s.stop - 1) // c + 1) for s, c in zip(sel, self.chunks))
            )
        )
        blocks = [self._chunk(cidx) for cidx in cidxs]
        payloads = (
            (offset, self._file._pread(offset, nbytes)) for (offset, nbytes, _), _ in blocks
        )
        if self.compression == "zlib":
            raws = imap_ordered(lambda p: _inflate(self.path, *p), payloads)
        else:
            raws = (payload for _, payload in payloads)
        for cidx, (entry, extent), raw in zip(cidxs, blocks, raws):
            chunk = np.frombuffer(self._account(entry, raw), dtype=self.dtype).reshape(extent)
            src, dst = [], []
            for s, ci, c in zip(sel, cidx, self.chunks):
                lo, hi = max(s.start, ci * c), min(s.stop, ci * c + c)
                src.append(slice(lo - ci * c, hi - ci * c))
                dst.append(slice(lo - s.start, hi - s.start))
            out[tuple(dst)] = chunk[tuple(src)]
        return out


class Group:
    """Read-side group handle."""

    def __init__(self, file: "H5LiteFile", node: _Node, path: str) -> None:
        self._file = file
        self._node = node
        self.path = "/" + path.strip("/")

    @property
    def attrs(self) -> Attributes:
        return Attributes(self._node.attrs_doc)

    def keys(self) -> list[str]:
        return sorted(set(self._node.groups) | set(self._node.datasets))

    def groups(self) -> list[str]:
        return sorted(self._node.groups)

    def datasets(self) -> list[str]:
        return sorted(self._node.datasets)

    def __contains__(self, name: str) -> bool:
        try:
            self[name]
            return True
        except KeyError:
            return False

    def __getitem__(self, relpath: str) -> "Group | Dataset":
        base = self.path.strip("/")
        full = f"{base}/{relpath}" if base else relpath
        return self._file[full]

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())


class H5LiteFile:
    """Read-only view of an h5lite file.  Only the footer is read at
    open; dataset payloads load on demand.

    One handle is read from one thread at a time: block reads seek and
    read its one file object.  (The zlib pool decodes payloads that were
    read on the calling thread.)
    """

    def __init__(self, path: "str | os.PathLike") -> None:
        self.path = os.fspath(path)
        self._fh = open(self.path, "rb")
        #: I/O accounting for this handle: decoded blocks, payload bytes
        #: touched, raw bytes produced, so chunk-access regressions stay
        #: observable.
        self.read_stats: dict[str, int] = {
            "block_reads": 0,
            "payload_bytes": 0,
            "raw_bytes": 0,
        }
        try:
            self._root = self._load_footer()
        except Exception:
            self.close()
            raise

    def _load_footer(self) -> _Node:
        fh = self._fh
        fh.seek(0, os.SEEK_END)
        end = fh.tell()
        tail_len = 8 + 8 + len(TAIL_MAGIC)
        if end < len(MAGIC) + tail_len:
            raise FormatError(f"{self.path}: file too small to be h5lite")
        fh.seek(0)
        if fh.read(len(MAGIC)) != MAGIC:
            raise FormatError(f"{self.path}: bad magic (not an h5lite file)")
        fh.seek(end - tail_len)
        tail = fh.read(tail_len)
        if tail[16:] != TAIL_MAGIC:
            raise FormatError(f"{self.path}: bad tail magic (truncated file?)")
        footer_offset = int.from_bytes(tail[0:8], "little")
        footer_len = int.from_bytes(tail[8:16], "little")
        if footer_offset + footer_len > end - tail_len:
            raise FormatError(f"{self.path}: footer extends past end of file")
        fh.seek(footer_offset)
        try:
            doc = json.loads(zlib.decompress(fh.read(footer_len)).decode("utf-8"))
        except (zlib.error, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{self.path}: corrupt footer: {exc}") from exc
        if doc.get("format_version") != FORMAT_VERSION:
            raise FormatError(
                f"{self.path}: unsupported format version {doc.get('format_version')}"
            )
        return _Node.from_doc(doc["root"], footer_offset)

    def _pread(self, offset: int, nbytes: int) -> bytes:
        """Positioned read of one block's stored bytes."""
        self._fh.seek(offset)
        data = self._fh.read(nbytes)
        if len(data) != nbytes:
            raise FormatError(f"{self.path}: short read at offset {offset}")
        return data

    # -- traversal ------------------------------------------------------------
    @property
    def root(self) -> Group:
        return Group(self, self._root, "/")

    @property
    def attrs(self) -> Attributes:
        return self.root.attrs

    def __getitem__(self, path: str) -> "Group | Dataset":
        parts = _split_path(path)
        node = self._root
        for i, part in enumerate(parts):
            if part in node.groups:
                node = node.groups[part]
            elif part in node.datasets and i == len(parts) - 1:
                return Dataset(self, "/" + "/".join(parts), node.datasets[part])
            else:
                raise KeyError("/" + "/".join(parts[: i + 1]))
        return Group(self, node, "/".join(parts))

    def __contains__(self, path: str) -> bool:
        try:
            self[path]
            return True
        except KeyError:
            return False

    def walk(self) -> Iterator[tuple[str, "Group | Dataset"]]:
        """Yield ``(path, handle)`` for every group and dataset,
        depth-first, groups before their children."""

        def rec(node: _Node, prefix: str) -> Iterator[tuple[str, "Group | Dataset"]]:
            for name in sorted(node.groups):
                path = f"{prefix}/{name}"
                yield path, Group(self, node.groups[name], path)
                yield from rec(node.groups[name], path)
            for name in sorted(node.datasets):
                path = f"{prefix}/{name}"
                yield path, Dataset(self, path, node.datasets[name])

        yield from rec(self._root, "")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "H5LiteFile":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
