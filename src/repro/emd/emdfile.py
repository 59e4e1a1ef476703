"""EMD files: the Electron Microscopy Dataset layout on top of h5lite.

An EMD file (a subset of HDF5 by convention) stores one or more *signal
groups* under ``/data/<name>``, each marked with ``emd_group_type = 1``
and containing:

* ``data`` — the n-D tensor (hyperspectral cubes are H×W×E; spatiotemporal
  movies are T×H×W, time first, exactly as in the paper);
* ``dim1`` … ``dimN`` — one axis-coordinate vector per tensor axis, each
  with ``name`` and ``units`` attributes;
* experiment metadata as a JSON payload at ``/metadata/json`` (stored as a
  uint8 dataset, the same trick Velox EMD uses).

The module also provides :func:`estimate_emd_size`, the size model used by
the transfer simulator so campaigns can move "91 MB" and "1200 MB" files
without materializing them on disk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import FormatError
from .h5lite import Dataset, H5LiteFile, H5LiteWriter
from .schema import AcquisitionMetadata

__all__ = [
    "DimVector",
    "EmdSignal",
    "EmdSignalHandle",
    "EmdFile",
    "write_emd",
    "read_emd",
    "estimate_emd_size",
]

EMD_VERSION = (0, 2)
EMD_GROUP_TYPE = 1

#: Raw bytes per row band of a 3-D signal that is not time-first (see
#: :func:`write_emd`): four 64×1024 uint16 rows of the Fig. 2 cube.
_BAND_BYTES = 512 * 1024

#: Canonical axis descriptions per signal type; index i describes dim(i+1).
HYPERSPECTRAL_AXES = (("height", "px"), ("width", "px"), ("energy", "eV"))
SPATIOTEMPORAL_AXES = (("time", "s"), ("height", "px"), ("width", "px"))


@dataclass(frozen=True)
class DimVector:
    """One axis of a signal: coordinate values plus name/units."""

    name: str
    units: str
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1:
            raise FormatError(f"dim vector {self.name!r} must be 1-D")


@dataclass
class EmdSignal:
    """An in-memory signal ready to be written to an EMD file."""

    name: str
    data: np.ndarray
    dims: tuple[DimVector, ...]
    metadata: AcquisitionMetadata

    def __post_init__(self) -> None:
        if len(self.dims) != self.data.ndim:
            raise FormatError(
                f"signal {self.name!r}: {len(self.dims)} dim vectors for "
                f"{self.data.ndim}-D data"
            )
        for ax, dim in enumerate(self.dims):
            if len(dim.values) != self.data.shape[ax]:
                raise FormatError(
                    f"signal {self.name!r}: dim{ax + 1} has {len(dim.values)} "
                    f"values for axis of size {self.data.shape[ax]}"
                )


def default_dims(shape: Sequence[int], signal_type: str) -> tuple[DimVector, ...]:
    """Canonical pixel/energy/time axes for a signal of ``shape``."""
    if signal_type == "hyperspectral":
        axes = HYPERSPECTRAL_AXES
    elif signal_type == "spatiotemporal":
        axes = SPATIOTEMPORAL_AXES
    else:
        raise FormatError(f"unknown signal type: {signal_type!r}")
    if len(shape) != len(axes):
        raise FormatError(
            f"{signal_type} signals are {len(axes)}-D, got shape {tuple(shape)}"
        )
    return tuple(
        DimVector(name=name, units=units, values=np.arange(n, dtype=np.float64))
        for (name, units), n in zip(axes, shape)
    )


def write_emd(
    path: "str | os.PathLike",
    signal: EmdSignal,
    chunks: Optional[Sequence[int]] = None,
    compression: Optional[str] = None,
) -> None:
    """Write a single-signal EMD file.

    ``chunks=None`` picks the layout from the signal.  A time-first
    (spatiotemporal) movie gets one chunk per frame.  Any other 3-D
    signal, such as an H×W×E hyperspectral cube, gets row bands: axis-0
    chunks of as many whole rows as fit in 512 KiB (at least one, at
    most the signal's height), so the zlib pool codes the bands in
    parallel and a read of a few rows decodes only their bands.
    Anything else, an empty cube included, is stored as one contiguous
    block.
    """
    data = signal.data
    if chunks is None and data.ndim == 3:
        if signal.dims[0].name == "time":
            chunks = (1,) + data.shape[1:]
        elif data.size:
            rows = min(len(data), _BAND_BYTES // data[0].nbytes)
            chunks = (max(1, rows),) + data.shape[1:]
    with H5LiteWriter(path) as w:
        root = w.require_group("/")
        root.attrs["version_major"] = EMD_VERSION[0]
        root.attrs["version_minor"] = EMD_VERSION[1]
        root.attrs["file_format"] = "EMD (h5lite)"

        g = w.require_group(f"data/{signal.name}")
        g.attrs["emd_group_type"] = EMD_GROUP_TYPE
        g.attrs["signal_type"] = signal.metadata.signal_type
        w.create_dataset(
            f"data/{signal.name}/data",
            data,
            chunks=chunks,
            compression=compression,
        )
        for ax, dim in enumerate(signal.dims, start=1):
            w.create_dataset(f"data/{signal.name}/dim{ax}", dim.values)
            dg = w.require_group(f"data/{signal.name}")
            # dim attributes live on per-dim marker groups to keep the
            # dataset descriptors lean.
            mg = w.require_group(f"data/{signal.name}/_dim{ax}_meta")
            mg.attrs["name"] = dim.name
            mg.attrs["units"] = dim.units
            del dg

        meta_bytes = np.frombuffer(
            signal.metadata.to_json().encode("utf-8"), dtype=np.uint8
        )
        w.create_dataset("metadata/json", meta_bytes)


class EmdSignalHandle:
    """Lazy view of one signal group inside an open EMD file."""

    def __init__(self, file: "EmdFile", name: str) -> None:
        self._file = file
        self.name = name
        group = file._h5[f"data/{name}"]
        if group.attrs.get("emd_group_type") != EMD_GROUP_TYPE:
            raise FormatError(f"group data/{name} is not an EMD signal group")
        self.signal_type: str = group.attrs.get("signal_type", "unknown")
        self._data: Dataset = file._h5[f"data/{name}/data"]  # type: ignore[assignment]

    @property
    def data(self) -> Dataset:
        """Lazy dataset handle — slice it to read frames without loading
        the whole tensor."""
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    def dim(self, axis: int) -> DimVector:
        """The axis vector for 1-based ``axis`` (EMD convention)."""
        values = self._file._h5[f"data/{self.name}/dim{axis}"].read()  # type: ignore[union-attr]
        meta = self._file._h5[f"data/{self.name}/_dim{axis}_meta"]
        return DimVector(
            name=meta.attrs.get("name", f"dim{axis}"),
            units=meta.attrs.get("units", ""),
            values=values,
        )

    def dims(self) -> tuple[DimVector, ...]:
        return tuple(self.dim(ax) for ax in range(1, len(self.shape) + 1))


class EmdFile:
    """Read-only EMD file: signals + metadata, loaded lazily."""

    def __init__(self, path: "str | os.PathLike") -> None:
        self._h5 = H5LiteFile(path)
        self.path = os.fspath(path)
        ver = (
            self._h5.attrs.get("version_major"),
            self._h5.attrs.get("version_minor"),
        )
        if ver != EMD_VERSION:
            raise FormatError(f"{self.path}: unsupported EMD version {ver}")

    def signal_names(self) -> list[str]:
        if "data" not in self._h5:
            return []
        group = self._h5["data"]
        return [n for n in group.groups()]  # type: ignore[union-attr]

    def signal(self, name: Optional[str] = None) -> EmdSignalHandle:
        """Open a signal by name, or the only signal if unambiguous."""
        names = self.signal_names()
        if name is None:
            if len(names) != 1:
                raise FormatError(
                    f"{self.path}: expected exactly one signal, found {names}"
                )
            name = names[0]
        if name not in names:
            raise KeyError(name)
        return EmdSignalHandle(self, name)

    def metadata(self) -> AcquisitionMetadata:
        """Parse the embedded JSON metadata payload."""
        if "metadata/json" not in self._h5:
            raise FormatError(f"{self.path}: no /metadata/json payload")
        raw = self._h5["metadata/json"].read()  # type: ignore[union-attr]
        return AcquisitionMetadata.from_json(bytes(raw.tobytes()).decode("utf-8"))

    def close(self) -> None:
        self._h5.close()

    def __enter__(self) -> "EmdFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_emd(path: "str | os.PathLike") -> EmdFile:
    """Open an EMD file for lazy reading."""
    return EmdFile(path)


def estimate_emd_size(
    shape: Sequence[int],
    dtype: "str | np.dtype" = np.float64,
    overhead_fraction: float = 0.002,
) -> float:
    """Bytes an EMD file of ``shape``/``dtype`` occupies (uncompressed).

    Used by the campaign simulator to derive transfer volumes from tensor
    dimensions: the paper's 91 MB hyperspectral file corresponds to e.g. a
    256×256 map with ~680 energy channels at float64 + container overhead,
    and the 1200 MB movie to 600 frames of 1000×1000 float64 (downsampled
    to 640×640 for inference).
    """
    n = float(np.prod(np.asarray(shape, dtype=np.float64)))
    payload = n * np.dtype(dtype).itemsize
    return payload * (1.0 + float(overhead_fraction))
