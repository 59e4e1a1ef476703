"""HMSA (Hyperdimensional Microscopy & Spectroscopy data) support.

Sec. 2.2.1: "Provisions are also incorporated to use other
cross-platform formats such as the proposed ISO standard HMSA format."
HMSA (MSA/ISO draft, Torpy et al. 2019) stores one acquisition as a
**pair of files**: a UTF-8 XML document describing conditions and datum
layout, plus a sibling ``.dat`` binary blob holding the raw array.  The
two are linked by a shared 64-bit UID recorded in both files.

This module implements the subset the data flows exercise: n-D datum
arrays of the supported numeric types, acquisition conditions mapped
from :class:`~repro.emd.AcquisitionMetadata`, UID generation and
cross-file validation.
"""

from __future__ import annotations

import os
import secrets
import xml.etree.ElementTree as ET
from typing import Optional

import numpy as np

from ..errors import FormatError
from .emdfile import EmdSignal, default_dims
from .schema import AcquisitionMetadata

__all__ = ["write_hmsa", "read_hmsa"]

#: HMSA datum type names for the dtypes we support.
_DTYPE_TO_HMSA = {
    np.dtype(np.uint8): "byte",
    np.dtype(np.int16): "int16",
    np.dtype(np.uint16): "uint16",
    np.dtype(np.int32): "int32",
    np.dtype(np.int64): "int64",
    np.dtype(np.float32): "float32",
    np.dtype(np.float64): "float64",
}
_HMSA_TO_DTYPE = {v: k for k, v in _DTYPE_TO_HMSA.items()}


def _paths(base: "str | os.PathLike") -> tuple[str, str]:
    base = os.fspath(base)
    if base.endswith((".xml", ".dat")):
        base = base[:-4]
    return base + ".xml", base + ".dat"


def write_hmsa(base_path: "str | os.PathLike", signal: EmdSignal) -> tuple[str, str]:
    """Write ``signal`` as an HMSA pair; returns (xml_path, dat_path)."""
    dtype = np.dtype(signal.data.dtype)
    if dtype not in _DTYPE_TO_HMSA:
        raise FormatError(f"HMSA does not support dtype {dtype}")
    xml_path, dat_path = _paths(base_path)
    uid = secrets.token_hex(8).upper()

    root = ET.Element("MSAHyperDimensionalDataFile")
    header = ET.SubElement(root, "Header")
    ET.SubElement(header, "Title").text = signal.metadata.acquisition_id
    ET.SubElement(header, "Date").text = signal.metadata.acquired_at_iso.split("T")[0]
    ET.SubElement(header, "Time").text = (
        signal.metadata.acquired_at_iso.split("T")[1]
        if "T" in signal.metadata.acquired_at_iso
        else ""
    )
    ET.SubElement(header, "Author").text = signal.metadata.operator
    ET.SubElement(header, "UID").text = uid

    conditions = ET.SubElement(root, "Conditions")
    instr = ET.SubElement(
        conditions, "Instrument", attrib={"Name": signal.metadata.microscope.instrument}
    )
    ET.SubElement(instr, "BeamEnergy", attrib={"Unit": "kV"}).text = str(
        signal.metadata.microscope.beam_energy_kev
    )
    ET.SubElement(instr, "Magnification").text = str(
        signal.metadata.microscope.magnification
    )
    probe = ET.SubElement(conditions, "Probe")
    ET.SubElement(probe, "ProbeSize", attrib={"Unit": "pm"}).text = str(
        signal.metadata.microscope.probe_size_pm
    )
    spec = ET.SubElement(
        conditions, "Specimen", attrib={"Name": signal.metadata.sample.name}
    )
    ET.SubElement(spec, "Composition").text = ",".join(
        signal.metadata.sample.elements
    )

    data_el = ET.SubElement(root, "Data")
    datum = ET.SubElement(
        data_el,
        "Dataset",
        attrib={
            "Name": signal.name,
            "Class": signal.metadata.signal_type,
            "DatumType": _DTYPE_TO_HMSA[dtype],
        },
    )
    for ax, dim in enumerate(signal.dims, start=1):
        ET.SubElement(
            datum,
            "Dimension",
            attrib={
                "Index": str(ax),
                "Name": dim.name,
                "Unit": dim.units,
                "Size": str(len(dim.values)),
            },
        )

    arr = np.ascontiguousarray(signal.data)
    with open(dat_path, "wb") as fh:
        fh.write(bytes.fromhex(uid))  # the UID prefixes the binary file
        fh.write(arr.tobytes())

    tree = ET.ElementTree(root)
    tree.write(xml_path, encoding="utf-8", xml_declaration=True)
    return xml_path, dat_path


def read_hmsa(base_path: "str | os.PathLike") -> EmdSignal:
    """Read an HMSA pair back into an :class:`EmdSignal`.

    Validates the UID link between the XML and the binary file.
    """
    xml_path, dat_path = _paths(base_path)
    try:
        tree = ET.parse(xml_path)
    except (ET.ParseError, OSError) as exc:
        raise FormatError(f"cannot parse HMSA XML {xml_path}: {exc}") from exc
    root = tree.getroot()
    if root.tag != "MSAHyperDimensionalDataFile":
        raise FormatError(f"{xml_path}: not an HMSA document (root {root.tag!r})")

    uid = root.findtext("Header/UID") or ""
    title = root.findtext("Header/Title") or "unknown"
    author = root.findtext("Header/Author") or ""
    datum = root.find("Data/Dataset")
    if datum is None:
        raise FormatError(f"{xml_path}: no Data/Dataset element")
    dtype_name = datum.get("DatumType", "")
    if dtype_name not in _HMSA_TO_DTYPE:
        raise FormatError(f"{xml_path}: unsupported DatumType {dtype_name!r}")
    dtype = _HMSA_TO_DTYPE[dtype_name]
    signal_type = datum.get("Class", "unknown")

    dims_meta = sorted(
        datum.findall("Dimension"), key=lambda d: int(d.get("Index", "0"))
    )
    shape = tuple(int(d.get("Size", "0")) for d in dims_meta)
    if not shape or any(s <= 0 for s in shape):
        raise FormatError(f"{xml_path}: invalid dimension sizes {shape}")

    with open(dat_path, "rb") as fh:
        file_uid = fh.read(8).hex().upper()
        payload = fh.read()
    if uid and file_uid != uid:
        raise FormatError(
            f"UID mismatch: XML {uid} vs binary {file_uid} (files are not a pair)"
        )
    expected = int(np.prod(shape)) * dtype.itemsize
    if len(payload) != expected:
        raise FormatError(
            f"{dat_path}: payload is {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload, dtype=dtype).reshape(shape)

    instr = root.find("Conditions/Instrument")
    beam_kev = float(instr.findtext("BeamEnergy", "300")) if instr is not None else 300.0
    spec = root.find("Conditions/Specimen")
    elements = tuple(
        e for e in (spec.findtext("Composition", "") if spec is not None else "").split(",") if e
    )

    from .schema import MicroscopeState, SampleInfo

    md = AcquisitionMetadata(
        acquisition_id=title,
        acquired_at=0.0,
        acquired_at_iso=f"{root.findtext('Header/Date', '')}T{root.findtext('Header/Time', '')}",
        operator=author,
        signal_type=signal_type,
        shape=shape,
        dtype=np.dtype(dtype).str,
        microscope=MicroscopeState(
            instrument=(instr.get("Name") if instr is not None else "unknown") or "unknown",
            beam_energy_kev=beam_kev,
        ),
        sample=SampleInfo(
            name=(spec.get("Name") if spec is not None else "") or "",
            elements=elements,
        ),
    )
    try:
        dims = default_dims(shape, signal_type)
    except FormatError:
        from .emdfile import DimVector

        dims = tuple(
            DimVector(
                name=d.get("Name", f"dim{i+1}"),
                units=d.get("Unit", ""),
                values=np.arange(shape[i], dtype=np.float64),
            )
            for i, d in enumerate(dims_meta)
        )
    return EmdSignal(name=title, data=data, dims=dims, metadata=md)
