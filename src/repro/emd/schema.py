"""Experiment metadata model for EMD files.

Mirrors the metadata the paper extracts with HyperSpy (Sec. 2.2.2):
sample collection date/time; acquisition instrument details such as stage
and detector positions, beam energy, and magnification; and software
versioning.  Stored inside EMD files as a JSON payload (the same
convention Velox/EMD uses), re-parsed by :meth:`repro.emd.EmdFile.metadata`
on the HPC side, and published through
:func:`repro.search.datacite.build_search_document`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import FormatError

__all__ = [
    "StagePosition",
    "DetectorConfig",
    "MicroscopeState",
    "SampleInfo",
    "AcquisitionMetadata",
    "SOFTWARE_VERSION",
]

#: Version string recorded in every file (the "software versioning" field).
SOFTWARE_VERSION = "picoprobe-dataflow/1.0.0"


@dataclass(frozen=True)
class StagePosition:
    """Specimen-stage pose: position in micrometres, tilts in degrees."""

    x_um: float = 0.0
    y_um: float = 0.0
    z_um: float = 0.0
    alpha_deg: float = 0.0
    beta_deg: float = 0.0


@dataclass(frozen=True)
class DetectorConfig:
    """One detector channel on the instrument.

    The Dynamic PicoProbe's headline detector is the XPAD hyperspectral
    X-ray array (~4.5 sR collection); spatiotemporal imaging uses a
    camera-style detector.
    """

    name: str
    kind: str  # "xray-hyperspectral" | "camera" | "haadf"
    solid_angle_sr: float = 0.0
    pixel_size_um: float = 0.0
    energy_resolution_ev: float = 0.0
    enabled: bool = True


@dataclass(frozen=True)
class MicroscopeState:
    """Instrument settings at acquisition time."""

    instrument: str = "Dynamic PicoProbe"
    beam_energy_kev: float = 300.0  # 30-300 kV monochromated probe
    probe_size_pm: float = 50.0  # ~50 pm aberration-corrected probe
    magnification: float = 1.0e6
    camera_length_mm: float = 100.0
    stage: StagePosition = field(default_factory=StagePosition)
    detectors: tuple[DetectorConfig, ...] = ()
    vacuum_environment: str = "high-vacuum"  # | cryogenic | liquid | gaseous


@dataclass(frozen=True)
class SampleInfo:
    """What was in the holder."""

    name: str = ""
    description: str = ""
    elements: tuple[str, ...] = ()
    preparation: str = ""


@dataclass(frozen=True)
class AcquisitionMetadata:
    """Everything the data-analysis step extracts and the search index
    catalogs for one acquisition."""

    acquisition_id: str
    acquired_at: float  # experiment-campaign time, seconds
    acquired_at_iso: str  # human-readable timestamp for the portal
    operator: str
    signal_type: str  # "hyperspectral" | "spatiotemporal"
    shape: tuple[int, ...]
    dtype: str
    microscope: MicroscopeState = field(default_factory=MicroscopeState)
    sample: SampleInfo = field(default_factory=SampleInfo)
    software_version: str = SOFTWARE_VERSION
    extra: dict[str, Any] = field(default_factory=dict)

    # -- serialization ------------------------------------------------------
    def to_json(self) -> str:
        """The fields as one JSON object with sorted keys (``extra`` holds
        JSON values and is written as it is)."""
        mic = self.microscope
        stage = mic.stage
        sample = self.sample
        doc = {
            "acquisition_id": self.acquisition_id,
            "acquired_at": self.acquired_at,
            "acquired_at_iso": self.acquired_at_iso,
            "operator": self.operator,
            "signal_type": self.signal_type,
            "shape": list(self.shape),
            "dtype": self.dtype,
            "microscope": {
                "instrument": mic.instrument,
                "beam_energy_kev": mic.beam_energy_kev,
                "probe_size_pm": mic.probe_size_pm,
                "magnification": mic.magnification,
                "camera_length_mm": mic.camera_length_mm,
                "stage": {
                    "x_um": stage.x_um,
                    "y_um": stage.y_um,
                    "z_um": stage.z_um,
                    "alpha_deg": stage.alpha_deg,
                    "beta_deg": stage.beta_deg,
                },
                "detectors": [
                    {
                        "name": d.name,
                        "kind": d.kind,
                        "solid_angle_sr": d.solid_angle_sr,
                        "pixel_size_um": d.pixel_size_um,
                        "energy_resolution_ev": d.energy_resolution_ev,
                        "enabled": d.enabled,
                    }
                    for d in mic.detectors
                ],
                "vacuum_environment": mic.vacuum_environment,
            },
            "sample": {
                "name": sample.name,
                "description": sample.description,
                "elements": list(sample.elements),
                "preparation": sample.preparation,
            },
            "software_version": self.software_version,
            "extra": self.extra,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AcquisitionMetadata":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid metadata JSON: {exc}") from exc
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: Any) -> "AcquisitionMetadata":
        """Parse a metadata document; a malformed one raises
        :class:`FormatError`."""
        try:
            _object(doc, "the document")
            mic = _object(doc.get("microscope", {}), "microscope")
            stage = StagePosition(**mic.get("stage", {}))
            detectors = tuple(
                DetectorConfig(**d) for d in mic.get("detectors", ())
            )
            microscope = MicroscopeState(
                instrument=mic.get("instrument", "Dynamic PicoProbe"),
                beam_energy_kev=mic.get("beam_energy_kev", 300.0),
                probe_size_pm=mic.get("probe_size_pm", 50.0),
                magnification=mic.get("magnification", 1.0e6),
                camera_length_mm=mic.get("camera_length_mm", 100.0),
                stage=stage,
                detectors=detectors,
                vacuum_environment=mic.get("vacuum_environment", "high-vacuum"),
            )
            samp = _object(doc.get("sample", {}), "sample")
            sample = SampleInfo(
                name=samp.get("name", ""),
                description=samp.get("description", ""),
                elements=tuple(samp.get("elements", ())),
                preparation=samp.get("preparation", ""),
            )
            return cls(
                acquisition_id=doc["acquisition_id"],
                acquired_at=float(doc["acquired_at"]),
                acquired_at_iso=doc.get("acquired_at_iso", ""),
                operator=doc.get("operator", ""),
                signal_type=doc["signal_type"],
                shape=_shape(doc["shape"]),
                dtype=doc.get("dtype", ""),
                microscope=microscope,
                sample=sample,
                software_version=doc.get("software_version", ""),
                extra=_object(doc.get("extra", {}), "extra"),
            )
        except KeyError as exc:
            raise FormatError(f"metadata missing required field: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise FormatError(f"invalid metadata: {exc}") from exc


def _object(value: Any, name: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {type(value).__name__}")
    return value


def _shape(value: Any) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
        type(n) is int and n >= 0 for n in value
    ):
        raise ValueError(f"shape must be a list of non-negative ints, got {value!r}")
    return tuple(value)


def iso_from_campaign_seconds(t: float, campaign_epoch: str = "2023-06-01T00:00:00") -> str:
    """Render campaign-relative seconds as an ISO-8601 timestamp.

    The DES clock starts at 0; portals and search indices want calendar
    timestamps, so campaigns anchor themselves at a nominal epoch.
    """
    import datetime as _dt

    base = _dt.datetime.fromisoformat(campaign_epoch)
    return (base + _dt.timedelta(seconds=float(t))).isoformat()
