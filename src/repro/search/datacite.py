"""DataCite-flavoured metadata schema for published records.

The paper registers experiment metadata "defined by using an extensible
schema based on DataCite".  This module defines that schema — required
DataCite kernel fields (identifier, title, creator, publication year,
resource type) plus the extensible ``subjects`` / ``dates`` /
``descriptions`` blocks the portal renders — validates documents before
ingest, and builds the record published for one acquisition
(:func:`build_search_document`).
"""

from __future__ import annotations

from typing import Any, Optional

from ..emd import AcquisitionMetadata
from ..errors import FormatError, SchemaError

__all__ = ["validate_datacite", "make_record", "build_search_document"]

REQUIRED_FIELDS = ("identifier", "title", "creators", "publication_year", "resource_type")


def validate_datacite(doc: dict[str, Any]) -> dict[str, Any]:
    """Validate (and return) a DataCite-style document.

    Raises :class:`SchemaError` naming every violated constraint.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"record must be a dict, got {type(doc).__name__}")
    problems = []
    for f in REQUIRED_FIELDS:
        if f not in doc:
            problems.append(f"missing required field {f!r}")
    if "identifier" in doc and not str(doc["identifier"]).strip():
        problems.append("identifier must be non-empty")
    if "creators" in doc:
        creators = doc["creators"]
        if not isinstance(creators, list) or not creators:
            problems.append("creators must be a non-empty list")
        elif not all(isinstance(c, str) and c.strip() for c in creators):
            problems.append("every creator must be a non-empty string")
    if "publication_year" in doc:
        y = doc["publication_year"]
        if not isinstance(y, int) or not 1900 <= y <= 2200:
            problems.append(f"publication_year must be a plausible int, got {y!r}")
    if "dates" in doc and not isinstance(doc["dates"], dict):
        problems.append("dates must be a dict of label -> ISO string")
    if "subjects" in doc:
        subj = doc["subjects"]
        if not isinstance(subj, list) or not all(isinstance(s, str) for s in subj):
            problems.append("subjects must be a list of strings")
    if problems:
        raise SchemaError(f"invalid DataCite record: {'; '.join(problems)}")
    return doc


def make_record(
    identifier: str,
    title: str,
    creators: list[str],
    publication_year: int,
    resource_type: str = "Dataset",
    **extensions: Any,
) -> dict[str, Any]:
    """Build and validate a record in one call.

    ``extensions`` become additional top-level fields (the "extensible"
    part of the schema: experiment metadata, plot paths, etc.).
    """
    doc: dict[str, Any] = {
        "identifier": identifier,
        "title": title,
        "creators": list(creators),
        "publication_year": publication_year,
        "resource_type": resource_type,
    }
    doc.update(extensions)
    return validate_datacite(doc)


def build_search_document(
    md: AcquisitionMetadata,
    plots: Optional[dict[str, str]] = None,
    data_location: Optional[str] = None,
    extra: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """The DataCite record published for one acquisition.

    Sec. 2.2.2 extracts experiment metadata from the EMD file with
    HyperSpy: collection date and time, microscope details (stage and
    detector positions, beam energy, magnification) and software
    versioning.  :meth:`repro.emd.EmdFile.metadata` re-implements that
    parse; this turns its result into the record the publication step
    ingests, whose ``experiment`` section is the portal's Fig. 2C
    metadata table.

    ``plots`` maps plot name → SVG markup (embedded by the portal);
    ``data_location`` is the permanent Eagle path of the raw file.
    """
    if not md.acquisition_id:
        raise FormatError("metadata missing acquisition_id")
    year = 2023
    if md.acquired_at_iso[:4].isdigit():
        year = int(md.acquired_at_iso[:4])
    title = {
        "hyperspectral": f"Hyperspectral acquisition {md.acquisition_id}: {md.sample.name or 'sample'}",
        "spatiotemporal": f"Spatiotemporal acquisition {md.acquisition_id}: {md.sample.name or 'sample'}",
    }.get(md.signal_type, f"Acquisition {md.acquisition_id}")
    doc = make_record(
        identifier=f"picoprobe:{md.acquisition_id}",
        title=title,
        creators=[md.operator or "unknown"],
        publication_year=year,
        resource_type="Dataset",
        dates={"created": md.acquired_at_iso},
        subjects=[md.signal_type, *md.sample.elements],
        experiment={
            "acquisition_id": md.acquisition_id,
            "operator": md.operator,
            "signal_type": md.signal_type,
            "shape": list(md.shape),
            "dtype": md.dtype,
            "microscope": {
                "instrument": md.microscope.instrument,
                "beam_energy_kev": md.microscope.beam_energy_kev,
                "probe_size_pm": md.microscope.probe_size_pm,
                "magnification": md.microscope.magnification,
                "stage": {
                    "x_um": md.microscope.stage.x_um,
                    "y_um": md.microscope.stage.y_um,
                    "z_um": md.microscope.stage.z_um,
                    "alpha_deg": md.microscope.stage.alpha_deg,
                    "beta_deg": md.microscope.stage.beta_deg,
                },
                "detectors": [
                    {"name": d.name, "kind": d.kind} for d in md.microscope.detectors
                ],
            },
            "sample": {
                "name": md.sample.name,
                "elements": list(md.sample.elements),
            },
            "software_version": md.software_version,
        },
    )
    if plots:
        doc["plots"] = dict(plots)
    if data_location:
        doc["data_location"] = data_location
    if extra:
        doc.update(extra)
    return doc
