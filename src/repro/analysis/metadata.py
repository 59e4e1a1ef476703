"""Experiment-metadata extraction: the HyperSpy step.

Sec. 2.2.2: "the EMD file is parsed to extract experiment metadata by
using the HyperSpy Python package.  The metadata includes sample
collection date and time; acquisition instrument (i.e., microscope)
details, such as stage and detector positions, beam energy, and
magnification; and other information, such as software versioning."

:meth:`repro.emd.EmdFile.metadata` re-implements that parse over our
EMD files (walking the container, decoding the JSON payload), and
:func:`build_search_document` turns the result into the DataCite-style
record the publication step ingests.  The record's ``experiment``
section is what the portal's Fig. 2C metadata table shows.
"""

from __future__ import annotations

from typing import Any, Optional

from ..emd import AcquisitionMetadata
from ..errors import FormatError
from ..search.datacite import make_record

__all__ = ["build_search_document"]


def build_search_document(
    md: AcquisitionMetadata,
    plots: Optional[dict[str, str]] = None,
    data_location: Optional[str] = None,
    extra: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """The DataCite record published for one acquisition.

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
