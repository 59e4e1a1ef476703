"""The analysis functions the flows execute on Polaris.

They operate on a *file descriptor* — path, size, shape, embedded
metadata JSON — and produce the real DataCite search document the
publication step ingests.  Their simulated duration comes from
calibrated cost models (seconds per GB for the hyperspectral
reductions; cast+encode per GB plus per-frame inference for the movie
pipeline), so Fig. 4's compute phase is data-dependent, not a constant.
The pipelines they stand for, run over a real EMD file, are
:mod:`repro.analysis.pipelines`.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional

from ..emd import AcquisitionMetadata
from ..errors import ComputeError
from ..rng import RngRegistry, lognormal_from_median
from ..search.datacite import build_search_document
from ..storage import VirtualFile
from ..testbed.calibration import Calibration

__all__ = [
    "file_descriptor",
    "analyze_virtual_hyperspectral",
    "analyze_virtual_spatiotemporal",
    "hyperspectral_cost_model",
    "spatiotemporal_cost_model",
]


def file_descriptor(f: VirtualFile, dest_path: str) -> dict[str, Any]:
    """What the flow carries about a staged file (JSON-serializable)."""
    if f.metadata is None:
        raise ComputeError(f"virtual file {f.path} has no embedded metadata")
    return {
        "path": f.path,
        "dest_path": dest_path,
        "size_bytes": f.size_bytes,
        "checksum": f.checksum,
        "signal_type": f.metadata.signal_type,
        "shape": list(f.metadata.shape),
        "metadata_json": f.metadata.to_json(),
    }


def analyze_virtual_hyperspectral(file: dict[str, Any]) -> dict[str, Any]:
    """Combined metadata-extraction + image-processing step (virtual).

    Parses the embedded metadata (the HyperSpy pass) and emits the
    DataCite record referencing the plots the real pipeline would have
    produced alongside the data on Eagle.
    """
    md = AcquisitionMetadata.from_json(file["metadata_json"])
    dest = file["dest_path"]
    stem = os.path.splitext(dest)[0]
    return build_search_document(
        md,
        data_location=dest,
        extra={
            "derived_products": {
                "intensity_image": f"{stem}_intensity.svg",
                "sum_spectrum": f"{stem}_spectrum.svg",
            }
        },
    )


def analyze_virtual_spatiotemporal(file: dict[str, Any]) -> dict[str, Any]:
    """Combined conversion + inference + metadata step (virtual)."""
    md = AcquisitionMetadata.from_json(file["metadata_json"])
    dest = file["dest_path"]
    stem = os.path.splitext(dest)[0]
    return build_search_document(
        md,
        data_location=dest,
        extra={
            "derived_products": {
                "annotated_video": f"{stem}_annotated.mpng",
                "particle_counts": f"{stem}_counts.json",
            }
        },
    )


def hyperspectral_cost_model(
    cal: Calibration, rngs: Optional[RngRegistry] = None
) -> Callable[[tuple, dict], float]:
    """Simulated duration of the combined hyperspectral function."""
    rngs = rngs or RngRegistry(0)

    def model(args: tuple, kwargs: dict) -> float:
        file = kwargs.get("file") or (args[0] if args else {})
        gb = float(file.get("size_bytes", 0.0)) / 1e9
        median = cal.hyperspectral_analysis_floor_s + cal.hyperspectral_analysis_s_per_gb * gb
        return lognormal_from_median(
            rngs.stream("cost.hyperspectral"), median, cal.analysis_jitter_sigma
        )

    return model


def spatiotemporal_cost_model(
    cal: Calibration, rngs: Optional[RngRegistry] = None
) -> Callable[[tuple, dict], float]:
    """Simulated duration of conversion (the fp64→uint8 cast + encode,
    proportional to bytes) plus per-frame inference."""
    rngs = rngs or RngRegistry(0)

    def model(args: tuple, kwargs: dict) -> float:
        file = kwargs.get("file") or (args[0] if args else {})
        gb = float(file.get("size_bytes", 0.0)) / 1e9
        shape = file["shape"]
        n_frames = shape[0] if shape else 0
        median = cal.conversion_s_per_gb * gb + cal.inference_s_per_frame * n_frames
        return lognormal_from_median(
            rngs.stream("cost.spatiotemporal"), median, cal.analysis_jitter_sigma
        )

    return model
