"""The real-file analysis pipelines the flows' functions stand for.

The campaign's virtual functions (:mod:`repro.core.functions`) publish
a record and charge a cost model; these run the whole pipeline over a
real EMD file on disk, for the CLI ``quicklook``, the examples and the
Fig. 2/3 benches.  Per the paper (Sec. 2.2.2), metadata extraction and
image processing are **combined into a single function** "which avoids
reading the EMD file twice and minimizes flow orchestration overhead".
"""

from __future__ import annotations

import os
from typing import Any, Optional

import numpy as np

from ..emd import EmdFile
from ..errors import ComputeError
from ..search.datacite import build_search_document
from .detection import BlobDetector, DetectorParams
from .hyperspectral import (
    identify_elements,
    intensity_figure_svg,
    spectrum_figure_svg,
    sum_spectrum,
)
from .tracking import count_series
from .video import annotate_video, movie_to_uint8

__all__ = ["analyze_hyperspectral_file", "analyze_spatiotemporal_file"]


def analyze_hyperspectral_file(
    emd_path: "str | os.PathLike",
    output_dir: "str | os.PathLike",
) -> dict[str, Any]:
    """The real Sec. 3.1 pipeline: reductions + plots + metadata.

    Writes ``*_intensity.svg`` and ``*_spectrum.svg`` next to the
    returned search document (which embeds both plots for the portal).
    """
    out = os.fspath(output_dir)
    os.makedirs(out, exist_ok=True)
    with EmdFile(emd_path) as f:
        handle = f.signal()
        if handle.signal_type != "hyperspectral":
            raise ComputeError(
                f"{emd_path}: expected hyperspectral, got {handle.signal_type!r}"
            )
        cube = handle.data.read()
        energies = handle.dim(3).values
        md = f.metadata()

    intensity_svg = intensity_figure_svg(cube)
    spectrum_svg = spectrum_figure_svg(cube, energies)
    stem = os.path.join(out, os.path.splitext(os.path.basename(os.fspath(emd_path)))[0])
    with open(f"{stem}_intensity.svg", "w", encoding="utf-8") as fh:
        fh.write(intensity_svg)
    with open(f"{stem}_spectrum.svg", "w", encoding="utf-8") as fh:
        fh.write(spectrum_svg)

    hits = identify_elements(sum_spectrum(cube), energies)
    return build_search_document(
        md,
        plots={"intensity image": intensity_svg, "sum spectrum": spectrum_svg},
        data_location=os.fspath(emd_path),
        extra={
            "detected_elements": sorted({h.element for h in hits}),
        },
    )


def analyze_spatiotemporal_file(
    emd_path: "str | os.PathLike",
    output_dir: "str | os.PathLike",
    detector_params: Optional[DetectorParams] = None,
    confidence_threshold: float = 0.5,
) -> dict[str, Any]:
    """The real Sec. 3.2 pipeline: convert, detect, annotate, count."""
    out = os.fspath(output_dir)
    os.makedirs(out, exist_ok=True)
    with EmdFile(emd_path) as f:
        handle = f.signal()
        if handle.signal_type != "spatiotemporal":
            raise ComputeError(
                f"{emd_path}: expected spatiotemporal, got {handle.signal_type!r}"
            )
        movie = handle.data.read()
        md = f.metadata()

    movie_u8 = movie_to_uint8(movie)  # the paper's casting bottleneck
    detector = BlobDetector(detector_params)
    detections = detector.detect_movie(movie)
    counts = count_series(detections, min_confidence=confidence_threshold)

    stem = os.path.join(out, os.path.splitext(os.path.basename(os.fspath(emd_path)))[0])
    annotated = f"{stem}_annotated.mpng"
    annotate_video(
        movie_u8, detections, annotated, confidence_threshold=confidence_threshold
    )
    return build_search_document(
        md,
        data_location=os.fspath(emd_path),
        extra={
            "annotated_video": annotated,
            "particle_counts": [int(c) for c in counts],
            "mean_particle_count": float(np.mean(counts)),
        },
    )
