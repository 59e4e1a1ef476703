"""Data-analysis library: everything the flows run on the HPC side.

Hyperspectral reductions (Fig. 2), EMD→video conversion with the
fp64→uint8 cast (the paper's compute bottleneck), the DoG nanoparticle
detector with calibration ("fine-tuning") and COCO-style mAP50-95
(Sec. 3.2), IoU tracking (Fig. 3), and the real-file pipelines that
combine them with the HyperSpy-style metadata record
(``pipelines``; the record itself is
:func:`repro.search.datacite.build_search_document`, re-exported here).
A campaign imports none of it: its virtual functions live in
:mod:`repro.core.functions`.
"""

from ..search.datacite import build_search_document
from .detection import BlobDetector, Detection, DetectorParams, calibrate, nms
from .hyperspectral import (
    ElementHit,
    identify_elements,
    intensity_figure_svg,
    intensity_map,
    spectrum_figure_svg,
    sum_spectrum,
)
from .labeling import LabeledFrame, LabelingSpec, hand_label, split_9_3_1
from .metrics import Box, average_precision, iou, iou_matrix, map_range, match_greedy
from .pipelines import analyze_hyperspectral_file, analyze_spatiotemporal_file
from .tracking import IouTracker, Track, count_series
from .video import annotate_video, movie_to_uint8, read_video, video_info, write_video

__all__ = [
    "intensity_map",
    "sum_spectrum",
    "identify_elements",
    "ElementHit",
    "intensity_figure_svg",
    "spectrum_figure_svg",
    "build_search_document",
    "analyze_hyperspectral_file",
    "analyze_spatiotemporal_file",
    "BlobDetector",
    "Detection",
    "DetectorParams",
    "calibrate",
    "nms",
    "Box",
    "iou",
    "iou_matrix",
    "match_greedy",
    "average_precision",
    "map_range",
    "IouTracker",
    "Track",
    "count_series",
    "LabeledFrame",
    "LabelingSpec",
    "hand_label",
    "split_9_3_1",
    "movie_to_uint8",
    "write_video",
    "read_video",
    "video_info",
    "annotate_video",
]
