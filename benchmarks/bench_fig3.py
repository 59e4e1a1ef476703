"""Fig. 3: annotated nanoparticle detections on movie frames.

Runs the real Sec. 3.2 inference pipeline on a movie of gold
nanoparticles: fp64→uint8 conversion, per-frame detection with the
calibrated model, box annotation, and the per-frame count series the
caption describes.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis import (
    BlobDetector,
    IouTracker,
    LabelingSpec,
    annotate_video,
    calibrate,
    count_series,
    hand_label,
    movie_to_uint8,
    split_9_3_1,
)
from repro.instrument import MovieSpec, PicoProbe
from repro.rng import RngRegistry
from repro.viz import line_chart

from conftest import report


@pytest.fixture(scope="module")
def movie_world():
    spec = MovieSpec(n_frames=120, shape=(320, 320), n_particles=8, radius_range=(5, 11))
    probe = PicoProbe(RngRegistry(seed=3), operator="bench-user")
    signal, truth = probe.acquire_spatiotemporal(spec)
    labeled = hand_label(truth, LabelingSpec(every_nth=10), rng=np.random.default_rng(1))
    train, _, _ = split_9_3_1(labeled)
    movie = signal.data
    params, _ = calibrate(
        [movie[lf.frame_index] for lf in train], [lf.boxes for lf in train]
    )
    return spec, movie, truth, params


def test_fig3_inference_and_annotation(movie_world, output_dir, tmp_path):
    spec, movie, truth, params = movie_world
    detector = BlobDetector(params)

    # One-frame inference (the repeated unit of the flow).
    detections_frame0 = detector.detect(movie[0])
    conf = params.operating_confidence
    confident = [d for d in detections_frame0 if d.confidence >= conf]
    # Exact on well-separated frames; off-by-one when two particles
    # happen to overlap at frame 0.
    assert abs(len(confident) - len(truth[0])) <= 1

    # Full pipeline once: cast, detect movie, annotate, count.
    movie_u8 = movie_to_uint8(movie)
    detections = detector.detect_movie(movie)
    video_path = str(tmp_path / "annotated.mpng")
    n = annotate_video(movie_u8, detections, video_path, confidence_threshold=conf)
    assert n == spec.n_frames
    assert os.path.getsize(video_path) > 0

    counts = count_series(detections, min_confidence=conf)
    truth_counts = np.array([len(t) for t in truth])
    # Per-frame counts track the ground truth (the caption's use case).
    assert abs(np.median(counts) - np.median(truth_counts)) <= 1
    match_rate = np.mean(np.abs(counts - truth_counts) <= 1)
    assert match_rate > 0.9

    tracks = IouTracker(min_confidence=conf).run(detections)
    long_tracks = [t for t in tracks if t.length >= spec.n_frames // 2]

    chart = line_chart(
        [
            ("detected", list(range(len(counts))), [float(c) for c in counts]),
            ("truth", list(range(len(truth_counts))), [float(c) for c in truth_counts]),
        ],
        title="Fig. 3: nanoparticles per frame",
        xlabel="frame",
        ylabel="count",
    )
    with open(os.path.join(output_dir, "fig3_counts.svg"), "w", encoding="utf-8") as fh:
        fh.write(chart)

    report(
        "fig3",
        [
            f"movie             : {movie.shape} float64",
            f"operating conf    : {conf}",
            f"median count      : detected {int(np.median(counts))} vs truth {int(np.median(truth_counts))}",
            f"count match (±1)  : {100 * match_rate:.0f}% of frames",
            f"long-lived tracks : {len(long_tracks)} (particles: {spec.n_particles})",
            "chart             : benchmarks/output/fig3_counts.svg",
        ],
        output_dir,
    )


def test_fig3_conversion_cast(movie_world):
    """The fp64→uint8 cast the paper singles out as the compute
    bottleneck — checked in isolation."""
    spec, movie, *_ = movie_world
    out = movie_to_uint8(movie)
    assert out.dtype == np.uint8
    assert out.shape == movie.shape
