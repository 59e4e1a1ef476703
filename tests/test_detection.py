"""Tests for the blob detector, labeling, and tracking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    BlobDetector,
    Box,
    DetectorParams,
    IouTracker,
    LabelingSpec,
    calibrate,
    count_series,
    hand_label,
    map_range,
    nms,
    split_9_3_1,
)
from repro.analysis.detection import Detection
from repro.errors import ReproError
from repro.instrument import MovieSpec, generate_movie


@pytest.fixture(scope="module")
def movie_world():
    """A small but realistic movie with ground truth."""
    spec = MovieSpec(n_frames=12, shape=(192, 192), n_particles=6, radius_range=(5, 10))
    movie, truth = generate_movie(spec, np.random.default_rng(0))
    return spec, movie, truth


# -- detector -------------------------------------------------------------------


def test_detector_finds_all_particles(movie_world):
    spec, movie, truth = movie_world
    det = BlobDetector(DetectorParams(threshold=9.0))
    found = det.detect(movie[0])
    confident = [d for d in found if d.confidence >= 0.8]
    assert len(confident) == len(truth[0])
    # Every truth particle has a nearby confident detection.
    for p in truth[0]:
        dists = [
            np.hypot((d.x0 + d.x1) / 2 - p.col, (d.y0 + d.y1) / 2 - p.row)
            for d in confident
        ]
        assert min(dists) < p.radius


def test_detector_empty_frame_no_detections():
    rng = np.random.default_rng(0)
    frame = rng.normal(100.0, 5.0, size=(128, 128))
    det = BlobDetector(DetectorParams(threshold=9.0))
    confident = [d for d in det.detect(frame) if d.confidence > 0.7]
    assert confident == []


def test_detector_rejects_bad_input():
    det = BlobDetector()
    with pytest.raises(ReproError):
        det.detect(np.zeros(10))
    with pytest.raises(ReproError):
        det.detect_movie(np.zeros((4, 4)))


def test_detector_params_validation():
    with pytest.raises(ReproError):
        DetectorParams(sigmas=())
    with pytest.raises(ReproError):
        DetectorParams(threshold=0)
    with pytest.raises(ReproError):
        DetectorParams(k=0.9)


def test_detect_movie_per_frame(movie_world):
    spec, movie, truth = movie_world
    det = BlobDetector(DetectorParams(threshold=9.0))
    per_frame = det.detect_movie(movie[:3])
    assert len(per_frame) == 3
    counts = count_series(per_frame, min_confidence=0.8)
    assert (counts == len(truth[0])).all()


def test_nms_removes_duplicates():
    a = Detection(0, 0, 10, 10, confidence=0.9)
    b = Detection(1, 1, 11, 11, confidence=0.5)  # heavy overlap with a
    c = Detection(50, 50, 60, 60, confidence=0.7)
    kept = nms([a, b, c], iou_threshold=0.4)
    assert a in kept and c in kept and b not in kept
    assert nms([], 0.5) == []


# -- calibration ("fine-tuning") ------------------------------------------------


def test_calibration_reaches_paper_quality(movie_world):
    """The calibrated detector should reach mAP50-95 comparable to the
    paper's YOLOv8 numbers (0.791 train / 0.801 val)."""
    spec, movie, truth = movie_world
    labeled = hand_label(truth, LabelingSpec(every_nth=2), rng=np.random.default_rng(1))
    frames = [movie[lf.frame_index] for lf in labeled]
    labels = [lf.boxes for lf in labeled]
    params, m_train = calibrate(frames[:4], labels[:4])
    assert m_train > 0.65
    det = BlobDetector(params)
    m_val = map_range([(det.detect(f), list(l)) for f, l in zip(frames[4:], labels[4:])])
    assert m_val > 0.6


def test_calibration_validates_inputs():
    with pytest.raises(ReproError):
        calibrate([], [])
    with pytest.raises(ReproError):
        calibrate([np.zeros((8, 8))], [])


# -- labeling -------------------------------------------------------------------


def test_hand_label_every_nth(movie_world):
    spec, movie, truth = movie_world
    labeled = hand_label(truth, LabelingSpec(every_nth=5))
    assert [lf.frame_index for lf in labeled] == [0, 5, 10]
    assert all(len(lf.boxes) == len(truth[0]) for lf in labeled)


def test_hand_label_boxes_near_truth(movie_world):
    spec, movie, truth = movie_world
    labeled = hand_label(truth, LabelingSpec(every_nth=12), rng=np.random.default_rng(0))
    for box, p in zip(labeled[0].boxes, truth[0]):
        cx, cy = box.center
        assert abs(cx - p.col) < 3
        assert abs(cy - p.row) < 3


def test_hand_label_miss_prob():
    truth = [[_particle(i) for i in range(50)]]
    labeled = hand_label(
        truth, LabelingSpec(every_nth=1, miss_prob=0.5), rng=np.random.default_rng(0)
    )
    assert 5 < len(labeled[0].boxes) < 45  # roughly half missed


def _particle(i):
    from repro.instrument import Particle

    return Particle(row=10.0 + i, col=10.0 + i, radius=3.0)


def test_labeling_spec_validation():
    with pytest.raises(ReproError):
        LabelingSpec(every_nth=0)
    with pytest.raises(ReproError):
        LabelingSpec(miss_prob=1.0)


def test_split_9_3_1_paper_counts():
    labeled = [_lf(i) for i in range(13)]
    train, val, test = split_9_3_1(labeled)
    assert (len(train), len(val), len(test)) == (9, 3, 1)


def test_split_scales_down():
    labeled = [_lf(i) for i in range(6)]
    train, val, test = split_9_3_1(labeled)
    assert len(train) + len(val) + len(test) == 6
    assert len(train) >= len(val) >= len(test) >= 1
    with pytest.raises(ReproError):
        split_9_3_1(labeled[:2])


def _lf(i):
    from repro.analysis import LabeledFrame

    return LabeledFrame(frame_index=i, boxes=())


# -- tracking --------------------------------------------------------------------


def test_tracker_follows_moving_particles(movie_world):
    spec, movie, truth = movie_world
    det = BlobDetector(DetectorParams(threshold=9.0))
    per_frame = det.detect_movie(movie)
    tracks = IouTracker().run(per_frame)
    long_tracks = [t for t in tracks if t.length >= spec.n_frames - 2]
    assert len(long_tracks) == spec.n_particles
    # Track identity is stable: ids of long tracks are unique.
    assert len({t.track_id for t in long_tracks}) == len(long_tracks)


def test_tracker_counts_match_truth(movie_world):
    spec, movie, truth = movie_world
    det = BlobDetector(DetectorParams(threshold=9.0))
    counts = count_series(det.detect_movie(movie), min_confidence=0.8)
    assert counts.shape == (spec.n_frames,)
    assert (counts == spec.n_particles).all()


def test_tracker_handles_disappearance():
    tracker = IouTracker(max_misses=1)
    d = Detection(0, 0, 10, 10, confidence=0.9)
    tracker.update(0, [d])
    tracker.update(1, [])  # miss 1
    tracker.update(2, [])  # miss 2 -> retired
    tracker.update(3, [Detection(0, 0, 10, 10, confidence=0.9)])
    all_tracks = tracker.finished + tracker.active
    assert len(all_tracks) == 2  # original retired, new one born


def test_tracker_validation():
    with pytest.raises(ReproError):
        IouTracker(iou_threshold=0)
    with pytest.raises(ReproError):
        IouTracker(max_misses=-1)


def test_track_displacement():
    tracker = IouTracker()
    tracker.update(0, [Detection(0, 0, 10, 10, confidence=0.9)])
    tracker.update(1, [Detection(3, 4, 13, 14, confidence=0.9)])
    track = tracker.active[0]
    assert track.displacement() == pytest.approx(5.0)
    assert [frame for frame, _ in track.boxes] == [0, 1]
