"""Multi-object tracking of detected nanoparticles.

Fig. 3's caption: bounding boxes "can be used to count the number of
nanoparticles likely to be in a sample, helping to characterize changes
in the sample as a function of time."  This tracker links per-frame
detections into tracks by IoU using optimal assignment
(:func:`scipy.optimize.linear_sum_assignment`), with a miss budget so a
particle surviving a few blurry frames keeps its identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from ..errors import ReproError
from .detection import Detection
from .metrics import Box, iou_matrix

__all__ = ["Track", "IouTracker", "count_series"]


@dataclass
class Track:
    """One particle's trajectory through the movie."""

    track_id: int
    boxes: list[tuple[int, Box]] = field(default_factory=list)  # (frame, box)
    misses: int = 0

    @property
    def last_box(self) -> Box:
        return self.boxes[-1][1]

    @property
    def length(self) -> int:
        return len(self.boxes)

    def displacement(self) -> float:
        """Straight-line distance between first and last centers (px)."""
        (x0, y0), (x1, y1) = self.boxes[0][1].center, self.boxes[-1][1].center
        return float(np.hypot(x1 - x0, y1 - y0))


class IouTracker:
    """Frame-to-frame IoU association with optimal assignment."""

    def __init__(
        self,
        iou_threshold: float = 0.25,
        max_misses: int = 3,
        min_confidence: float = 0.5,
    ) -> None:
        if not 0 < iou_threshold < 1:
            raise ReproError(f"iou_threshold must be in (0,1), got {iou_threshold}")
        if max_misses < 0:
            raise ReproError("max_misses must be >= 0")
        self.iou_threshold = iou_threshold
        self.max_misses = max_misses
        self.min_confidence = min_confidence
        self._next_id = 1
        self.active: list[Track] = []
        self.finished: list[Track] = []

    def update(self, frame_index: int, detections: Sequence[Detection]) -> list[Track]:
        """Advance one frame; returns tracks updated this frame."""
        dets = [d for d in detections if d.confidence >= self.min_confidence]
        updated: list[Track] = []
        if self.active and dets:
            m = iou_matrix([t.last_box for t in self.active], dets)
            # Hungarian on negative IoU; forbid below-threshold pairs.
            cost = 1.0 - m
            rows, cols = linear_sum_assignment(cost)
            matched_tracks, matched_dets = set(), set()
            for r, c in zip(rows, cols):
                if m[r, c] >= self.iou_threshold:
                    track = self.active[r]
                    track.boxes.append((frame_index, dets[c]))
                    track.misses = 0
                    matched_tracks.add(r)
                    matched_dets.add(c)
                    updated.append(track)
            unmatched_tracks = [
                t for i, t in enumerate(self.active) if i not in matched_tracks
            ]
            new_dets = [d for i, d in enumerate(dets) if i not in matched_dets]
        else:
            unmatched_tracks = list(self.active)
            new_dets = list(dets)

        # Age unmatched tracks; retire the stale ones.
        still_alive = [t for t in updated]
        for t in unmatched_tracks:
            t.misses += 1
            if t.misses > self.max_misses:
                self.finished.append(t)
            else:
                still_alive.append(t)
        # Births.
        for d in new_dets:
            track = Track(track_id=self._next_id, boxes=[(frame_index, d)])
            self._next_id += 1
            still_alive.append(track)
            updated.append(track)
        self.active = still_alive
        return updated

    def run(self, detections_per_frame: Sequence[Sequence[Detection]]) -> list[Track]:
        """Track a whole movie; returns all tracks (finished + active)."""
        for t, dets in enumerate(detections_per_frame):
            self.update(t, dets)
        return self.finished + self.active


def count_series(detections_per_frame: Sequence[Sequence[Detection]], min_confidence: float = 0.5) -> np.ndarray:
    """Per-frame particle counts (the Fig. 3 characterization signal)."""
    return np.array(
        [
            sum(1 for d in dets if d.confidence >= min_confidence)
            for dets in detections_per_frame
        ],
        dtype=np.int64,
    )
