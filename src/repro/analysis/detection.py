"""Nanoparticle detection: the YOLOv8 substitute.

The paper fine-tunes YOLOv8s on nine hand-labeled frames to detect gold
nanoparticles.  Deep-learning frameworks are unavailable here, so we
implement the classical detector the task actually demands — bright,
roughly circular blobs on a noisy background — with the same *pipeline
shape* as the paper's: a trainable model (parameters calibrated on the
hand-labeled split, our "fine-tuning"), per-frame inference emitting
confidence-scored bounding boxes, and mAP50-95 evaluation.

Method: multi-scale Difference-of-Gaussians proposes candidate peaks;
each candidate's box size is then *refined* by measuring the blob's
half-maximum radius in the background-subtracted image (continuous, not
quantized to the scale grid); confidence grows with response over
threshold; non-maximum suppression removes duplicates across scales.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy import ndimage

from .. import parallel
from ..errors import ReproError
from .metrics import Box, iou_matrix, map_range

__all__ = ["Detection", "DetectorParams", "BlobDetector", "nms", "calibrate"]


@dataclass(frozen=True)
class Detection(Box):
    """A detected particle (inherits box geometry + confidence)."""

    scale: float = 0.0  # σ of the best-responding scale


@dataclass(frozen=True)
class DetectorParams:
    """The 'weights' of the classical model — what calibration tunes.

    ``radius_scale`` converts the measured blob width σ_b (flux-weighted
    moment estimate) into the box half-size; for Gaussian-profile
    particles whose visual radius is ≈ 1.8 σ_b, the ideal value is ≈ 1.9
    after window-truncation bias.
    """

    sigmas: tuple[float, ...] = (2.0, 2.8, 3.8, 5.2, 7.0, 9.5)
    threshold: float = 8.0  # scale-normalized response threshold
    k: float = 1.6  # DoG scale ratio
    radius_scale: float = 1.9  # box half-size = radius_scale * sigma_b
    nms_iou: float = 0.35
    min_radius_px: float = 1.5
    #: Confidence cut for *counting/annotation* decisions (set by
    #: calibration to maximize F1 on the training split; mAP itself is
    #: computed over all detections, as is standard).
    operating_confidence: float = 0.5

    def __post_init__(self) -> None:
        if not self.sigmas or any(s <= 0 for s in self.sigmas):
            raise ReproError(f"sigmas must be positive: {self.sigmas}")
        if self.threshold <= 0 or self.k <= 1.0 or self.radius_scale <= 0:
            raise ReproError("invalid detector parameters")


def nms(dets: Sequence[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy non-maximum suppression by confidence.

    A candidate is suppressed if it overlaps a kept detection above the
    IoU threshold, *or* if either box's center lies inside the other —
    which removes large-scale responses that merge two adjacent
    particles (their merged box overlaps each individual one too little
    for plain IoU suppression).

    The pairwise IoU and center-inside matrices are computed once for
    the whole candidate set; the greedy scan then masks rows instead of
    rebuilding a fresh matrix per candidate.  Decisions are identical
    to the per-candidate formulation (``sorted`` is stable, and every
    comparison sees the same float values).
    """
    if not dets:
        return []
    order = sorted(dets, key=lambda d: -d.confidence)
    n = len(order)
    if n == 1:
        return [order[0]]
    iou = iou_matrix(order, order)
    coords = np.array([[d.x0, d.y0, d.x1, d.y1] for d in order])
    cx = (coords[:, 0] + coords[:, 2]) / 2.0
    cy = (coords[:, 1] + coords[:, 3]) / 2.0
    inside = (
        (coords[None, :, 0] <= cx[:, None])
        & (cx[:, None] <= coords[None, :, 2])
        & (coords[None, :, 1] <= cy[:, None])
        & (cy[:, None] <= coords[None, :, 3])
    )
    either = inside | inside.T
    kept: list[Detection] = [order[0]]
    kept_mask = np.zeros(n, dtype=bool)
    kept_mask[0] = True
    # Greedy suppression is inherently sequential — whether candidate i
    # survives depends on which earlier candidates survived — so this
    # scan cannot batch further; the O(n²) pair geometry above is the
    # vectorized part.
    for i in range(1, n):  # repro: noqa[P602]
        if iou[i, kept_mask].max() >= iou_threshold:
            continue
        if either[i, kept_mask].any():
            continue
        kept.append(order[i])
        kept_mask[i] = True
    return kept


def _refine_blob(
    flat: np.ndarray, y: int, x: int, sigma: float
) -> tuple[float, float, float]:
    """Sub-pixel center and size estimate from flux-weighted moments.

    Within a ±2.5σ window around the peak, the centroid of the positive
    background-subtracted intensity gives the center, and the average
    per-axis weighted variance gives the blob's Gaussian width σ_b.
    Returns ``(cy, cx, sigma_b)``.
    """
    h, w = flat.shape
    half = max(2, int(np.ceil(2.5 * sigma)))
    r0, r1 = max(y - half, 0), min(y + half + 1, h)
    c0, c1 = max(x - half, 0), min(x + half + 1, w)
    win = np.clip(flat[r0:r1, c0:c1], 0.0, None)
    total = win.sum()
    if total <= 0:
        return float(y), float(x), float(sigma)
    ys = np.arange(r0, r1, dtype=np.float64)[:, None]
    xs = np.arange(c0, c1, dtype=np.float64)[None, :]
    cy = float((win * ys).sum() / total)
    cx = float((win * xs).sum() / total)
    var_y = float((win * (ys - cy) ** 2).sum() / total)
    var_x = float((win * (xs - cx) ** 2).sum() / total)
    sigma_b = float(np.sqrt(max((var_y + var_x) / 2.0, 1e-6)))
    return cy, cx, sigma_b


def _refine_batch(
    flat: np.ndarray, ts: np.ndarray, ys: np.ndarray, xs: np.ndarray, sigma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`_refine_blob` over candidates in a frame stack.

    ``flat`` is (T, H, W); candidates are (frame, row, col) index
    arrays; the window half-size is fixed per σ, so interior candidates
    refine as one (n, K, K) gather + axis reductions.  Wall-clipped
    windows (variable size) fall back to the scalar helper.  The axis
    reductions see the same contiguous K·K runs the scalar ``.sum()``
    reduces, so pairwise summation produces bit-identical moments.
    """
    n = ts.shape[0]
    _, h, w = flat.shape
    half = max(2, int(np.ceil(2.5 * sigma)))
    k = 2 * half + 1
    r0 = ys - half
    c0 = xs - half
    cy = np.empty(n, dtype=np.float64)
    cx = np.empty(n, dtype=np.float64)
    sb = np.empty(n, dtype=np.float64)
    interior = (r0 >= 0) & (ys + half + 1 <= h) & (c0 >= 0) & (xs + half + 1 <= w)
    idx = np.nonzero(interior)[0]
    if idx.size:
        offs = np.arange(k, dtype=np.int64)
        rr = r0[idx, None] + offs  # (n_i, K)
        cc = c0[idx, None] + offs
        wins = np.clip(
            flat[ts[idx, None, None], rr[:, :, None], cc[:, None, :]], 0.0, None
        )
        total = wins.sum(axis=(1, 2))
        bad = total <= 0
        safe = np.where(bad, 1.0, total)
        ysf = rr.astype(np.float64)[:, :, None]  # (n_i, K, 1)
        xsf = cc.astype(np.float64)[:, None, :]  # (n_i, 1, K)
        cyv = (wins * ysf).sum(axis=(1, 2)) / safe
        cxv = (wins * xsf).sum(axis=(1, 2)) / safe
        var_y = (wins * (ysf - cyv[:, None, None]) ** 2).sum(axis=(1, 2)) / safe
        var_x = (wins * (xsf - cxv[:, None, None]) ** 2).sum(axis=(1, 2)) / safe
        sbv = np.sqrt(np.maximum((var_y + var_x) / 2.0, 1e-6))
        cy[idx] = np.where(bad, ys[idx].astype(np.float64), cyv)
        cx[idx] = np.where(bad, xs[idx].astype(np.float64), cxv)
        sb[idx] = np.where(bad, sigma, sbv)
    for i in np.nonzero(~interior)[0]:
        cy[i], cx[i], sb[i] = _refine_blob(
            flat[ts[i]], int(ys[i]), int(xs[i]), sigma
        )
    return cy, cx, sb


#: Frame-stack block budget for batched detection: bounds the working
#: set (each block holds ~4 float64 temporaries of its own size), shared
#: by the blocks the worker pool runs at once.
_BLOCK_BYTES = 32 << 20


class BlobDetector:
    """Multi-scale DoG detector with calibrated parameters."""

    def __init__(self, params: "DetectorParams | None" = None) -> None:
        self.params = params or DetectorParams()

    def detect(self, frame: np.ndarray) -> list[Detection]:
        """Detect particles in one 2-D frame (any float/int dtype)."""
        img = np.asarray(frame, dtype=np.float64)
        if img.ndim != 2:
            raise ReproError(f"detect() wants a 2-D frame, got shape {img.shape}")
        return self._detect_block(img[None])[0]

    def _detect_block(self, stack: np.ndarray) -> list[list[Detection]]:
        """Batched inference over a (T, H, W) float64 stack.

        All filters run with σ 0 on the frame axis, which is exactly
        per-frame filtering executed in one C call; candidate
        refinement and box math are vectorized across every peak of a
        scale.  Per-frame candidate order (scale-major, then row-major)
        and all float arithmetic match the scalar path bit for bit.
        """
        p = self.params
        n_frames, h, w = stack.shape
        # Remove the slowly varying background so thresholds are about
        # blob contrast, not absolute counts.
        flat = stack - ndimage.gaussian_filter(
            stack, sigma=(0.0, 4.0 * max(p.sigmas), 4.0 * max(p.sigmas))
        )
        candidates: list[list[Detection]] = [[] for _ in range(n_frames)]
        for sigma in p.sigmas:
            # (g1 - g2) * sqrt(sigma), in place: the same float operations
            # with two temporaries fewer.
            response = ndimage.gaussian_filter(flat, (0.0, sigma, sigma))
            response -= ndimage.gaussian_filter(flat, (0.0, sigma * p.k, sigma * p.k))
            response *= sigma ** 0.5
            peaks = (
                (response == ndimage.maximum_filter(response, size=(1, 3, 3)))
                & (response > p.threshold)
            )
            ts, ys, xs = np.nonzero(peaks)
            if not ts.size:
                continue
            r_resp = response[ts, ys, xs]
            conf = r_resp / (r_resp + p.threshold)
            cy, cx, sigma_b = _refine_batch(flat, ts, ys, xs, sigma)
            half_box = np.maximum(p.radius_scale * sigma_b, p.min_radius_px)
            x0 = np.maximum(0.0, cx - half_box)
            y0 = np.maximum(0.0, cy - half_box)
            x1 = np.minimum(float(w - 1), cx + half_box)
            y1 = np.minimum(float(h - 1), cy + half_box)
            for i in range(ts.shape[0]):
                candidates[ts[i]].append(
                    Detection(
                        x0=float(x0[i]),
                        y0=float(y0[i]),
                        x1=float(x1[i]),
                        y1=float(y1[i]),
                        confidence=float(conf[i]),
                        scale=sigma,
                    )
                )
        return [nms(c, p.nms_iou) for c in candidates]

    def detect_movie(self, movie: np.ndarray) -> list[list[Detection]]:
        """Per-frame inference over a (T, H, W) tensor, batched over
        frame blocks (results keep the per-frame list-of-lists shape).

        The blocks run on the worker pool, so the ``_BLOCK_BYTES``
        working-set budget is split between the workers, and no worker
        gets more than its even share of the frames.
        """
        movie = np.asarray(movie)
        if movie.ndim != 3:
            raise ReproError(f"detect_movie() wants (T, H, W), got {movie.shape}")
        n_frames = movie.shape[0]
        n_workers = parallel.workers()
        frame_bytes = max(1, movie.shape[1] * movie.shape[2] * 8)
        block = max(
            1, min(_BLOCK_BYTES // frame_bytes // n_workers, -(-n_frames // n_workers))
        )
        blocks = (movie[t0 : t0 + block] for t0 in range(0, n_frames, block))
        out: list[list[Detection]] = []
        for dets in parallel.imap_ordered(self._detect_frames, blocks):
            out.extend(dets)
        return out

    def _detect_frames(self, frames: np.ndarray) -> list[list[Detection]]:
        return self._detect_block(np.asarray(frames, dtype=np.float64))


def calibrate(
    frames: Sequence[np.ndarray],
    labels: Sequence[Sequence[Box]],
    base: "DetectorParams | None" = None,
    thresholds: Sequence[float] = (4.0, 6.0, 9.0, 14.0, 22.0),
    radius_scales: Sequence[float] = (1.7, 1.85, 2.0, 2.15),
) -> tuple[DetectorParams, float]:
    """"Fine-tune" the detector on hand-labeled frames.

    Grid search over (threshold, radius_scale) maximizing mAP50-95 on
    the training split — the classical analogue of the paper's 100-epoch
    YOLOv8 fine-tuning.  Returns (best params, best training mAP50-95).
    """
    if len(frames) != len(labels) or not frames:
        raise ReproError("calibrate() needs equal-length, non-empty frames/labels")
    base = base or DetectorParams()
    best_params, best_map = base, -1.0
    best_evaluated: list = []
    # Same-shaped training frames run as one batched stack per grid
    # point (identical detections to per-frame detect()); mixed shapes
    # fall back to the per-frame path.
    stack: Optional[np.ndarray] = None
    if len({np.asarray(f).shape for f in frames}) == 1:
        stack = np.stack([np.asarray(f, dtype=np.float64) for f in frames])
    for thr in thresholds:
        for rs in radius_scales:
            params = replace(base, threshold=thr, radius_scale=rs)
            det = BlobDetector(params)
            if stack is not None:
                per_frame = det.detect_movie(stack)
                evaluated = [
                    (dets, list(lbls)) for dets, lbls in zip(per_frame, labels)
                ]
            else:
                evaluated = [
                    (det.detect(f), list(lbls)) for f, lbls in zip(frames, labels)
                ]
            score = map_range(evaluated)
            if score > best_map:
                best_map = score
                best_params = params
                best_evaluated = evaluated
    # Pick the counting/annotation confidence cut: best F1 at IoU 0.5 on
    # the training split (the classical analogue of choosing YOLO's
    # confidence threshold after training).
    best_conf, best_f1 = 0.5, -1.0
    for conf in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
        f1 = _f1_at_confidence(best_evaluated, conf)
        if f1 > best_f1:
            best_f1 = f1
            best_conf = conf
    return replace(best_params, operating_confidence=best_conf), best_map


def _f1_at_confidence(
    evaluated: "list[tuple[list[Detection], list[Box]]]", confidence: float
) -> float:
    """F1 of detections above ``confidence`` at IoU 0.5."""
    from .metrics import match_greedy

    tp = fp = fn = 0
    for dets, truths in evaluated:
        kept = [d for d in dets if d.confidence >= confidence]
        assignment = match_greedy(kept, truths, 0.5)
        matched = sum(1 for a in assignment if a >= 0)
        tp += matched
        fp += len(kept) - matched
        fn += len(truths) - matched
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0
