"""Reference loop implementations of the analysis kernels.

Pre-vectorization per-frame / per-peak code paths, kept verbatim as the
*numeric ground truth* for the batched implementations in
:mod:`repro.analysis.detection` and :mod:`repro.analysis.hyperspectral`:
``tests/test_dataplane_identity.py`` asserts the vectorized outputs are
bit-for-bit equal to these across seeds.  They live with the tests,
outside the shipped package.
"""

# repro: noqa-file[P602]  reference loop implementations, pinned on purpose

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import ndimage

from repro.analysis.detection import Detection, DetectorParams
from repro.analysis.hyperspectral import ElementHit
from repro.analysis.metrics import Box, iou_matrix
from repro.instrument.xray import ELEMENT_LINES


def _center_inside_loops(inner: Box, outer: Box) -> bool:
    cx, cy = inner.center
    return outer.x0 <= cx <= outer.x1 and outer.y0 <= cy <= outer.y1


def nms_loops(dets: Sequence[Detection], iou_threshold: float) -> list[Detection]:
    """Pre-PR ``nms``: per-candidate ``iou_matrix`` calls against kept."""
    if not dets:
        return []
    order = sorted(dets, key=lambda d: -d.confidence)
    kept: list[Detection] = []
    for d in order:
        if not kept:
            kept.append(d)
            continue
        m = iou_matrix([d], kept)
        if m.max() >= iou_threshold:
            continue
        if any(_center_inside_loops(d, k) or _center_inside_loops(k, d) for k in kept):
            continue
        kept.append(d)
    return kept


def _refine_blob_loops(
    flat: np.ndarray, y: int, x: int, sigma: float
) -> tuple[float, float, float]:
    """Pre-PR ``_refine_blob``: scalar flux-weighted moments."""
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


def detect_loops(frame: np.ndarray, params: "DetectorParams | None" = None) -> list[Detection]:
    """Pre-PR ``BlobDetector.detect``: per-peak Python candidate loop."""
    img = np.asarray(frame, dtype=np.float64)
    p = params or DetectorParams()
    background = ndimage.gaussian_filter(img, sigma=4.0 * max(p.sigmas))
    flat = img - background

    h, w = img.shape
    candidates: list[Detection] = []
    for sigma in p.sigmas:
        g1 = ndimage.gaussian_filter(flat, sigma)
        g2 = ndimage.gaussian_filter(flat, sigma * p.k)
        response = (g1 - g2) * (sigma ** 0.5)
        peaks = (
            (response == ndimage.maximum_filter(response, size=3))
            & (response > p.threshold)
        )
        ys, xs = np.nonzero(peaks)
        for y, x in zip(ys, xs):
            r_resp = float(response[y, x])
            conf = r_resp / (r_resp + p.threshold)
            cy, cx, sigma_b = _refine_blob_loops(flat, int(y), int(x), sigma)
            half_box = max(p.radius_scale * sigma_b, p.min_radius_px)
            candidates.append(
                Detection(
                    x0=max(0.0, cx - half_box),
                    y0=max(0.0, cy - half_box),
                    x1=min(float(w - 1), cx + half_box),
                    y1=min(float(h - 1), cy + half_box),
                    confidence=float(conf),
                    scale=sigma,
                )
            )
    return nms_loops(candidates, p.nms_iou)


def detect_movie_loops(
    movie: np.ndarray, params: "DetectorParams | None" = None
) -> list[list[Detection]]:
    """Pre-PR ``detect_movie``: a per-frame Python list of ``detect``."""
    movie = np.asarray(movie)
    return [detect_loops(movie[t], params) for t in range(movie.shape[0])]


def identify_elements_loops(
    spectrum: np.ndarray,
    energies: np.ndarray,
    tolerance_ev: float = 60.0,
    min_prominence_frac: float = 0.01,
) -> list[ElementHit]:
    """Pre-PR ``identify_elements``: per-peak × per-line matching loop."""
    spectrum = np.asarray(spectrum, dtype=np.float64)
    energies = np.asarray(energies, dtype=np.float64)
    width = max(9, len(spectrum) // 24) | 1  # odd
    continuum = ndimage.median_filter(spectrum, size=width, mode="nearest")
    residual = spectrum - continuum
    peaks_mask = (
        (residual == ndimage.maximum_filter(residual, size=5))
        & (residual > 0)
    )
    if not peaks_mask.any():
        return []
    threshold = residual[peaks_mask].max() * min_prominence_frac
    peak_idx = np.nonzero(peaks_mask & (residual > threshold))[0]

    hits: dict[tuple[str, str], ElementHit] = {}
    for i in peak_idx:
        e_peak = energies[i]
        prominence = float(residual[i])
        best: "tuple[float, str, str, float] | None" = None
        for element, lines in ELEMENT_LINES.items():
            for line in lines:
                delta = abs(line.energy_ev - e_peak)
                if delta <= tolerance_ev and (best is None or delta < best[0]):
                    best = (delta, element, line.label, line.energy_ev)
        if best is None:
            continue
        _, element, label, line_energy = best
        key = (element, label)
        if key not in hits or hits[key].prominence < prominence:
            hits[key] = ElementHit(
                element=element,
                line_label=label,
                line_energy_ev=line_energy,
                peak_energy_ev=float(e_peak),
                prominence=prominence,
            )
    return sorted(hits.values(), key=lambda h: -h.prominence)
