"""Spatiotemporal movie synthesis: gold nanoparticles in Brownian motion.

The paper's second use case is a 600-frame movie of gold nanoparticles
moving on a carbon background (Sec. 3.2).  This module simulates particle
trajectories (Brownian diffusion + slow drift, reflective boundaries) and
renders detector-count frames: bright Gaussian blobs on a noisy support
film, stored float64 exactly as the paper's EMD files are (the expensive
fp64→uint8 cast in the conversion step is then faithful).

Rendering is windowed: each particle touches only a local ±3σ patch, so
cost scales with particle area, not frame area.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError
from .phantoms import Particle

__all__ = ["MotionModel", "MovieSpec", "simulate_trajectories", "generate_movie"]


@dataclass(frozen=True)
class MotionModel:
    """Brownian + drift kinematics in pixels/frame."""

    diffusion_px: float = 1.5  # per-axis std of the Brownian step
    drift_px: tuple[float, float] = (0.05, 0.02)  # (row, col) per frame
    margin_px: float = 4.0  # reflective wall inset


@dataclass(frozen=True)
class MovieSpec:
    """Geometry and radiometry of a synthetic movie."""

    n_frames: int = 600
    shape: tuple[int, int] = (640, 640)
    n_particles: int = 20
    radius_range: tuple[float, float] = (6.0, 14.0)
    background_level: float = 120.0  # mean carbon-support counts
    background_noise: float = 12.0  # gaussian read noise std
    particle_peak: float = 2400.0  # peak counts at particle center
    motion: MotionModel = field(default_factory=MotionModel)


def simulate_trajectories(
    spec: MovieSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(positions, radii)``: positions is (T, N, 2) float64
    (row, col), radii is (N,).  Walls reflect; radii are constant."""
    if spec.n_frames < 1 or spec.n_particles < 1:
        raise ReproError("movie needs at least one frame and one particle")
    h, w = spec.shape
    m = spec.motion
    radii = rng.uniform(*spec.radius_range, size=spec.n_particles)
    lo = m.margin_px + radii  # per-particle wall inset
    hi_r = h - m.margin_px - radii
    hi_c = w - m.margin_px - radii
    if (hi_r <= lo).any() or (hi_c <= lo).any():
        raise ReproError(f"frame {spec.shape} too small for radii up to {radii.max():.1f}")

    pos = np.empty((spec.n_frames, spec.n_particles, 2), dtype=np.float64)
    pos[0, :, 0] = rng.uniform(lo, hi_r)
    pos[0, :, 1] = rng.uniform(lo, hi_c)
    steps = rng.normal(0.0, m.diffusion_px, size=(spec.n_frames - 1, spec.n_particles, 2))
    steps[..., 0] += m.drift_px[0]
    steps[..., 1] += m.drift_px[1]
    for t in range(1, spec.n_frames):
        p = pos[t - 1] + steps[t - 1]
        # Reflect off per-particle walls (one bounce is enough for small steps).
        p[:, 0] = np.where(p[:, 0] < lo, 2 * lo - p[:, 0], p[:, 0])
        p[:, 0] = np.where(p[:, 0] > hi_r, 2 * hi_r - p[:, 0], p[:, 0])
        p[:, 1] = np.where(p[:, 1] < lo, 2 * lo - p[:, 1], p[:, 1])
        p[:, 1] = np.where(p[:, 1] > hi_c, 2 * hi_c - p[:, 1], p[:, 1])
        pos[t] = p
    return pos, radii


def generate_movie(
    spec: MovieSpec, rng: "np.random.Generator | None" = None
) -> tuple[np.ndarray, list[list[Particle]]]:
    """Simulate and render a full movie.

    Returns ``(movie, truth)`` where ``movie`` is (T, H, W) float64 and
    ``truth[t]`` lists the ground-truth :class:`Particle` records for
    frame ``t`` (bounding boxes at ±radius around each center).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    pos, radii = simulate_trajectories(spec, rng)
    n_frames = spec.n_frames
    h, w = spec.shape
    # One batched draw for every background: a Generator consumes the
    # bit stream in C order, so a (T, H, W) normal() is bit-identical
    # to T sequential (H, W) draws.
    movie = rng.normal(
        spec.background_level, spec.background_noise, size=(n_frames, h, w)
    )
    # Particle blobs, batched over frames.  Radii are constant, so each
    # particle has one window size for the whole movie; frames whose
    # window stays inside the frame (the vast majority, given the
    # reflective wall margins) are scattered in one fancy-indexed add —
    # frame indices are distinct, so ``+=`` accumulates exactly once
    # per pixel, in the same particle-major order as the per-frame
    # loop.  Wall-clipped frames fall back to the windowed scalar path.
    # The particle loop stays Python (N ≈ 20): each iteration is one
    # whole-movie fancy-indexed scatter, and particle-major order is
    # what keeps the per-pixel accumulation order — and therefore the
    # float sums — bit-identical to the per-frame reference.
    t_all = np.arange(n_frames)
    for n in range(radii.shape[0]):  # repro: noqa[P602]
        r = radii[n]
        sigma = r / 1.8
        half = int(np.ceil(3 * sigma))
        k = 2 * half + 1
        rows = pos[:, n, 0]
        cols = pos[:, n, 1]
        ir = rows.astype(np.int64)  # positions are positive: trunc == floor
        ic = cols.astype(np.int64)
        r0 = ir - half
        c0 = ic - half
        interior = (r0 >= 0) & (ir + half + 1 <= h) & (c0 >= 0) & (ic + half + 1 <= w)
        t_in = t_all[interior]
        if t_in.size:
            offs = np.arange(k, dtype=np.int64)
            rr_idx = r0[t_in, None] + offs  # (Ti, K)
            cc_idx = c0[t_in, None] + offs
            dr2 = (rr_idx.astype(np.float64) - rows[t_in, None]) ** 2
            dc2 = (cc_idx.astype(np.float64) - cols[t_in, None]) ** 2
            # The transcendental work — one exp over every (frame, K, K)
            # window — is batched; the writes stay contiguous slice-adds
            # (a fancy-indexed scatter is slower than K×K slice adds).
            blob = np.exp(
                -0.5 * ((dr2[:, :, None] + dc2[:, None, :]) / sigma**2)
            )
            blob *= spec.particle_peak
            for j, t in enumerate(t_in):
                movie[t, r0[t] : r0[t] + k, c0[t] : c0[t] + k] += blob[j]
        for t in t_all[~interior]:
            row, col = rows[t], cols[t]
            b0, b1 = max(ir[t] - half, 0), min(ir[t] + half + 1, h)
            d0, d1 = max(ic[t] - half, 0), min(ic[t] + half + 1, w)
            if b1 <= b0 or d1 <= d0:
                continue
            rr = np.arange(b0, b1, dtype=np.float64)[:, None]
            cc = np.arange(d0, d1, dtype=np.float64)[None, :]
            blob = np.exp(-0.5 * (((rr - row) ** 2 + (cc - col) ** 2) / sigma**2))
            movie[t, b0:b1, d0:d1] += spec.particle_peak * blob
    np.clip(movie, 0.0, None, out=movie)
    pos_list = pos.tolist()
    radii_list = [float(rad) for rad in radii]
    truth: list[list[Particle]] = [
        [
            Particle(row=rc[0], col=rc[1], radius=rad, element="Au")
            for rc, rad in zip(frame_pos, radii_list)
        ]
        for frame_pos in pos_list
    ]
    return movie, truth
