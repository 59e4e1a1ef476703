"""Reference implementations of the instrument generators.

These are the pre-vectorization per-frame / per-pixel code paths, kept
verbatim as the *numeric ground truth* for the batched implementations
in :mod:`repro.instrument.spatiotemporal` and
:mod:`repro.instrument.phantoms`, plus the float64 hyperspectral
synthesis that :mod:`repro.instrument.xray` replaced:
``tests/test_dataplane_identity.py`` asserts the shipped outputs equal
these across seeds (floats bit for bit, integer counts by value).  They
live with the tests, outside the shipped package.
"""

# repro: noqa-file[P602]  reference loop implementations, pinned on purpose

from __future__ import annotations

import numpy as np

from repro.instrument.phantoms import Particle
from repro.instrument.spatiotemporal import MovieSpec, simulate_trajectories
from repro.instrument.xray import bremsstrahlung, element_template


def render_frame_loops(
    shape: tuple[int, int],
    centers: np.ndarray,
    radii: np.ndarray,
    spec: MovieSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pre-PR ``render_frame``: one background draw + per-particle adds."""
    h, w = shape
    frame = rng.normal(spec.background_level, spec.background_noise, size=shape)
    for (row, col), r in zip(centers, radii):
        sigma = r / 1.8
        half = int(np.ceil(3 * sigma))
        r0, r1 = max(int(row) - half, 0), min(int(row) + half + 1, h)
        c0, c1 = max(int(col) - half, 0), min(int(col) + half + 1, w)
        if r1 <= r0 or c1 <= c0:
            continue
        rr = np.arange(r0, r1, dtype=np.float64)[:, None]
        cc = np.arange(c0, c1, dtype=np.float64)[None, :]
        blob = np.exp(-0.5 * (((rr - row) ** 2 + (cc - col) ** 2) / sigma**2))
        frame[r0:r1, c0:c1] += spec.particle_peak * blob
    np.clip(frame, 0.0, None, out=frame)
    return frame


def generate_movie_loops(
    spec: MovieSpec, rng: "np.random.Generator | None" = None
) -> tuple[np.ndarray, list[list[Particle]]]:
    """Pre-PR ``generate_movie``: one :func:`render_frame_loops` per frame."""
    if rng is None:
        rng = np.random.default_rng(0)
    pos, radii = simulate_trajectories(spec, rng)
    movie = np.empty((spec.n_frames, *spec.shape), dtype=np.float64)
    truth: list[list[Particle]] = []
    for t in range(spec.n_frames):
        movie[t] = render_frame_loops(spec.shape, pos[t], radii, spec, rng)
        truth.append(
            [
                Particle(row=float(r), col=float(c), radius=float(rad), element="Au")
                for (r, c), rad in zip(pos[t], radii)
            ]
        )
    return movie, truth


def _soft_disk_loops(
    shape: tuple[int, int], row: float, col: float, radius: float, softness: float = 1.0
) -> np.ndarray:
    """Pre-PR ``_soft_disk``: full-frame distance transform per particle."""
    rr = np.arange(shape[0], dtype=np.float64)[:, None]
    cc = np.arange(shape[1], dtype=np.float64)[None, :]
    d = np.sqrt((rr - row) ** 2 + (cc - col) ** 2)
    return np.clip((radius - d) / max(softness, 1e-6) + 0.5, 0.0, 1.0)


def particle_mask_loops(
    shape: tuple[int, int], particles: "list[Particle]"
) -> np.ndarray:
    """Pre-PR ``particle_mask``: one full-frame soft disk per particle."""
    out = np.zeros(shape, dtype=np.float64)
    for p in particles:
        out += _soft_disk_loops(shape, p.row, p.col, p.radius)
    return out


def synthesize_cube_reference(
    composition_maps: "dict[str, np.ndarray]",
    energies: np.ndarray,
    rng: np.random.Generator,
    counts_per_pixel: float = 2000.0,
    background_fraction: float = 0.15,
    resolution_ev: float = 130.0,
    beam_energy_kev: float = 300.0,
    poisson: bool = True,
) -> np.ndarray:
    """Frozen float64 ``synthesize_cube``: the float work in einsum's
    memory order, the Poisson draw from that E-major λ, and the counts
    returned as float64."""
    elements = sorted(composition_maps)
    e = np.asarray(energies, dtype=np.float64)
    weights = np.stack(
        [np.asarray(composition_maps[el], dtype=np.float64) for el in elements]
    )  # K x H x W
    templates = np.stack(
        [element_template(el, e, resolution_ev) for el in elements]
    )  # K x E
    cube = np.einsum("khw,ke->hwe", weights, templates, optimize=True)
    total_mass = weights.sum(axis=0)  # H x W
    cont = bremsstrahlung(e, beam_energy_kev)
    cube += background_fraction * total_mass[:, :, None] * cont[None, None, :]
    norm = cube.sum(axis=2, keepdims=True)
    scale = counts_per_pixel * np.divide(
        total_mass[:, :, None], norm, out=np.zeros_like(norm), where=norm > 0
    )
    cube *= scale
    if poisson:
        cube = rng.poisson(cube).astype(np.float64)
    return cube
