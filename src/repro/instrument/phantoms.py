"""Synthetic sample phantoms.

:func:`polyamide_film_phantom` is the Fig. 2 sample: a polyamide organic
membrane (C/N/O matrix with ridge-and-valley thickness variations, as in
reverse-osmosis films) treated to capture heavy metals, so Au/Pb
particles decorate the film surface.  It returns composition maps (for
hyperspectral synthesis) and ground-truth :class:`Particle` records.
The Fig. 3 sample, gold nanoparticles moving on carbon, is rendered
frame by frame in :mod:`repro.instrument.spatiotemporal`, which reuses
:class:`Particle` for its ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError

__all__ = ["Particle", "polyamide_film_phantom", "particle_mask"]


@dataclass(frozen=True)
class Particle:
    """Ground-truth particle: center (row, col), radius (px), element."""

    row: float
    col: float
    radius: float
    element: str = "Au"


def particle_mask(shape: tuple[int, int], particles: "list[Particle]") -> np.ndarray:
    """Sum of soft disks for ``particles`` (values may exceed 1 where
    particles overlap).

    Each disk is evaluated only on the window where it can be non-zero:
    the soft edge reaches exactly ``radius + softness/2`` pixels from
    the center, so pixels beyond that contribute an exact ``+0.0`` and
    may be skipped without changing a single bit of the result (cost
    scales with particle area, not frame area — the same windowing the
    movie renderer uses).
    """
    h, w = shape
    softness = 1.0
    out = np.zeros(shape, dtype=np.float64)
    for p in particles:
        reach = p.radius + 0.5 * softness
        r0 = max(int(np.floor(p.row - reach)), 0)
        r1 = min(int(np.ceil(p.row + reach)) + 1, h)
        c0 = max(int(np.floor(p.col - reach)), 0)
        c1 = min(int(np.ceil(p.col + reach)) + 1, w)
        if r1 <= r0 or c1 <= c0:
            continue
        rr = np.arange(r0, r1, dtype=np.float64)[:, None]
        cc = np.arange(c0, c1, dtype=np.float64)[None, :]
        d = np.sqrt((rr - p.row) ** 2 + (cc - p.col) ** 2)
        out[r0:r1, c0:c1] += np.clip(
            (p.radius - d) / max(softness, 1e-6) + 0.5, 0.0, 1.0
        )
    return out


def _place_particles(
    shape: tuple[int, int],
    n: int,
    rng: np.random.Generator,
    radius_range: tuple[float, float],
    margin: float,
    element: str,
) -> list[Particle]:
    h, w = shape
    # Clamp radii so every particle fits inside the margins even on small
    # test-scale frames.
    limit = (min(h, w) - 2.0 * margin) / 2.0 - 1.0
    if limit <= 1.0:
        raise ReproError(
            f"frame {shape} too small for particles with margin {margin}"
        )
    r_lo = min(radius_range[0], limit)
    r_hi = max(r_lo, min(radius_range[1], limit))
    particles = []
    for _ in range(n):
        r = float(rng.uniform(r_lo, r_hi))
        particles.append(
            Particle(
                row=float(rng.uniform(margin + r, h - margin - r)),
                col=float(rng.uniform(margin + r, w - margin - r)),
                radius=r,
                element=element,
            )
        )
    return particles


def polyamide_film_phantom(
    shape: tuple[int, int] = (256, 256),
    rng: "np.random.Generator | None" = None,
    n_gold: int = 12,
    n_lead: int = 6,
) -> tuple[dict[str, np.ndarray], list[Particle]]:
    """Composition maps + particles for the polyamide heavy-metal sample.

    The film is a C/N/O matrix whose local thickness follows a smooth
    ridge-and-valley texture; Au and Pb decorate it as captured species.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    h, w = shape
    if h < 16 or w < 16:
        raise ReproError(f"phantom too small: {shape}")

    # Ridge-and-valley film thickness: sum of low-frequency cosines with
    # random phase, normalized to [0.4, 1].
    rr = np.arange(h)[:, None] / h
    cc = np.arange(w)[None, :] / w
    tex = np.zeros(shape, dtype=np.float64)
    for _ in range(6):
        fr, fc = rng.uniform(1, 5, size=2)
        ph_r, ph_c = rng.uniform(0, 2 * np.pi, size=2)
        tex += rng.uniform(0.4, 1.0) * np.cos(2 * np.pi * fr * rr + ph_r) * np.cos(
            2 * np.pi * fc * cc + ph_c
        )
    tex = (tex - tex.min()) / (tex.max() - tex.min() + 1e-12)
    thickness = 0.4 + 0.6 * tex

    # Polyamide stoichiometry (C6H11NO): relative C:N:O mass weights.
    comp = {
        "C": 0.62 * thickness,
        "N": 0.12 * thickness,
        "O": 0.26 * thickness,
    }

    particles = _place_particles(shape, n_gold, rng, (3.0, 8.0), 8.0, "Au")
    particles += _place_particles(shape, n_lead, rng, (2.0, 6.0), 8.0, "Pb")
    comp["Au"] = 2.0 * particle_mask(shape, [p for p in particles if p.element == "Au"])
    comp["Pb"] = 1.5 * particle_mask(shape, [p for p in particles if p.element == "Pb"])
    return comp, particles
