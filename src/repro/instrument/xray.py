"""Characteristic X-ray line physics for hyperspectral (EDS) synthesis.

The XPAD detector on the Dynamic PicoProbe collects energy-dispersive
X-ray spectra per probe position.  This module synthesizes physically
flavoured spectra: Gaussian characteristic lines at tabulated energies,
a Kramers-style bremsstrahlung continuum, detector energy resolution, and
Poisson counting noise.  Cube synthesis is fully vectorized — one
spectral template per element, combined with per-pixel composition maps
by a single einsum — and a noisy cube holds photon counts as unsigned
integers (uint16 unless a count needs more), the way EDS detectors
report them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import ReproError

__all__ = ["XRayLine", "ELEMENT_LINES", "element_template", "synthesize_cube", "energy_axis"]


@dataclass(frozen=True)
class XRayLine:
    """One characteristic emission line."""

    label: str  # e.g. "Au-Ma"
    energy_ev: float
    relative_intensity: float  # within its element, strongest = 1.0


#: Characteristic lines (eV) for the elements the use cases involve:
#: the polyamide membrane (C/N/O), heavy-metal uptake (Au/Pb), supports
#: and common contaminants.  Energies from standard EDS tables.
ELEMENT_LINES: dict[str, tuple[XRayLine, ...]] = {
    "C": (XRayLine("C-Ka", 277.0, 1.0),),
    "N": (XRayLine("N-Ka", 392.4, 1.0),),
    "O": (XRayLine("O-Ka", 524.9, 1.0),),
    "Si": (XRayLine("Si-Ka", 1739.9, 1.0),),
    "S": (XRayLine("S-Ka", 2307.8, 1.0),),
    "Cl": (XRayLine("Cl-Ka", 2622.4, 1.0),),
    "Cu": (
        XRayLine("Cu-La", 929.7, 0.4),
        XRayLine("Cu-Ka", 8046.3, 1.0),
        XRayLine("Cu-Kb", 8905.3, 0.15),
    ),
    "Au": (
        XRayLine("Au-Ma", 2122.9, 1.0),
        XRayLine("Au-La", 9713.3, 0.6),
        XRayLine("Au-Lb", 11442.3, 0.25),
    ),
    "Pb": (
        XRayLine("Pb-Ma", 2345.5, 1.0),
        XRayLine("Pb-La", 10551.5, 0.55),
    ),
}


def energy_axis(n_channels: int = 1024, ev_per_channel: float = 12.0, offset_ev: float = 0.0) -> np.ndarray:
    """Detector energy axis in eV (channel centers)."""
    if n_channels < 1:
        raise ReproError(f"n_channels must be >= 1, got {n_channels}")
    return offset_ev + ev_per_channel * (np.arange(n_channels, dtype=np.float64) + 0.5)


def element_template(
    element: str,
    energies: np.ndarray,
    resolution_ev: float = 130.0,
) -> np.ndarray:
    """Unit-intensity spectral template for ``element`` on ``energies``.

    ``resolution_ev`` is the detector FWHM at Mn-Kα; peak width grows as
    sqrt(E) in real EDS detectors, approximated here by scaling FWHM with
    sqrt(E / 5899 eV).
    """
    try:
        lines = ELEMENT_LINES[element]
    except KeyError:
        raise ReproError(
            f"no line table for element {element!r}; known: {sorted(ELEMENT_LINES)}"
        ) from None
    e = np.asarray(energies, dtype=np.float64)
    out = np.zeros_like(e)
    for line in lines:
        fwhm = resolution_ev * np.sqrt(max(line.energy_ev, 1.0) / 5899.0)
        sigma = fwhm / 2.3548
        out += line.relative_intensity * np.exp(
            -0.5 * ((e - line.energy_ev) / sigma) ** 2
        )
    peak = out.max()
    return out / peak if peak > 0 else out


def bremsstrahlung(energies: np.ndarray, beam_energy_kev: float = 300.0) -> np.ndarray:
    """Kramers-law continuum: intensity ∝ (E0 - E) / E, clipped at 0."""
    e = np.asarray(energies, dtype=np.float64)
    e0 = beam_energy_kev * 1e3
    cont = np.clip(e0 - e, 0.0, None) / np.maximum(e, e[0])
    m = cont.max()
    return cont / m if m > 0 else cont


def synthesize_cube(
    composition_maps: Mapping[str, np.ndarray],
    energies: np.ndarray,
    rng: np.random.Generator,
    counts_per_pixel: float = 2000.0,
    background_fraction: float = 0.15,
    resolution_ev: float = 130.0,
    beam_energy_kev: float = 300.0,
    poisson: bool = True,
) -> np.ndarray:
    """Synthesize an H×W×E hyperspectral cube.

    ``composition_maps`` maps element symbol → H×W non-negative weight
    map (relative abundance at each pixel).  The expected spectrum at a
    pixel is the weighted sum of element templates plus a continuum
    scaled by total local mass; Poisson noise models counting statistics.

    With ``poisson=True`` the cube holds the drawn counts as uint16, or
    as the smallest unsigned type that holds the largest count when it
    passes 65,535.  With ``poisson=False`` it is the float64 expectation
    λ.  Either way the array is C-contiguous.
    """
    elements = sorted(composition_maps)
    if not elements:
        raise ReproError("composition_maps must contain at least one element")
    shapes = {composition_maps[el].shape for el in elements}
    if len(shapes) != 1:
        raise ReproError(f"composition maps disagree on shape: {shapes}")
    (hw,) = shapes
    if len(hw) != 2:
        raise ReproError(f"composition maps must be 2-D, got shape {hw}")

    e = np.asarray(energies, dtype=np.float64)
    weights = np.stack(
        [np.asarray(composition_maps[el], dtype=np.float64) for el in elements]
    )  # K x H x W
    if (weights < 0).any():
        raise ReproError("composition weights must be non-negative")
    templates = np.stack(
        [element_template(el, e, resolution_ev) for el in elements]
    )  # K x E

    # Expected signal: per-pixel weighted sum of templates (K contraction).
    # einsum hands the H×W×E cube back energy-major in memory (its E×H×W
    # view is the C-contiguous one), so the continuum, the norm and the
    # scale run on that view and walk memory in order.  numpy reduces in
    # memory order, so every float equals the H×W×E arithmetic's.  A
    # C-order copy taken before this point would not: its norm would
    # switch to pairwise summation and move λ's last bits.
    cube = np.einsum("khw,ke->hwe", weights, templates, optimize=True)
    ehw = cube.transpose(2, 0, 1)
    total_mass = weights.sum(axis=0)  # H x W
    cont = bremsstrahlung(e, beam_energy_kev)
    ehw += (background_fraction * total_mass) * cont[:, None, None]

    # Normalize so a unit-mass pixel integrates to counts_per_pixel.
    norm = ehw.sum(axis=0)
    ehw *= counts_per_pixel * np.divide(
        total_mass, norm, out=np.zeros_like(norm), where=norm > 0
    )
    # The draw fills the cube in C order, so it reads a C-order λ in
    # order.  The E-major array is released first: it and the int64
    # draw are never alive at once.
    lam = np.ascontiguousarray(cube)
    del cube, ehw
    if not poisson:
        return lam
    counts = rng.poisson(lam)
    del lam
    top = int(counts.max(initial=0))
    return counts.astype(np.promote_types(np.uint16, np.min_scalar_type(top)))
