"""The simulated Dynamic PicoProbe instrument.

Physics-flavoured synthetic data generation (X-ray line spectra,
Brownian nanoparticle movies), the stateful microscope model, and the
Sec. 3.3 periodic file copier that drives the performance campaigns.
"""

from .acquisition import (
    HYPERSPECTRAL_USE_CASE,
    SPATIOTEMPORAL_USE_CASE,
    FileCopier,
    UseCaseSpec,
)
from .microscope import CAMERA_DETECTOR, XPAD_DETECTOR, PicoProbe
from .phantoms import Particle, particle_mask, polyamide_film_phantom
from .spatiotemporal import MotionModel, MovieSpec, generate_movie, simulate_trajectories
from .xray import ELEMENT_LINES, XRayLine, element_template, energy_axis, synthesize_cube

__all__ = [
    "PicoProbe",
    "XPAD_DETECTOR",
    "CAMERA_DETECTOR",
    "FileCopier",
    "UseCaseSpec",
    "HYPERSPECTRAL_USE_CASE",
    "SPATIOTEMPORAL_USE_CASE",
    "Particle",
    "polyamide_film_phantom",
    "particle_mask",
    "MovieSpec",
    "MotionModel",
    "generate_movie",
    "simulate_trajectories",
    "XRayLine",
    "ELEMENT_LINES",
    "element_template",
    "energy_axis",
    "synthesize_cube",
]
