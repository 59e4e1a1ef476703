"""Visualization substrate: PNG encoding, colormaps, SVG charts, and frame
annotation — everything the portal and figure benches render, built from
scratch (matplotlib-free)."""

from .png import encode_png, png_dimensions
from .colormap import COLORMAPS, apply_colormap, normalize
from .svg import BoxStats, box_chart, image_figure, line_chart, nice_ticks
from .render import ORANGE, annotate_frame, draw_box, to_rgb

__all__ = [
    "encode_png",
    "png_dimensions",
    "apply_colormap",
    "normalize",
    "COLORMAPS",
    "line_chart",
    "box_chart",
    "image_figure",
    "BoxStats",
    "nice_ticks",
    "annotate_frame",
    "draw_box",
    "to_rgb",
    "ORANGE",
]
