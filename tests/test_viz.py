"""Tests for the visualization substrate."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.viz import (
    BoxStats,
    annotate_frame,
    apply_colormap,
    box_chart,
    draw_box,
    encode_png,
    image_figure,
    line_chart,
    nice_ticks,
    normalize,
    png_dimensions,
    to_rgb,
)


# -- PNG ---------------------------------------------------------------------


def decode_png_pixels(data: bytes) -> np.ndarray:
    """Tiny reference decoder for filter-0 PNGs (test-only)."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    pos = 8
    w = h = None
    color_type = None
    idat = b""
    while pos < len(data):
        length = int.from_bytes(data[pos : pos + 4], "big")
        kind = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        if kind == b"IHDR":
            w = int.from_bytes(payload[0:4], "big")
            h = int.from_bytes(payload[4:8], "big")
            color_type = payload[9]
        elif kind == b"IDAT":
            idat += payload
        pos += 12 + length
    raw = zlib.decompress(idat)
    channels = 3 if color_type == 2 else 1
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, 1 + w * channels)
    assert (rows[:, 0] == 0).all()  # filter byte 0
    pix = rows[:, 1:]
    return pix.reshape(h, w, channels) if channels == 3 else pix.reshape(h, w)


def test_png_grayscale_roundtrip():
    img = np.arange(0, 250, dtype=np.uint8).reshape(25, 10)
    data = encode_png(img)
    assert png_dimensions(data) == (10, 25)
    np.testing.assert_array_equal(decode_png_pixels(data), img)


def test_png_rgb_roundtrip():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (8, 12, 3), dtype=np.uint8)
    data = encode_png(img)
    assert png_dimensions(data) == (12, 8)
    np.testing.assert_array_equal(decode_png_pixels(data), img)


def test_png_rejects_bad_inputs():
    with pytest.raises(ValueError):
        encode_png(np.zeros((4, 4), dtype=np.float64))
    with pytest.raises(ValueError):
        encode_png(np.zeros((4, 4, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        encode_png(np.zeros((0, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        png_dimensions(b"not a png")


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.booleans(), st.integers(0, 2**31))
def test_png_roundtrip_property(h, w, rgb, seed):
    rng = np.random.default_rng(seed)
    shape = (h, w, 3) if rgb else (h, w)
    img = rng.integers(0, 256, shape, dtype=np.uint8)
    np.testing.assert_array_equal(decode_png_pixels(encode_png(img)), img)


# -- colormaps -----------------------------------------------------------------


def test_normalize_range():
    v = normalize(np.array([2.0, 4.0, 6.0]))
    np.testing.assert_allclose(v, [0, 0.5, 1.0])


def test_normalize_constant_input():
    np.testing.assert_array_equal(normalize(np.full(5, 3.0)), np.zeros(5))


def test_apply_colormap_endpoints():
    rgb = apply_colormap(np.array([0.0, 1.0]), "viridis")
    np.testing.assert_array_equal(rgb[0], [68, 1, 84])  # viridis low
    np.testing.assert_array_equal(rgb[1], [253, 231, 37])  # viridis high


def test_apply_colormap_gray_is_linear():
    rgb = apply_colormap(np.linspace(0, 1, 11), "gray")
    assert rgb.shape == (11, 3)
    # monotone non-decreasing in every channel
    assert (np.diff(rgb.astype(int), axis=0) >= 0).all()


def test_apply_colormap_unknown_name():
    with pytest.raises(ValueError, match="unknown colormap"):
        apply_colormap(np.zeros(3), "jet2000")


def test_apply_colormap_2d_shape():
    out = apply_colormap(np.zeros((5, 7)), "inferno")
    assert out.shape == (5, 7, 3)
    assert out.dtype == np.uint8


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(["viridis", "inferno", "gray"]))
def test_colormap_output_bounds(seed, name):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(4, 4)) * rng.uniform(0.1, 100)
    out = apply_colormap(vals, name)
    assert out.dtype == np.uint8
    assert out.shape == (4, 4, 3)


# -- SVG charts ----------------------------------------------------------------


def test_nice_ticks_cover_range():
    ticks = nice_ticks(0, 100)
    assert ticks[0] >= 0 and ticks[-1] <= 100
    assert len(ticks) >= 3
    steps = np.diff(ticks)
    assert np.allclose(steps, steps[0])


def test_nice_ticks_degenerate():
    assert nice_ticks(5, 5)  # non-empty
    assert nice_ticks(float("nan"), 1) == [0.0]


def test_line_chart_structure():
    svg = line_chart(
        [("spectrum", [0, 1, 2], [5.0, 3.0, 4.0])],
        title="Spectrum",
        xlabel="energy (eV)",
        ylabel="counts",
    )
    assert svg.startswith("<svg")
    assert svg.endswith("</svg>")
    assert "polyline" in svg
    assert "Spectrum" in svg
    assert "energy (eV)" in svg


def test_line_chart_multi_series_legend():
    svg = line_chart(
        [("a", [0, 1], [0, 1]), ("b", [0, 1], [1, 0])],
    )
    assert svg.count("polyline") == 2
    assert "&gt;" not in svg  # no stray escapes from plain labels


def test_line_chart_rejects_empty():
    with pytest.raises(ValueError):
        line_chart([])
    with pytest.raises(ValueError):
        line_chart([("x", [], [])])


def test_line_chart_escapes_labels():
    svg = line_chart([("a<b>&", [0, 1], [0, 1])], title="t<i>&")
    assert "a&lt;b&gt;&amp;" in svg
    assert "t&lt;i&gt;&amp;" in svg


def test_box_stats_from_samples():
    b = BoxStats.from_samples("transfer", [1, 2, 3, 4, 100])
    assert b.minimum == 1 and b.maximum == 100
    assert b.median == 3


def test_box_stats_empty_rejected():
    with pytest.raises(ValueError):
        BoxStats.from_samples("x", [])


def test_box_chart_structure():
    boxes = [
        BoxStats.from_samples("Transfer", [10, 12, 14, 18]),
        BoxStats.from_samples("Analysis", [3, 4, 5, 6]),
    ]
    svg = box_chart(boxes, title="Runtime", ylabel="seconds")
    assert "Transfer" in svg and "Analysis" in svg
    assert svg.count("<rect") >= 4

    with pytest.raises(ValueError):
        box_chart([])


def test_image_figure_embeds_png():
    png = encode_png(np.zeros((10, 20), dtype=np.uint8))
    svg = image_figure(png, title="Intensity", caption="sum over energy")
    assert "data:image/png;base64," in svg
    assert "Intensity" in svg and "sum over energy" in svg


# -- annotation -----------------------------------------------------------------


class _Box:
    def __init__(self, x0, y0, x1, y1, confidence=1.0):
        self.x0, self.y0, self.x1, self.y1 = x0, y0, x1, y1
        self.confidence = confidence


def test_to_rgb_shapes():
    g = np.zeros((4, 5), dtype=np.uint8)
    rgb = to_rgb(g)
    assert rgb.shape == (4, 5, 3)
    again = to_rgb(rgb)
    assert again.shape == (4, 5, 3)
    with pytest.raises(ValueError):
        to_rgb(np.zeros((4, 5), dtype=np.float32))


def test_draw_box_edges_only():
    img = np.zeros((10, 10, 3), dtype=np.uint8)
    draw_box(img, 2, 2, 7, 7, color=(255, 0, 0))
    assert (img[2, 2:8, 0] == 255).all()  # top edge
    assert (img[7, 2:8, 0] == 255).all()  # bottom edge
    assert (img[2:8, 2, 0] == 255).all()  # left
    assert (img[2:8, 7, 0] == 255).all()  # right
    assert img[4, 4].sum() == 0  # interior untouched


def test_draw_box_clips_out_of_bounds():
    img = np.zeros((5, 5, 3), dtype=np.uint8)
    draw_box(img, -10, -10, 100, 100)
    draw_box(img, 100, 100, 200, 200)  # fully outside: no-op
    assert img.shape == (5, 5, 3)


def test_annotate_frame_filters_by_confidence():
    frame = np.zeros((20, 20), dtype=np.uint8)
    boxes = [_Box(1, 1, 5, 5, confidence=0.9), _Box(10, 10, 15, 15, confidence=0.1)]
    rgb = annotate_frame(frame, boxes, confidence_threshold=0.5)
    assert rgb[1, 1].sum() > 0  # high-confidence drawn
    assert rgb[10, 10].sum() == 0  # low-confidence skipped
