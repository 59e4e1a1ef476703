"""From-scratch SVG chart renderer.

Produces the paper's figure types without matplotlib:

* :func:`line_chart` — spectra (Fig. 2B), per-frame particle counts;
* :func:`box_chart` — the itemized runtime statistics of Fig. 4;
* :func:`image_figure` — a PNG heatmap embedded with axis decorations
  (Fig. 2A).

Charts are standalone SVG documents (also embeddable in portal HTML).
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = ["line_chart", "box_chart", "image_figure", "BoxStats", "nice_ticks"]

PALETTE = ["#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377", "#bbbbbb"]
FONT = "font-family='Helvetica,Arial,sans-serif'"


def nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/5×10^k step."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0]
    if hi <= lo:
        hi = lo + 1.0
    raw_step = (hi - lo) / max(target, 1)
    mag = 10 ** math.floor(math.log10(raw_step))
    for m in (1, 2, 5, 10):
        step = m * mag
        if raw_step <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks or [lo]


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e7:
        return str(int(v))
    return f"{v:.3g}"


def _esc(s: str) -> str:
    return (
        str(s)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


@dataclass
class _Frame:
    """Plot geometry + axis scaling shared by every chart type."""

    width: int = 640
    height: int = 400
    margin_l: int = 64
    margin_r: int = 20
    margin_t: int = 40
    margin_b: int = 52
    xmin: float = 0.0
    xmax: float = 1.0
    ymin: float = 0.0
    ymax: float = 1.0
    parts: list[str] = field(default_factory=list)

    @property
    def plot_w(self) -> float:
        return self.width - self.margin_l - self.margin_r

    @property
    def plot_h(self) -> float:
        return self.height - self.margin_t - self.margin_b

    def sx(self, x: float) -> float:
        span = self.xmax - self.xmin or 1.0
        return self.margin_l + (x - self.xmin) / span * self.plot_w

    def sy(self, y: float) -> float:
        span = self.ymax - self.ymin or 1.0
        return self.height - self.margin_b - (y - self.ymin) / span * self.plot_h

    # -- decorations --------------------------------------------------------
    def title(self, text: str) -> None:
        if text:
            self.parts.append(
                f"<text x='{self.width / 2:.1f}' y='22' text-anchor='middle' "
                f"{FONT} font-size='15' font-weight='bold'>{_esc(text)}</text>"
            )

    def axes(
        self,
        xlabel: str = "",
        ylabel: str = "",
        xticks: Optional[Sequence[tuple[float, str]]] = None,
        yticks: Optional[Sequence[tuple[float, str]]] = None,
    ) -> None:
        x0, y0 = self.margin_l, self.height - self.margin_b
        x1, y1 = self.width - self.margin_r, self.margin_t
        if xticks is None:
            xticks = [(t, _fmt(t)) for t in nice_ticks(self.xmin, self.xmax)]
        if yticks is None:
            yticks = [(t, _fmt(t)) for t in nice_ticks(self.ymin, self.ymax)]
        for t, label in yticks:
            if not (self.ymin - 1e-9 <= t <= self.ymax + 1e-9):
                continue
            y = self.sy(t)
            self.parts.append(
                f"<line x1='{x0}' y1='{y:.1f}' x2='{x1}' y2='{y:.1f}' "
                f"stroke='#e0e0e0' stroke-width='1'/>"
            )
            self.parts.append(
                f"<text x='{x0 - 6}' y='{y + 4:.1f}' text-anchor='end' {FONT} "
                f"font-size='11'>{_esc(label)}</text>"
            )
        for t, label in xticks:
            if not (self.xmin - 1e-9 <= t <= self.xmax + 1e-9):
                continue
            x = self.sx(t)
            self.parts.append(
                f"<line x1='{x:.1f}' y1='{y0}' x2='{x:.1f}' y2='{y0 + 4}' "
                f"stroke='#444' stroke-width='1'/>"
            )
            self.parts.append(
                f"<text x='{x:.1f}' y='{y0 + 17}' text-anchor='middle' {FONT} "
                f"font-size='11'>{_esc(label)}</text>"
            )
        self.parts.append(
            f"<rect x='{x0}' y='{y1}' width='{self.plot_w:.1f}' height='{self.plot_h:.1f}' "
            f"fill='none' stroke='#444' stroke-width='1'/>"
        )
        if xlabel:
            self.parts.append(
                f"<text x='{(x0 + x1) / 2:.1f}' y='{self.height - 10}' "
                f"text-anchor='middle' {FONT} font-size='12'>{_esc(xlabel)}</text>"
            )
        if ylabel:
            cy = (y0 + y1) / 2
            self.parts.append(
                f"<text x='16' y='{cy:.1f}' text-anchor='middle' {FONT} font-size='12' "
                f"transform='rotate(-90 16 {cy:.1f})'>{_esc(ylabel)}</text>"
            )

    def legend(self, entries: Sequence[tuple[str, str]]) -> None:
        if not entries:
            return
        x = self.margin_l + 10
        y = self.margin_t + 14
        for i, (label, color) in enumerate(entries):
            yy = y + i * 16
            self.parts.append(
                f"<rect x='{x}' y='{yy - 9}' width='12' height='12' fill='{color}'/>"
            )
            self.parts.append(
                f"<text x='{x + 17}' y='{yy + 1}' {FONT} font-size='11'>{_esc(label)}</text>"
            )

    def render(self) -> str:
        return (
            f"<svg xmlns='http://www.w3.org/2000/svg' width='{self.width}' "
            f"height='{self.height}' viewBox='0 0 {self.width} {self.height}'>"
            f"<rect width='100%' height='100%' fill='white'/>"
            + "".join(self.parts)
            + "</svg>"
        )


def line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 640,
    height: int = 400,
    show_legend: bool = True,
) -> str:
    """Render ``[(label, xs, ys), ...]`` as an SVG line chart."""
    if not series:
        raise ValueError("line_chart requires at least one series")
    fr = _Frame(width=width, height=height)
    all_x = np.concatenate([np.asarray(xs, dtype=float) for _, xs, _ in series])
    all_y = np.concatenate([np.asarray(ys, dtype=float) for _, _, ys in series])
    if all_x.size == 0:
        raise ValueError("line_chart requires non-empty series")
    fr.xmin, fr.xmax = float(all_x.min()), float(all_x.max())
    fr.ymin, fr.ymax = float(all_y.min()), float(all_y.max())
    if fr.ymax == fr.ymin:
        fr.ymax = fr.ymin + 1.0
    if fr.xmax == fr.xmin:
        fr.xmax = fr.xmin + 1.0
    pad = 0.05 * (fr.ymax - fr.ymin)
    fr.ymin -= pad
    fr.ymax += pad
    fr.title(title)
    fr.axes(xlabel, ylabel)
    legend = []
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(
            f"{fr.sx(float(x)):.1f},{fr.sy(float(y)):.1f}" for x, y in zip(xs, ys)
        )
        fr.parts.append(
            f"<polyline points='{pts}' fill='none' stroke='{color}' stroke-width='1.5'/>"
        )
        legend.append((label, color))
    if show_legend and any(lbl for lbl, _ in legend):
        fr.legend(legend)
    return fr.render()


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary for one box in a box chart."""

    label: str
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def from_samples(cls, label: str, samples: Sequence[float]) -> "BoxStats":
        xs = np.asarray(samples, dtype=float)
        if xs.size == 0:
            raise ValueError(f"no samples for box {label!r}")
        q1, med, q3 = np.percentile(xs, [25, 50, 75])
        return cls(label, float(xs.min()), float(q1), float(med), float(q3), float(xs.max()))


def box_chart(
    boxes: Sequence[BoxStats],
    title: str = "",
    ylabel: str = "",
    width: int = 640,
    height: int = 400,
) -> str:
    """Box-and-whisker chart (Fig. 4 style: one box per flow step)."""
    if not boxes:
        raise ValueError("box_chart requires at least one box")
    fr = _Frame(width=width, height=height)
    fr.xmin, fr.xmax = 0.0, float(len(boxes))
    fr.ymin = min(0.0, min(b.minimum for b in boxes))
    fr.ymax = max(b.maximum for b in boxes) * 1.08 or 1.0
    fr.title(title)
    xticks = [(i + 0.5, b.label) for i, b in enumerate(boxes)]
    fr.axes("", ylabel, xticks=xticks)
    bw = 0.5
    for i, b in enumerate(boxes):
        color = PALETTE[i % len(PALETTE)]
        cx = fr.sx(i + 0.5)
        x0 = fr.sx(i + (1 - bw) / 2)
        x1 = fr.sx(i + (1 + bw) / 2)
        # whiskers
        for lo, hi in ((b.minimum, b.q1), (b.q3, b.maximum)):
            fr.parts.append(
                f"<line x1='{cx:.1f}' y1='{fr.sy(lo):.1f}' x2='{cx:.1f}' "
                f"y2='{fr.sy(hi):.1f}' stroke='#444' stroke-width='1'/>"
            )
        for v in (b.minimum, b.maximum):
            fr.parts.append(
                f"<line x1='{cx - 8:.1f}' y1='{fr.sy(v):.1f}' x2='{cx + 8:.1f}' "
                f"y2='{fr.sy(v):.1f}' stroke='#444' stroke-width='1'/>"
            )
        # box
        fr.parts.append(
            f"<rect x='{x0:.1f}' y='{fr.sy(b.q3):.1f}' width='{x1 - x0:.1f}' "
            f"height='{fr.sy(b.q1) - fr.sy(b.q3):.1f}' fill='{color}' "
            f"fill-opacity='0.55' stroke='#444'/>"
        )
        # median
        fr.parts.append(
            f"<line x1='{x0:.1f}' y1='{fr.sy(b.median):.1f}' x2='{x1:.1f}' "
            f"y2='{fr.sy(b.median):.1f}' stroke='#000' stroke-width='2'/>"
        )
        fr.parts.append(
            f"<text x='{x1 + 4:.1f}' y='{fr.sy(b.median) + 4:.1f}' {FONT} "
            f"font-size='10'>{_fmt(b.median)}</text>"
        )
    return fr.render()


def image_figure(
    png_bytes: bytes,
    title: str = "",
    caption: str = "",
    width: int = 520,
) -> str:
    """Embed a PNG (e.g. a colormapped intensity image) in an SVG figure."""
    from .png import png_dimensions

    iw, ih = png_dimensions(png_bytes)
    scale = (width - 40) / iw
    disp_w, disp_h = iw * scale, ih * scale
    total_h = disp_h + (56 if title else 24) + (22 if caption else 0)
    b64 = base64.b64encode(png_bytes).decode("ascii")
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{total_h:.0f}' "
        f"viewBox='0 0 {width} {total_h:.0f}'>",
        "<rect width='100%' height='100%' fill='white'/>",
    ]
    y = 16.0
    if title:
        parts.append(
            f"<text x='{width / 2}' y='22' text-anchor='middle' {FONT} "
            f"font-size='15' font-weight='bold'>{_esc(title)}</text>"
        )
        y = 40.0
    parts.append(
        f"<image x='20' y='{y:.0f}' width='{disp_w:.1f}' height='{disp_h:.1f}' "
        f"href='data:image/png;base64,{b64}'/>"
    )
    if caption:
        parts.append(
            f"<text x='{width / 2}' y='{y + disp_h + 16:.0f}' text-anchor='middle' "
            f"{FONT} font-size='11' fill='#555'>{_esc(caption)}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)
