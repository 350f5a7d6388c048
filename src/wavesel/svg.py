"""Minimal standalone SVG writer for the diagnostic plots.

No plotting dependency: the four plot kinds (risk curve, dimension-jump
staircase, coefficient stem plot, ratio histogram) are assembled from a
handful of primitives with deterministic float formatting.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SvgCanvas",
    "risk_curve_svg",
    "dimension_jump_svg",
    "coefficients_svg",
    "ratio_histogram_svg",
]

_MARGIN = 54.0
_WIDTH = 640
_HEIGHT = 420


def _num(v: float) -> str:
    return f"{float(v):.3f}".rstrip("0").rstrip(".")


class SvgCanvas:
    def __init__(self, title: str):
        self.title = title
        self.elements: list = []

    def line(self, x1, y1, x2, y2, stroke="#333", cls=""):
        c = f' class="{cls}"' if cls else ""
        self.elements.append(
            f'<line{c} x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
            f'stroke="{stroke}" stroke-width="1"/>')

    def polyline(self, points, cls=""):
        pts = " ".join(f"{_num(x)},{_num(y)}" for x, y in points)
        c = f' class="{cls}"' if cls else ""
        self.elements.append(
            f'<polyline{c} points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')

    def circle(self, x, y, cls=""):
        c = f' class="{cls}"' if cls else ""
        self.elements.append(
            f'<circle{c} cx="{_num(x)}" cy="{_num(y)}" r="3" fill="#d62728"/>')

    def rect(self, x, y, w, h, cls=""):
        c = f' class="{cls}"' if cls else ""
        self.elements.append(
            f'<rect{c} x="{_num(x)}" y="{_num(y)}" width="{_num(w)}" height="{_num(h)}" '
            'fill="#1f77b4"/>')

    def text(self, x, y, content, anchor="middle", cls=""):
        c = f' class="{cls}"' if cls else ""
        self.elements.append(
            f'<text{c} x="{_num(x)}" y="{_num(y)}" font-size="11" '
            f'font-family="sans-serif" text-anchor="{anchor}">{content}</text>')

    def render(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
                f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">')
        parts = [head, f'<title>{self.title}</title>']
        parts.extend(self.elements)
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


class _Axes:
    """Linear pixel mapping with optional log10 data transform per axis."""

    def __init__(self, canvas: SvgCanvas, x_range, y_range, logx=False, logy=False,
                 xlabel="", ylabel=""):
        self.logx = logx
        self.logy = logy
        self.x0, self.x1 = self._tr(x_range[0], logx), self._tr(x_range[1], logx)
        self.y0, self.y1 = self._tr(y_range[0], logy), self._tr(y_range[1], logy)
        if self.x1 == self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 == self.y0:
            self.y1 = self.y0 + 1.0
        canvas.line(_MARGIN, _HEIGHT - _MARGIN, _WIDTH - 12, _HEIGHT - _MARGIN, cls="axis")
        canvas.line(_MARGIN, _HEIGHT - _MARGIN, _MARGIN, 12, cls="axis")
        if xlabel:
            canvas.text(_WIDTH / 2, _HEIGHT - 12, xlabel, cls="axis-label")
        if ylabel:
            canvas.text(16, 24, ylabel, anchor="start", cls="axis-label")

    @staticmethod
    def _tr(v, log):
        return math.log10(v) if log else float(v)

    def px(self, x):
        t = (self._tr(x, self.logx) - self.x0) / (self.x1 - self.x0)
        return _MARGIN + t * (_WIDTH - _MARGIN - 12)

    def py(self, y):
        t = (self._tr(y, self.logy) - self.y0) / (self.y1 - self.y0)
        return (_HEIGHT - _MARGIN) - t * (_HEIGHT - _MARGIN - 12)


def risk_curve_svg(dims, criteria, chosen_dim=None) -> str:
    """Log-log criterion against dimension, with a marker at the chosen one."""
    canvas = SvgCanvas("criterion vs dimension")
    dims = np.asarray(dims, dtype=float)
    if len(dims) == 0:
        _Axes(canvas, (1.0, 10.0), (0.1, 1.0), xlabel="dimension", ylabel="criterion")
        return canvas.render()
    crit = np.asarray(criteria, dtype=float)
    floor = 0.5 * crit[crit > 0].min() if np.any(crit > 0) else 1e-12
    plotted = np.maximum(crit, floor)
    ax = _Axes(canvas, (dims.min(), dims.max()), (plotted.min(), plotted.max()),
               logx=True, logy=True, xlabel="dimension", ylabel="criterion")
    canvas.polyline([(ax.px(d), ax.py(v)) for d, v in zip(dims, plotted)], cls="curve")
    if chosen_dim is not None:
        i = int(np.argmin(np.abs(dims - chosen_dim)))
        canvas.circle(ax.px(dims[i]), ax.py(plotted[i]), cls="chosen")
    return canvas.render()


def dimension_jump_svg(segments, alpha_min=None) -> str:
    """Staircase of selected dimension against the penalty level alpha.

    ``segments`` holds (alpha_lo, alpha_hi, dim) tuples ordered by
    decreasing alpha, as produced by the exact penalty path.
    """
    canvas = SvgCanvas("dimension jump")
    segs = list(segments)
    if not segs:
        _Axes(canvas, (1e-3, 1.0), (1.0, 2.0), logx=True, logy=True,
              xlabel="alpha", ylabel="selected dimension")
        return canvas.render()
    positive = [lo for lo, _, _ in segs if np.isfinite(lo) and lo > 0]
    finite_hi = [hi for _, hi, _ in segs if np.isfinite(hi) and hi > 0]
    hi_alpha = 2.0 * max(positive + finite_hi) if (positive or finite_hi) else 1.0
    lo_alpha = 0.5 * min(positive) if positive else hi_alpha * 1e-4
    dims = [d for _, _, d in segs]
    ax = _Axes(canvas, (lo_alpha, hi_alpha), (min(dims), max(dims)), logx=True, logy=True,
               xlabel="alpha", ylabel="selected dimension")
    pts = []
    for lo, hi, dim in segs:
        right = min(hi, hi_alpha) if np.isfinite(hi) else hi_alpha
        left = max(lo, lo_alpha)
        pts.append((ax.px(right), ax.py(dim)))
        pts.append((ax.px(left), ax.py(dim)))
    canvas.polyline(pts, cls="staircase")
    if alpha_min is not None and alpha_min > 0:
        canvas.line(ax.px(alpha_min), ax.py(max(dims)), ax.px(alpha_min), ax.py(min(dims)),
                    stroke="#d62728", cls="alpha-min")
        canvas.text(ax.px(alpha_min), 24, "alpha_min", cls="alpha-min-label")
    return canvas.render()


def coefficients_svg(values) -> str:
    """Stem plot of flattened coefficients by index."""
    canvas = SvgCanvas("pyramid coefficients")
    v = np.asarray(values, dtype=float)
    if len(v) == 0:
        _Axes(canvas, (0.0, 1.0), (-1.0, 1.0), xlabel="index", ylabel="coefficient")
        return canvas.render()
    hi = max(np.max(np.abs(v)), 1e-12)
    ax = _Axes(canvas, (0, len(v) - 1 if len(v) > 1 else 1), (-hi, hi),
               xlabel="index", ylabel="coefficient")
    base = ax.py(0.0)
    for i, val in enumerate(v):
        x = ax.px(i)
        canvas.line(x, base, x, ax.py(val), stroke="#1f77b4", cls="stem")
    return canvas.render()


def ratio_histogram_svg(ratios) -> str:
    canvas = SvgCanvas("ratio histogram")
    r = np.asarray(ratios, dtype=float)
    if len(r) == 0:
        _Axes(canvas, (0.0, 1.0), (0.0, 1.0), xlabel="ratio", ylabel="count")
        return canvas.render()
    counts, edges = np.histogram(r, bins=24)
    ax = _Axes(canvas, (edges[0], edges[-1]), (0, max(counts.max(), 1)),
               xlabel="ratio", ylabel="count")
    y0 = ax.py(0)
    for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
        if c == 0:
            continue
        x0, x1 = ax.px(lo), ax.px(hi)
        canvas.rect(x0, ax.py(c), max(x1 - x0 - 1.0, 0.5), y0 - ax.py(c), cls="bar")
    return canvas.render()
