"""Deterministic SVG figures: a line plot with an inset, and grouped bars.

Output bytes depend only on the data passed in; every number is formatted
with fixed precision, so identical inputs give identical files.
"""

from __future__ import annotations

import math

__all__ = ["line_plot", "bar_plot"]

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 60, 20, 36, 48
#: pixel box (left, top, width, height) of a plot's main axes
_BOX = (_ML, _MT, _W - _ML - _MR, _H - _MT - _MB)

_PALETTE = {"red": "#c0392b", "blue": "#2563a8"}


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, n: int = 5):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _tick_label(t: float) -> str:
    if t == int(t) and abs(t) < 1e6:
        return str(int(t))
    return f"{t:g}"


class _Canvas:
    def __init__(self):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
            f'height="{_H}" viewBox="0 0 {_W} {_H}">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
        ]

    def text(self, x, y, s, size=13, anchor="middle", angle=None):
        rot = f' transform="rotate({angle} {_fmt(x)} {_fmt(y)})"' if angle else ""
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}"{rot}>{s}</text>')

    def line(self, x1, y1, x2, y2, color="#000000", width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="{width}"/>')

    def polyline(self, pts, color, width=1.6):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>')

    def rect(self, x, y, w, h, fill, stroke="none"):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}" stroke="{stroke}"/>')

    def labels(self, title, xlabel, ylabel):
        self.text(_W / 2, 22, title, size=15)
        self.text(_ML + (_W - _ML - _MR) / 2, _H - 12, xlabel)
        self.text(16, _MT + (_H - _MT - _MB) / 2, ylabel, angle=-90)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("\n".join(self.parts + ["</svg>"]) + "\n")


class _Axes:
    def __init__(self, canvas, box, x_range, y_range):
        self.c = canvas
        self.x0, self.y0, self.w, self.h = box  # pixel box, y0 = top
        self.xlo, self.xhi = x_range
        self.ylo, self.yhi = y_range

    def px(self, x):
        return self.x0 + (x - self.xlo) / (self.xhi - self.xlo) * self.w

    def py(self, y):
        return self.y0 + self.h - (y - self.ylo) / (self.yhi - self.ylo) * self.h

    def frame(self, x_ticks=True, size=11):
        c = self.c
        c.line(self.x0, self.y0 + self.h, self.x0 + self.w, self.y0 + self.h)
        c.line(self.x0, self.y0, self.x0, self.y0 + self.h)
        for t in _nice_ticks(self.xlo, self.xhi) if x_ticks else ():
            x = self.px(t)
            c.line(x, self.y0 + self.h, x, self.y0 + self.h + 4)
            c.text(x, self.y0 + self.h + 16, _tick_label(t), size=size)
        for t in _nice_ticks(self.ylo, self.yhi):
            y = self.py(t)
            c.line(self.x0 - 4, y, self.x0, y)
            c.text(self.x0 - 7, y + 4, _tick_label(t), size=size, anchor="end")

    def curve(self, xs, ys, color, width=1.6):
        # Python floats: numpy scalars would make each point slower
        pts = [(self.px(x), self.py(y))
               for x, y in zip(map(float, xs), map(float, ys))]
        self.c.polyline(pts, _PALETTE[color], width)




def _ranges(curves):
    xs = [float(x) for c in curves for x in c[0]]
    ys = [float(y) for c in curves for y in c[1]]
    pad = 0.05 * (max(ys) - min(ys) or 1.0)
    return (min(xs), max(xs)), (min(0.0, min(ys)) - pad, max(ys) + pad)


def line_plot(path, curves, inset, title, xlabel, ylabel) -> None:
    """Write a line plot of curves, each (xs, ys, color, label), with a
    legend and an inset axes box drawing inset, each (xs, ys, color)."""
    c = _Canvas()
    ax = _Axes(c, _BOX, *_ranges(curves))
    ax.frame()
    for xs, ys, color, _ in curves:
        ax.curve(xs, ys, color)
    c.labels(title, xlabel, ylabel)
    lx = _W - _MR - 150
    for i, (_, _, color, label) in enumerate(curves):
        ly = _MT + 14 + 18 * i
        c.line(lx, ly - 4, lx + 24, ly - 4, _PALETTE[color], 2)
        c.text(lx + 30, ly, label, anchor="start", size=12)
    box = (_W - _MR - 230, _MT + 60, 210, 140)
    c.rect(box[0] - 36, box[1] - 10, box[2] + 46, box[3] + 34, "white",
           stroke="#aaaaaa")
    iax = _Axes(c, box, *_ranges(inset))
    iax.frame(size=9)
    for xs, ys, color in inset:
        iax.curve(xs, ys, color, width=1.2)
    c.write(path)


def bar_plot(path, groups, series, title, xlabel, ylabel) -> None:
    """Write grouped bars, one group per (label, a, b) in groups, a red and
    b blue, with series the legend names of a and b."""
    c = _Canvas()
    vals = [v for g in groups for v in g[1:]]
    hi = max(vals + [0.0]) * 1.1 or 1.0
    lo = min(vals + [0.0])
    ax = _Axes(c, _BOX, (0.0, len(groups)), (lo, hi))
    ax.frame(x_ticks=False)
    width = (_W - _ML - _MR) / len(groups)
    base = ax.py(0.0)
    for i, (label, *pair) in enumerate(groups):
        x = _ML + i * width
        for j, (v, fill) in enumerate(zip(pair, _PALETTE.values())):
            bx = x + width * (0.15 + 0.36 * j)
            top = ax.py(v)
            c.rect(bx, min(top, base), width * 0.32, abs(base - top), fill)
        c.text(x + width / 2, _H - _MB + 16, label, size=11)
    c.labels(title, xlabel, ylabel)
    lx = _W - _MR - 150
    for j, (name, fill) in enumerate(zip(series, _PALETTE.values())):
        ly = _MT + 14 + 18 * j
        c.rect(lx, ly - 10, 16, 10, fill)
        c.text(lx + 22, ly, name, anchor="start", size=12)
    c.write(path)
