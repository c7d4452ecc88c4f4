"""Convergence plots as standalone SVG files.

The SVG is assembled from formatted strings only, so a fixed set of input
traces always produces byte-identical output; no plotting library is
involved.  Curves show log10(cost) against cumulative experiments.
"""

from __future__ import annotations

import html
import math
import os

import numpy as np

from .traces import read_trace_csv

COST_FLOOR = 1e-18

PALETTE = (
    "#c1272d",  # red
    "#0000a7",  # blue
    "#eecc16",  # yellow
    "#8c3fad",  # purple
    "#008176",  # teal
    "#b3531f",  # brown
    "#5fa2ce",  # light blue
    "#57606c",  # gray
)

_W, _H = 880, 540
_ML, _MR, _MT, _MB = 80, 230, 30, 70


def _nice_step(span: float, target: int = 5) -> float:
    if span <= 0:
        return 1.0
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _f(x: float) -> str:
    return f"{x:.2f}"


class _Canvas:
    def __init__(self):
        self.parts: list[str] = []

    def add(self, s: str):
        self.parts.append(s)

    def line(self, x1, y1, x2, y2, stroke="#000000", width=1.0):
        self.add(f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
                 f'stroke="{stroke}" stroke-width="{_f(width)}"/>')

    def text(self, x, y, s, size=13, anchor="middle", rotate=None):
        transform = f' transform="rotate(-90 {_f(x)} {_f(y)})"' if rotate else ""
        s = html.escape(s, quote=False)  # a legend label is a file name and may hold & or <
        self.add(f'<text x="{_f(x)}" y="{_f(y)}" font-size="{size}" '
                 f'font-family="sans-serif" text-anchor="{anchor}"{transform}>{s}</text>')

    def polyline(self, pts, color):
        coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in pts)
        self.add(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                 f'stroke-width="1.6"/>')

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
                f'viewBox="0 0 {_W} {_H}">\n'
                f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>\n'
                f"{body}\n</svg>\n")


def _load_series(path, normalize: bool):
    records = read_trace_csv(path)
    x = np.array([r.experiments_cum for r in records], dtype=float)
    y = np.array([r.cost_measured for r in records])
    bad = ~np.isfinite(y)
    if bad.any():
        raise ValueError(f"non-finite cost at j={records[int(bad.argmax())].j}")
    if normalize and y[0] > 0:
        y = y / y[0]
    y = y.clip(min=COST_FLOOR)
    return x, y


def plot_traces(csv_paths, out_path, normalize: bool = False) -> list[str]:
    """Render one polyline per readable trace; returns per-file warnings.

    A file that cannot be read, or whose costs are not all finite, is
    skipped with a warning.  Raises ValueError, holding every warning, if no
    trace could be drawn.
    """
    series = []
    warnings = []
    for path in csv_paths:
        try:
            x, y = _load_series(path, normalize)
        except (OSError, ValueError) as exc:
            warnings.append(f"skipping {path}: {exc}")
            continue
        label = os.path.splitext(os.path.basename(path))[0]
        series.append((label, x, y))
    if not series:
        raise ValueError("; ".join(["no readable traces", *warnings]))

    x_max = max(float(x.max()) for _, x, _ in series)
    x_max = max(x_max, 1.0)
    y_lo = min(float(y.min()) for _, _, y in series)
    y_hi = max(float(y.max()) for _, _, y in series)
    lo_exp = math.floor(math.log10(y_lo))
    hi_exp = math.ceil(math.log10(y_hi))
    if hi_exp == lo_exp:
        hi_exp += 1

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(v):
        return _ML + plot_w * v / x_max

    def sy(v):
        return _MT + plot_h * (hi_exp - math.log10(v)) / (hi_exp - lo_exp)

    c = _Canvas()
    # frame
    c.line(_ML, _MT, _ML, _MT + plot_h)
    c.line(_ML, _MT + plot_h, _ML + plot_w, _MT + plot_h)
    # x ticks
    step = _nice_step(x_max)
    t = 0.0
    while t <= x_max * (1 + 1e-9):
        px = sx(t)
        c.line(px, _MT + plot_h, px, _MT + plot_h + 5)
        c.text(px, _MT + plot_h + 20, f"{t:g}")
        t += step
    c.text(_ML + plot_w / 2, _H - 18, "experiments", size=15)
    # y ticks at integer decades
    span = hi_exp - lo_exp
    dec_step = max(1, int(math.ceil(span / 8)))
    for ex in range(lo_exp, hi_exp + 1, dec_step):
        py = _MT + plot_h * (hi_exp - ex) / span
        c.line(_ML - 5, py, _ML, py)
        c.text(_ML - 10, py + 4, f"1e{ex}", anchor="end")
    c.text(24, _MT + plot_h / 2, "cost", size=15, rotate=True)
    # curves and legend
    for i, (label, x, y) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = [(sx(float(xv)), sy(float(yv))) for xv, yv in zip(x, y)]
        c.polyline(pts, color)
        ly = _MT + 14 + 22 * i
        lx = _ML + plot_w + 18
        c.line(lx, ly - 4, lx + 24, ly - 4, stroke=color, width=2.5)
        c.text(lx + 30, ly, label, anchor="start", size=12)

    with open(out_path, "w", newline="\n") as fh:
        fh.write(c.render())
    return warnings
