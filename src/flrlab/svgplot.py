"""Tiny dependency-free SVG line plots for study reports."""

from __future__ import annotations

import math
from pathlib import Path

_WIDTH, _HEIGHT = 640, 420
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, log: bool):
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        return [10.0**e for e in range(lo_e, hi_e + 1)]
    span = hi - lo or 1.0
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(v)
        v += step
    return ticks


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def line_plot(
    path: Path,
    xs,
    series: dict,
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
) -> None:
    """Write one SVG with a line per entry of ``series`` (label -> y values)."""
    xs = [float(x) for x in xs]
    all_y = [float(y) for ys in series.values() for y in ys]
    if not xs or not all_y:
        raise ValueError("nothing to plot")
    if logx and min(xs) <= 0:
        raise ValueError("log x-axis needs positive x")
    if logy and min(all_y) <= 0:
        raise ValueError("log y-axis needs positive y")

    ml, mr, mt, mb = 70, 20, 34, 50
    pw, ph = _WIDTH - ml - mr, _HEIGHT - mt - mb
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo * 0.9 or -1.0, x_hi * 1.1 or 1.0
    if y_lo == y_hi:
        y_lo, y_hi = y_lo * 0.9 or -1.0, y_hi * 1.1 or 1.0

    def tx(v: float) -> float:
        a, b = (math.log10(x_lo), math.log10(x_hi)) if logx else (x_lo, x_hi)
        u = (math.log10(v) if logx else v)
        return ml + pw * (u - a) / (b - a)

    def ty(v: float) -> float:
        a, b = (math.log10(y_lo), math.log10(y_hi)) if logy else (y_lo, y_hi)
        u = (math.log10(v) if logy else v)
        return mt + ph * (1.0 - (u - a) / (b - a))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
                     f'font-size="14">{title}</text>')
    for v in _ticks(x_lo, x_hi, logx):
        if not x_lo <= v <= x_hi:
            continue
        x = tx(v)
        parts.append(f'<line x1="{x:.1f}" y1="{mt + ph}" x2="{x:.1f}" y2="{mt + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{x:.1f}" y="{mt + ph + 18}" text-anchor="middle">{_fmt_tick(v)}</text>')
    for v in _ticks(y_lo, y_hi, logy):
        if not y_lo <= v <= y_hi:
            continue
        y = ty(v)
        parts.append(f'<line x1="{ml - 5}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.1f}" text-anchor="end">{_fmt_tick(v)}</text>')
    if xlabel:
        parts.append(f'<text x="{ml + pw / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                     f'transform="rotate(-90 16 {mt + ph / 2:.1f})">{ylabel}</text>')

    for idx, (label, ys) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{tx(x):.2f},{ty(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{tx(x):.2f}" cy="{ty(float(y)):.2f}" r="2.5" fill="{color}"/>')
        parts.append(f'<text x="{ml + pw - 8}" y="{mt + 16 + 16 * idx}" text-anchor="end" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
