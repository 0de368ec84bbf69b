"""Minimal deterministic SVG charts for run reports.

Hand-rolled rather than pulled from a plotting library so that repeated
runs emit byte-identical files. Dimensions and palette are fixed.
"""

from __future__ import annotations

import math
from pathlib import Path

from .corpus import write_lines

WIDTH, HEIGHT = 640, 420
MARGIN = 56
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b",
           "#e377c2", "#7f7f7f"]


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_esc(title)}</text>',
    ]


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def line_chart(path: str | Path, title: str, x_label: str, y_label: str,
               series: dict[str, list[float]]) -> None:
    """Polyline chart of one or more equally-indexed series."""
    n = max((len(v) for v in series.values()), default=0)
    values = [v for vs in series.values() for v in vs]
    lo = min(values, default=0.0)
    hi = max(values, default=1.0)
    lo = min(lo, 0.0)
    hi = max(hi, 1.0) if hi <= 1.0 else hi
    span = (hi - lo) or 1.0

    def px(i: int) -> float:
        return MARGIN + (WIDTH - 2 * MARGIN) * (i / max(1, n - 1))

    def py(v: float) -> float:
        return HEIGHT - MARGIN - (HEIGHT - 2 * MARGIN) * ((v - lo) / span)

    parts = _svg_header(title)
    parts.append(f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
                 f'y2="{HEIGHT - MARGIN}" stroke="black"/>')
    parts.append(f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
                 f'y2="{HEIGHT - MARGIN}" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * span
        y = py(v)
        parts.append(f'<line x1="{MARGIN - 4}" y1="{_fmt(y)}" x2="{MARGIN}" '
                     f'y2="{_fmt(y)}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{_fmt(v)}</text>')
    parts.append(f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{_esc(x_label)}</text>')
    parts.append(f'<text x="16" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {HEIGHT / 2:.1f})">{_esc(y_label)}</text>')
    for k, (name, vals) in enumerate(sorted(series.items())):
        color = PALETTE[k % len(PALETTE)]
        points = " ".join(f"{_fmt(px(i))},{_fmt(py(v))}" for i, v in enumerate(vals))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = MARGIN + 16 * k
        parts.append(f'<rect x="{WIDTH - MARGIN - 120}" y="{ly - 9}" width="10" '
                     f'height="10" fill="{color}"/>')
        parts.append(f'<text x="{WIDTH - MARGIN - 104}" y="{ly}" '
                     f'font-family="sans-serif" font-size="11">{_esc(name)}</text>')
    parts.append("</svg>")
    write_lines(path, parts)


def radar_chart(path: str | Path, title: str, axis_labels: list[str],
                rows: dict[str, list[float]]) -> None:
    """Radar chart over axes with values in [0, 1]."""
    cx, cy = WIDTH / 2, (HEIGHT + 24) / 2
    radius = min(WIDTH, HEIGHT) / 2 - MARGIN
    n_axes = max(1, len(axis_labels))

    def point(axis: int, value: float) -> tuple[float, float]:
        angle = -math.pi / 2 + 2 * math.pi * axis / n_axes
        r = radius * max(0.0, min(1.0, value))
        return cx + r * math.cos(angle), cy + r * math.sin(angle)

    parts = _svg_header(title)
    for ring in (0.25, 0.5, 0.75, 1.0):
        ring_pts = " ".join(f"{_fmt(x)},{_fmt(y)}"
                            for x, y in (point(a, ring) for a in range(n_axes)))
        parts.append(f'<polygon points="{ring_pts}" fill="none" stroke="#cccccc"/>')
    for a, label in enumerate(axis_labels):
        x, y = point(a, 1.0)
        parts.append(f'<line x1="{_fmt(cx)}" y1="{_fmt(cy)}" x2="{_fmt(x)}" '
                     f'y2="{_fmt(y)}" stroke="#999999"/>')
        lx, ly = point(a, 1.12)
        parts.append(f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{_esc(label)}</text>')
    for k, (name, vals) in enumerate(sorted(rows.items())):
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}"
                       for x, y in (point(a, v) for a, v in enumerate(vals)))
        parts.append(f'<polygon points="{pts}" fill="{color}" fill-opacity="0.12" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN + 16 * k
        parts.append(f'<rect x="{WIDTH - MARGIN - 110}" y="{ly - 9}" width="10" '
                     f'height="10" fill="{color}"/>')
        parts.append(f'<text x="{WIDTH - MARGIN - 94}" y="{ly}" '
                     f'font-family="sans-serif" font-size="11">{_esc(name)}</text>')
    parts.append("</svg>")
    write_lines(path, parts)
