"""Minimal deterministic SVG output: line plots, polar heatmaps, disk scenes.

Hand-assembled markup with fixed float formatting so identical data produces
byte-identical files (matplotlib SVG embeds run-specific ids, which would
break report determinism).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = ["line_plot_svg", "polar_heatmap_svg", "disk_scene_svg", "write_svg"]

_W, _H = 640, 480
_MARGIN = 60
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _axis_transform(values, lo, hi, pixel_lo, pixel_hi, log):
    values = np.asarray(values, dtype=float)
    if log:
        values, lo, hi = np.log10(values), math.log10(lo), math.log10(hi)
    if hi == lo:
        hi = lo + 1.0
    return pixel_lo + (values - lo) / (hi - lo) * (pixel_hi - pixel_lo)


def line_plot_svg(series, title="", xlabel="", ylabel="",
                  logx=False, logy=False) -> str:
    """series: list of (label, x array, y array). Returns SVG text."""
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if logx:
        xs = xs[xs > 0]
    if logy:
        ys = ys[ys > 0]
    if len(xs) == 0 or len(ys) == 0:
        xs, ys = np.array([1.0]), np.array([1.0])
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if not logy:
        pad = 0.05 * (y_hi - y_lo or 1.0)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
        f'height="{_H - 2 * _MARGIN}" fill="none" stroke="#888"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_H // 2})">{ylabel}</text>',
    ]
    for i, (label, x, y) in enumerate(series):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.ones(len(x), dtype=bool)
        if logx:
            keep &= x > 0
        if logy:
            keep &= y > 0
        px = _axis_transform(x[keep], x_lo, x_hi, _MARGIN, _W - _MARGIN, logx)
        py = _axis_transform(y[keep], y_lo, y_hi, _H - _MARGIN, _MARGIN, logy)
        pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for a, b in zip(px, py):
            parts.append(f'<circle cx="{_fmt(a)}" cy="{_fmt(b)}" r="2.5" fill="{color}"/>')
        parts.append(
            f'<text x="{_W - _MARGIN - 4}" y="{_MARGIN + 16 + 16 * i}" text-anchor="end" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    ticks = 5
    for t in range(ticks + 1):
        fx = x_lo + (x_hi - x_lo) * t / ticks
        if logx:
            fx = 10 ** (math.log10(x_lo) + (math.log10(x_hi) - math.log10(x_lo)) * t / ticks)
        px = _axis_transform([fx], x_lo, x_hi, _MARGIN, _W - _MARGIN, logx)[0]
        parts.append(f'<text x="{_fmt(px)}" y="{_H - _MARGIN + 16}" text-anchor="middle" '
                     f'font-size="10">{_fmt(fx)}</text>')
        fy = y_lo + (y_hi - y_lo) * t / ticks
        if logy:
            fy = 10 ** (math.log10(y_lo) + (math.log10(y_hi) - math.log10(y_lo)) * t / ticks)
        py = _axis_transform([fy], y_lo, y_hi, _H - _MARGIN, _MARGIN, logy)[0]
        parts.append(f'<text x="{_MARGIN - 6}" y="{_fmt(py)}" text-anchor="end" '
                     f'font-size="10">{_fmt(fy)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _heat_color(t: float) -> str:
    """Blue -> white -> red ramp on [0, 1]."""
    t = min(max(t, 0.0), 1.0)
    if t < 0.5:
        s = t / 0.5
        r, g, b = int(255 * s), int(255 * s), 255
    else:
        s = (t - 0.5) / 0.5
        r, g, b = 255, int(255 * (1 - s)), int(255 * (1 - s))
    return f"#{r:02x}{g:02x}{b:02x}"


def polar_heatmap_svg(dom, values, title="") -> str:
    """Annular-wedge heatmap of per-cell values on a polar DiscretizedDomain."""
    geom = dom.geometry
    if geom["kind"] != "polar":
        raise ValueError("heatmap needs a polar domain")
    values = np.asarray(values, dtype=float)
    vmax = float(np.max(values)) or 1.0
    size = 520
    c = size / 2
    scale = (size / 2 - 10) / float(geom["R_edges"][-1])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size + 30}" '
        f'viewBox="0 0 {size} {size + 30}">',
        f'<rect width="{size}" height="{size + 30}" fill="white"/>',
        f'<text x="{c}" y="{size + 20}" text-anchor="middle" font-size="13">{title}</text>',
    ]
    R = geom["R_edges"] * scale
    th = geom["theta_edges"]
    n_r, n_theta = len(R) - 1, len(th) - 1
    for i in range(n_r):
        for j in range(n_theta):
            v = values[i * n_theta + j]
            if v <= 0:
                continue
            a0, a1 = th[j], th[j + 1]
            r0, r1 = R[i], R[i + 1]
            x00, y00 = c + r0 * math.cos(a0), c - r0 * math.sin(a0)
            x01, y01 = c + r1 * math.cos(a0), c - r1 * math.sin(a0)
            x11, y11 = c + r1 * math.cos(a1), c - r1 * math.sin(a1)
            x10, y10 = c + r0 * math.cos(a1), c - r0 * math.sin(a1)
            path = (
                f"M {_fmt(x00)} {_fmt(y00)} L {_fmt(x01)} {_fmt(y01)} "
                f"A {_fmt(r1)} {_fmt(r1)} 0 0 0 {_fmt(x11)} {_fmt(y11)} "
                f"L {_fmt(x10)} {_fmt(y10)} "
                f"A {_fmt(r0)} {_fmt(r0)} 0 0 1 {_fmt(x00)} {_fmt(y00)} Z"
            )
            parts.append(f'<path d="{path}" fill="{_heat_color(v / vmax)}" stroke="none"/>')
    parts.append(f'<circle cx="{c}" cy="{c}" r="{_fmt(scale * 1.0)}" fill="none" stroke="#555"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def disk_scene_svg(polylines, title="") -> str:
    """Unit disk with polylines drawn inside (for fundamental domains etc.)."""
    size = 520
    c = size / 2
    scale = size / 2 - 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size + 30}" '
        f'viewBox="0 0 {size} {size + 30}">',
        f'<rect width="{size}" height="{size + 30}" fill="white"/>',
        f'<circle cx="{c}" cy="{c}" r="{scale}" fill="none" stroke="#333" stroke-width="1.5"/>',
        f'<text x="{c}" y="{size + 20}" text-anchor="middle" font-size="13">{title}</text>',
    ]
    for pts in polylines:
        path = " ".join(
            f"{_fmt(c + scale * z.real)},{_fmt(c - scale * z.imag)}"
            for z in np.asarray(pts, dtype=complex)
        )
        parts.append(f'<polyline points="{path}" fill="none" stroke="#1f77b4" stroke-width="1.2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(text: str, path) -> None:
    Path(path).write_text(text)
