"""Self-contained SVG charts: equity-curve lines and stacked weight areas.

No plotting dependency; output bytes are deterministic for identical inputs.
"""
from __future__ import annotations

import numpy as np

from .errors import DataError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
            "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")

_W, _H = 880, 460
_ML, _MR, _MT, _MB = 70, 24, 34, 46


def _points(xs: np.ndarray, ys: np.ndarray) -> list[str]:
    """'x,y' SVG point strings with two decimals each."""
    return list(map("{:.2f},{:.2f}".format, xs.tolist(), ys.tolist()))


def _scale(vals: np.ndarray, lo: float, hi: float, out_lo: float, out_hi: float) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    return out_lo + (vals - lo) * (out_hi - out_lo) / (hi - lo)


def _frame(title: str, y_lo: float, y_hi: float, x_labels: list[str]) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="#333"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="#333"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _H - _MB - frac * (_H - _MT - _MB)
        label = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<line x1="{_ML - 4}" y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}" '
                     f'stroke="#ddd"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">{label:.3g}</text>')
    if x_labels:
        step = (_W - _ML - _MR) / max(len(x_labels) - 1, 1)
        for i, lab in enumerate(x_labels):
            x = _ML + i * step
            parts.append(f'<text x="{x:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{lab}</text>')
    return parts


def _x_tick_labels(dates: np.ndarray, count: int = 6) -> list[str]:
    idx = np.linspace(0, len(dates) - 1, min(count, len(dates))).astype(int)
    return [str(dates[i]) for i in idx]


def line_chart_svg(dates: np.ndarray, series: dict[str, np.ndarray],
                   title: str = "equity curves") -> str:
    """Polyline per named series over a shared date axis."""
    if not series:
        raise DataError("no series to plot")
    lo = min(float(np.min(v)) for v in series.values())
    hi = max(float(np.max(v)) for v in series.values())
    parts = _frame(title, lo, hi, _x_tick_labels(dates))
    xs = _scale(np.arange(len(dates), dtype=float), 0, len(dates) - 1, _ML, _W - _MR)
    for i, (name, vals) in enumerate(series.items()):
        ys = _scale(np.asarray(vals, dtype=float), lo, hi, _H - _MB, _MT)
        points = " ".join(_points(xs, ys))
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<rect x="{_W - _MR - 170}" y="{_MT + 16 * i}" width="12" height="12" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{_W - _MR - 152}" y="{_MT + 16 * i + 10}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def stacked_area_svg(dates: np.ndarray, names: list[str], matrix: np.ndarray,
                     title: str = "allocation") -> str:
    """Stacked area chart of (possibly leverage-scaled) weight columns."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape != (len(dates), len(names)):
        raise DataError("weight matrix shape does not match dates/names")
    cum = np.cumsum(np.clip(matrix, 0.0, None), axis=1)
    hi = float(cum[:, -1].max()) if cum.size else 1.0
    parts = _frame(title, 0.0, hi, _x_tick_labels(dates))
    xs = _scale(np.arange(len(dates), dtype=float), 0, len(dates) - 1, _ML, _W - _MR)
    base = np.zeros(len(dates))
    for j, name in enumerate(names):
        top = cum[:, j]
        ys_top = _scale(top, 0.0, hi, _H - _MB, _MT)
        ys_base = _scale(base, 0.0, hi, _H - _MB, _MT)
        outline = _points(xs, ys_top) + _points(xs[::-1], ys_base[::-1])
        color = _PALETTE[j % len(_PALETTE)]
        parts.append(f'<polygon points="{" ".join(outline)}" '
                     f'fill="{color}" fill-opacity="0.75" stroke="none"/>')
        parts.append(f'<rect x="{_W - _MR - 170}" y="{_MT + 16 * j}" width="12" height="12" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{_W - _MR - 152}" y="{_MT + 16 * j + 10}">{name}</text>')
        base = top
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
