"""Self-contained SVG charts: equity-curve lines and stacked weight areas.

No plotting dependency; output bytes are deterministic for identical inputs.

Points are written 'x,y', two decimals per coordinate, byte for byte as
'{:.2f}' writes them (it rounds the exact binary value half to even), one
series per call. With v = m * 2**(e - 53) for an integer m < 2**53 (np.frexp),
v * 100 = 100 m / 2**(53 - e): the cent count is 100 m shifted right by
53 - e, rounded half to even on the remainder, and 100 m < 2**60 keeps every
step exact in int64. The domain is [0, 9999.995): finite, sign bit clear, at
most four integer digits. Chart coordinates lie inside the viewBox; a chart
whose scale overflows is a DataError naming it.
"""
from __future__ import annotations

import numpy as np

from .errors import DataError

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
            "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")

_W, _H = 880, 460
_ML, _MR, _MT, _MB = 70, 24, 34, 46


# row i of _DIGITS: the four ASCII digits of i, "0000" to "9999". A coordinate is
# written as one 8-byte little-endian word: its integer part with leading zeros
# as 0 (pad bytes, dropped at the end), '.', two cent digits, then ',' after x
# or ' ' after y
_DIGITS = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0"))
_PADDED = np.where(np.arange(10000)[:, None] < (1000, 100, 10, 0), 0, _DIGITS).astype(np.uint8)
_UNITS = _PADDED.view("<u4")[:, 0].astype(np.uint64)
_CENTS = np.ascontiguousarray(_DIGITS[:100, 2:]).view("<u2")[:, 0].astype(np.uint64) << 40
_SEPARATORS = np.array([ord(",") << 56 | ord(".") << 32, ord(" ") << 56 | ord(".") << 32],
                       dtype=np.uint64)


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """The SVG points text 'x0,y0 x1,y1 ...', two decimals per coordinate."""
    v = np.column_stack((xs, ys))
    if not (v < 9999.995).all() or np.signbit(v).any():
        raise ValueError("chart coordinates must be finite and lie in [0, 9999.995)")
    mant, exp = np.frexp(v)
    scaled = (mant * 2.0 ** 53).astype(np.int64) * 100  # below 2**60
    # 53 - exp >= 39, as v < 2**14; from 61 on, v * 100 < 1/2 rounds to 0
    shift = np.minimum(53 - exp, 61).astype(np.int64)
    cents = scaled >> shift
    rem = scaled - (cents << shift)
    half = np.int64(1) << (shift - 1)
    cents += (rem > half) | (rem == half) & (cents & 1 == 1)
    units = cents // 100
    words = _UNITS[units] | _CENTS[cents - 100 * units] | _SEPARATORS
    text = words.astype("<u8", copy=False).tobytes()[:-1]  # no space after the last point
    return text.translate(None, b"\0").decode("ascii")


def _scale(chart: str, vals: np.ndarray, lo: float, hi: float, out_lo: float,
           out_hi: float) -> np.ndarray:
    """vals mapped from [lo, hi] onto [out_lo, out_hi]: a DataError naming the
    chart if that overflows, not nan or inf points."""
    if hi <= lo:  # a flat range; from 2**53 up, lo + 1.0 rounds back to lo
        hi = max(lo + 1.0, np.nextafter(lo, np.inf))
    with np.errstate(over="ignore", invalid="ignore"):
        out = out_lo + (vals - lo) * (out_hi - out_lo) / (hi - lo)
    if not np.isfinite(out).all():
        raise DataError(f"{chart} chart: the values span more than a float can scale")
    return out


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


def _x_tick_labels(dates: np.ndarray) -> list[str]:
    idx = np.linspace(0, len(dates) - 1, min(6, len(dates))).astype(int)
    return [str(dates[i]) for i in idx]


def line_chart_svg(dates: np.ndarray, series: dict[str, np.ndarray]) -> str:
    """Polyline per named series over a shared date axis."""
    if not series:
        raise DataError("no series to plot")
    lo = min(float(np.min(v)) for v in series.values())
    hi = max(float(np.max(v)) for v in series.values())
    parts = _frame("equity curves", lo, hi, _x_tick_labels(dates))
    xs = _scale("equity curves", np.arange(len(dates), dtype=float), 0, len(dates) - 1, _ML,
                _W - _MR)
    ys = _scale("equity curves", np.array(list(series.values()), dtype=float), lo, hi, _H - _MB,
                _MT)
    for i, name in enumerate(series):
        points = _points(xs, ys[i])
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<rect x="{_W - _MR - 170}" y="{_MT + 16 * i}" width="12" height="12" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{_W - _MR - 152}" y="{_MT + 16 * i + 10}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def stacked_area_svg(dates: np.ndarray, names: list[str], matrix: np.ndarray) -> str:
    """Stacked area chart of (possibly leverage-scaled) weight columns."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape != (len(dates), len(names)):
        raise DataError("weight matrix shape does not match dates/names")
    with np.errstate(over="ignore"):
        cum = np.cumsum(np.clip(matrix, 0.0, None), axis=1)
    hi = float(cum[:, -1].max()) if cum.size else 1.0
    parts = _frame("allocation", 0.0, hi, _x_tick_labels(dates))
    xs = _scale("allocation", np.arange(len(dates), dtype=float), 0, len(dates) - 1, _ML,
                _W - _MR)
    # column 0 is the zero base; band j's lower edge is column j, walked backwards
    ys = _scale("allocation", np.column_stack((np.zeros(len(dates)), cum)), 0.0, hi, _H - _MB,
                _MT)
    back = np.concatenate((xs, xs[::-1]))
    for j, name in enumerate(names):
        outline = _points(back, np.concatenate((ys[:, j + 1], ys[::-1, j])))
        color = _PALETTE[j % len(_PALETTE)]
        parts.append(f'<polygon points="{outline}" '
                     f'fill="{color}" fill-opacity="0.75" stroke="none"/>')
        parts.append(f'<rect x="{_W - _MR - 170}" y="{_MT + 16 * j}" width="12" height="12" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{_W - _MR - 152}" y="{_MT + 16 * j + 10}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
