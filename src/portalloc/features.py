"""Observation construction for the learned allocator.

An observation at decision time t stacks, over a set of lags, per-asset
returns and trailing volatilities (channels of a 2 x assets x lags tensor)
plus a matrix of lagged context series. Context defaults to three derived
series (cross-sectional max return, min return, max volatility) and can be
extended with externally supplied columns.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .market_data import ReturnFrame, VolFrame, read_dated_csv


@dataclass(frozen=True)
class LagSet:
    """Strictly increasing non-negative lag offsets, starting at 0."""

    lags: tuple[int, ...]

    def __post_init__(self):
        lags = tuple(int(x) for x in self.lags)
        object.__setattr__(self, "lags", lags)
        if not lags or lags[0] != 0:
            raise DataError("lag set must start at 0")
        if any(b <= a for a, b in zip(lags, lags[1:])):
            raise DataError("lags must be strictly increasing")

    def __len__(self) -> int:
        return len(self.lags)

    @property
    def max_lag(self) -> int:
        return self.lags[-1]

    def offsets_oldest_first(self) -> np.ndarray:
        return np.array(self.lags[::-1], dtype=np.int64)


@dataclass(frozen=True)
class ContextFrame:
    """values (dates, names): read_dated_csv and build_context_series build that shape."""

    dates: np.ndarray
    names: tuple[str, ...]
    values: np.ndarray


@dataclass(frozen=True)
class Observation:
    """asset_tensor (2, assets, lags): channel 0 returns, channel 1 vols;
    context_matrix (series, context lags); lag axes run oldest -> newest.

    A stack of observations carries one leading step axis on both arrays;
    indexing it selects steps. Only build_observations, run_episode and indexing
    build one, so its shapes hold, its cells are finite and its vols >= 0.
    """

    asset_tensor: np.ndarray
    context_matrix: np.ndarray

    def __getitem__(self, index) -> "Observation":
        return Observation(self.asset_tensor[index], self.context_matrix[index])


def load_context_csv(path: str) -> ContextFrame:
    """Read external context series from a dated CSV (values are any finite
    reals, not only positive prices)."""
    return ContextFrame(*read_dated_csv(path, "context"))


def context_rows(extra: ContextFrame, dates: np.ndarray) -> np.ndarray:
    """The row of extra on each of dates; DataError unless extra has them all."""
    idx = np.searchsorted(extra.dates, dates)
    if np.any(idx >= len(extra.dates)) or not np.array_equal(extra.dates[idx], dates):
        raise DataError("misaligned dates: external context does not cover the panel dates")
    return idx


def build_context_series(rf: ReturnFrame, vf: VolFrame,
                         extra: ContextFrame | None = None) -> ContextFrame:
    """Derive the default context series, aligned to the volatility dates:
    cross-sectional max return, min return, and max volatility, with any
    external series appended by exact date match."""
    offset = len(rf.dates) - len(vf.dates)
    if offset < 0 or not np.array_equal(rf.dates[offset:], vf.dates):
        raise DataError("misaligned dates between return and volatility frames")
    rows = rf.returns[offset:]
    cols = [rows.max(axis=1), rows.min(axis=1), vf.vols.max(axis=1)]
    names = ["max_return", "min_return", "max_vol"]
    if extra is not None:
        idx = context_rows(extra, vf.dates)
        for j, name in enumerate(extra.names):
            cols.append(extra.values[idx, j])
            names.append(name)
    return ContextFrame(vf.dates.copy(), tuple(names), np.column_stack(cols))


def min_valid_index(vf: VolFrame, rf: ReturnFrame, lags: LagSet, ctx_lags: LagSet) -> int:
    """Smallest return-frame index t at which an observation is fully defined."""
    vol_offset = len(rf.dates) - len(vf.dates)
    return vol_offset + max(lags.max_lag, ctx_lags.max_lag)


def build_observations(rf: ReturnFrame, vf: VolFrame, ctx: ContextFrame,
                       lags: LagSet, ctx_lags: LagSet, t_start: int, t_end: int) -> Observation:
    """Stack of the observations at return-frame indices t in [t_start, t_end),
    gathered at once; every lagged cell must exist.

    asset_tensor[i, 0, k, j] is asset k's return at t_start + i - lag_j and
    asset_tensor[i, 1, k, j] the trailing volatility at the same offset, with
    lag axis j ordered oldest -> newest (lag 0, "now", is the last column).
    ctx is build_context_series(rf, vf) and t_end <= len(rf.dates), as its
    callers, make_window and the backtest's policy decisions, guarantee.
    """
    vol_offset = len(rf.dates) - len(vf.dates)
    ctx_offset = len(rf.dates) - len(ctx.dates)
    needed = max(lags.max_lag + vol_offset, ctx_lags.max_lag + ctx_offset)
    if t_start < needed:
        raise DataError(f"insufficient history for lags at index {t_start}: need index >= {needed}")
    ts = np.arange(t_start, t_end)[:, None]
    asset_rows = ts - lags.offsets_oldest_first()  # (steps, lags)
    rets = rf.returns[asset_rows].transpose(0, 2, 1)
    vols = vf.vols[asset_rows - vol_offset].transpose(0, 2, 1)
    context = ctx.values[ts - ctx_lags.offsets_oldest_first() - ctx_offset].transpose(0, 2, 1)
    return Observation(np.stack([rets, vols], axis=1), context)

