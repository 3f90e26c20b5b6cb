"""Price panel ingestion, return/volatility computation, and a
regime-switching synthetic price generator.

This module owns the dated-CSV format shared by prices, context series,
``curves.csv``, ``weights_<model>.csv`` and the ``plot`` inputs: header row
``date,NAME1,...,NAMEm``, one row per date, strictly increasing ISO-8601
dates, finite ``.``-decimal numbers without thousands separators.
``read_dated_csv`` and ``dated_csv`` are its only reader and writer. A file
that tokenizes only one way is parsed in C by ``np.loadtxt``; the csv row
walk reads every other file and reports every error.
"""
from __future__ import annotations

import csv
import datetime
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

MAX_ARRAY_SIZE = int(np.iinfo(np.intp).max)  # numpy's largest array dimension and byte size


def atomic_write_text(path: str, text: str) -> None:
    """Write a file atomically (temp file in the same directory + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_dated_csv(path: str, kind: str) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """Read a dated CSV into (dates, names, matrix of shape (rows, names)).

    ``_read_one_way`` parses what it can in C; ``_walk_dated_csv`` reads the
    rest and is the only code that raises DataError. Both parse cells with
    CPython's string-to-double, so their values agree bit for bit."""
    try:
        parsed = _read_one_way(path)
    except (OSError, ValueError):
        parsed = None
    ordinals, names, matrix = parsed or _walk_dated_csv(path, kind)
    dates = (ordinals - datetime.date(1970, 1, 1).toordinal()).astype("datetime64[D]")
    return dates, names, matrix


def _read_one_way(path: str):
    """The file's (date ordinals, names, matrix) by np.loadtxt if csv can only split
    it at its commas and line ends (\\n, or one \\r before it), its dates are
    ordered and its cells finite; else None. numpy strips \\x1c-\\x1f as
    whitespace, float() rejects them."""
    # line by line: freeing one large string raises glibc's mmap threshold,
    # and the process's peak RSS with it
    with open(path, newline="\n") as fh:
        header, *lines = rows = [line.removesuffix("\r\n").rstrip("\n") for line in fh]
    commas = header.count(",")
    if (not lines or not header.startswith("date,") or not all(map(str.isascii, rows))
            or any(c in row for row in rows for c in '"\r\0\x1c\x1d\x1e\x1f')
            or max(map(len, rows)) > csv.field_size_limit()
            or any(line.count(",") != commas for line in lines)):
        return None
    matrix = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                        usecols=range(1, commas + 1))
    ordinals = np.array([datetime.date.fromisoformat(line.partition(",")[0]).toordinal()
                         for line in lines])
    if not (np.all(np.diff(ordinals) > 0) and np.isfinite(matrix).all()):
        return None
    return ordinals, tuple(header.split(",")[1:]), matrix


def _walk_dated_csv(path: str, kind: str) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """The csv row walk behind read_dated_csv: (date ordinals, names, matrix).

    Raises DataError with a distinct message for: missing or unreadable file,
    bad header, no data rows, ragged rows, malformed, duplicate or unordered
    dates, non-numeric cells and non-finite cells. ``kind`` only names the
    file in messages; the header is row 1. A row's cells parse in one pass;
    only a row that fails is walked to name its first non-numeric cell.
    ``date.fromisoformat`` validates each date.
    """
    if not os.path.exists(path):
        raise DataError(f"{kind} file not found: {path}")
    try:
        with open(path, newline="") as fh:
            header, *body = list(csv.reader(fh)) or [[]]
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"unreadable {kind} file ({exc}): {path}") from None
    if len(header) < 2 or header[0] != "date":
        raise DataError(f"{kind} header must be 'date,<name1>,...': {path}")
    if not body:
        raise DataError(f"{kind} file has no data rows: {path}")
    names = tuple(header[1:])

    def malformed(detail: str) -> DataError:
        return DataError(f"malformed row in {kind} file {path}: {detail}")

    days, rows = [], []
    for i, row in enumerate(body, start=2):
        if len(row) != len(names) + 1:
            raise malformed(f"row {i} has {len(row)} cells, expected {len(names) + 1}")
        try:
            day = datetime.date.fromisoformat(row[0])
        except ValueError:
            raise malformed(f"malformed date at row {i}: {row[0]!r}") from None
        if days and day == days[-1]:
            raise malformed(f"duplicate date at row {i}: {row[0]}")
        if days and day < days[-1]:
            raise malformed(f"unordered dates at row {i}: {row[0]} after {days[-1]}")
        days.append(day)
        try:
            rows.append(list(map(float, row[1:])))
        except ValueError:
            # the error path only: name the row's first cell that is no number
            for name, cell in zip(names, row[1:]):
                try:
                    float(cell)
                except ValueError:
                    raise malformed(f"non-numeric cell at (row {i}, column {name}): "
                                    f"{cell!r}") from None
    matrix = np.array(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        raise malformed(f"non-finite cell at (row {bad[0, 0] + 2}, column {names[bad[0, 1]]})")
    return np.array([day.toordinal() for day in days]), names, matrix


def dated_csv(dates: np.ndarray, names, matrix: np.ndarray) -> str:
    """The dated-CSV text of a (rows, names) float matrix; floats print with
    repr, which round-trips exactly through read_dated_csv.

    Only rows that differ bit for bit from the row before (so -0.0 after 0.0
    counts) are formatted; a held row, such as a weight path between two
    rebalances, repeats the last formatted cells.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    bits = matrix.view(np.uint64)
    changed = np.ones(len(matrix), dtype=bool)
    changed[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    cells = [",".join(map(repr, row)) for row in matrix[changed].tolist()]
    held = (np.cumsum(changed) - 1).tolist()
    lines = ["date," + ",".join(names)]
    lines += [day + "," + cells[k] for day, k in zip(dates.astype(str).tolist(), held)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PriceFrame:
    """Date-indexed panel of strictly positive asset prices, shape (T, m)."""

    dates: np.ndarray
    assets: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "assets", tuple(self.assets))
        if self.prices.ndim != 2 or self.prices.shape != (len(self.dates), len(self.assets)):
            raise DataError("price matrix shape does not match dates/assets")
        if len(self.dates) > 1 and not np.all(np.diff(self.dates) > np.timedelta64(0, "D")):
            raise DataError("unordered dates")
        if not np.all(np.isfinite(self.prices)) or np.any(self.prices <= 0):
            raise DataError("non-positive price in frame")

    @property
    def num_assets(self) -> int:
        return len(self.assets)


@dataclass(frozen=True)
class ReturnFrame:
    """Per-period arithmetic returns; row t is the return from date t-1 to t."""

    dates: np.ndarray
    assets: tuple[str, ...]
    returns: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "assets", tuple(self.assets))
        if self.returns.shape != (len(self.dates), len(self.assets)):
            raise DataError("return matrix shape does not match dates/assets")
        if np.any(self.returns <= -1.0):
            raise DataError("return <= -100% implies a non-positive price")

    @property
    def num_assets(self) -> int:
        return len(self.assets)


@dataclass(frozen=True)
class VolFrame:
    """Trailing per-period volatilities, as rolling_volatility builds them.

    Row t holds the population standard deviation of the window of returns
    ending at the matching ReturnFrame row; only full windows are kept.
    """

    dates: np.ndarray
    vols: np.ndarray

    def __post_init__(self):
        if self.vols.ndim != 2 or len(self.vols) != len(self.dates):
            raise DataError("vol matrix shape does not match dates")
        if np.any(self.vols < 0):
            raise DataError("negative volatility")


@dataclass(frozen=True)
class RegimeSpec:
    """One market regime: per-asset drift and vol, a single pairwise
    correlation, and the expected duration (steps) of a visit."""

    mean: np.ndarray
    vol: np.ndarray
    corr: float
    duration: int


@dataclass(frozen=True)
class SyntheticSpec:
    num_assets: int
    num_steps: int
    regimes: tuple[RegimeSpec, ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "regimes", tuple(self.regimes))
        if self.num_assets < 1 or self.num_steps < 1:
            raise DataError("num_assets and num_steps must be >= 1")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not self.regimes:
            raise DataError("at least one regime is required")
        m = self.num_assets
        for i, reg in enumerate(self.regimes):
            if len(reg.mean) != m or len(reg.vol) != m:
                raise DataError(f"regime {i}: mean/vol length must equal num_assets")
            if reg.duration < 1:
                raise DataError(f"regime {i}: duration must be >= 1")
            if not (np.all(np.isfinite(reg.mean)) and np.all(np.isfinite(reg.vol))):
                raise DataError(f"regime {i}: means and volatilities must be finite")
            if np.any(np.asarray(reg.vol) < 0):
                raise DataError(f"regime {i}: volatilities must be >= 0")
            if not -1.0 <= reg.corr <= 1.0:
                raise DataError(f"regime {i}: correlation must lie in [-1, 1]")
            if m > 1 and reg.corr < -1.0 / (m - 1):
                raise DataError(
                    f"regime {i}: constant correlation {reg.corr} is not "
                    f"positive semi-definite for {m} assets (needs >= {-1.0 / (m - 1):.4f})"
                )


def load_price_csv(path: str) -> PriceFrame:
    """Load a price panel CSV: read_dated_csv plus a positivity check that
    names the first non-positive cell."""
    dates, assets, prices = read_dated_csv(path, "price")
    bad = np.argwhere(prices <= 0)
    if len(bad):
        raise DataError(f"non-positive price at (row {bad[0, 0] + 2}, asset {assets[bad[0, 1]]})")
    return PriceFrame(dates, assets, prices)


def write_price_csv(frame: PriceFrame, path: str) -> None:
    atomic_write_text(path, dated_csv(frame.dates, frame.assets, frame.prices))


def compute_returns(frame: PriceFrame) -> ReturnFrame:
    """Arithmetic returns r_t = p_t / p_{t-1} - 1, one row fewer than prices.
    A step between positive prices whose ratio overflows, or is so small that
    its return rounds to -100%, is rejected by name."""
    if len(frame.dates) < 2:
        raise DataError("insufficient history: need at least 2 price rows")
    with np.errstate(over="ignore"):
        returns = frame.prices[1:] / frame.prices[:-1] - 1.0
    if not (returns.min() > -1.0 and returns.max() < np.inf):
        row, col = np.argwhere((returns <= -1.0) | (returns == np.inf))[0]
        raise DataError(f"return of asset {frame.assets[col]} on {frame.dates[row + 1]} is "
                        f"{'infinite' if returns[row, col] > 0 else '-100% after rounding'}")
    return ReturnFrame(frame.dates[1:], frame.assets, returns)


def rolling_volatility(rf: ReturnFrame, window: int) -> VolFrame:
    """Trailing population standard deviation (divisor = window) of returns.

    The value at output row t covers the `window` returns ending at input
    row t + window - 1; rows without a full window are dropped.
    """
    if window < 2:
        raise DataError(f"volatility window must be >= 2, got {window}")
    if len(rf.dates) < window:
        raise DataError(f"insufficient rows: need >= {window}, got {len(rf.dates)}")
    sliding = np.lib.stride_tricks.sliding_window_view(rf.returns, window, axis=0)
    vols = sliding.std(axis=2, ddof=0)
    return VolFrame(rf.dates[window - 1:], vols)


def _weekday_dates(start: np.datetime64, count: int) -> np.ndarray:
    # enough calendar days to cover `count` weekdays, then trim
    span = np.arange(start, start + np.timedelta64(2 * count + 10, "D"), dtype="datetime64[D]")
    return span[np.is_busday(span)][:count]


def _regime_factor(reg: RegimeSpec, m: int) -> np.ndarray:
    # factor F with F F^T = diag(vol) C diag(vol); eigen route tolerates
    # singular C (corr == 1) and zero vols
    corr = np.full((m, m), reg.corr, dtype=float)
    np.fill_diagonal(corr, 1.0)
    eigvals, eigvecs = np.linalg.eigh(corr)
    root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    return np.asarray(reg.vol, dtype=float)[:, None] * root


def generate_synthetic_with_regimes(spec: SyntheticSpec) -> tuple[PriceFrame, np.ndarray]:
    """Like generate_synthetic, but also returns the regime index of each
    return step (length num_steps) for diagnostics and tests."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    m = spec.num_assets
    factors = [_regime_factor(reg, m) for reg in spec.regimes]
    returns = np.empty((spec.num_steps, m))
    labels = np.empty(spec.num_steps, dtype=np.int64)
    done = 0
    regime_idx = 0
    while done < spec.num_steps:
        reg = spec.regimes[regime_idx % len(spec.regimes)]
        duration = int(rng.geometric(1.0 / reg.duration))
        take = min(duration, spec.num_steps - done)
        shocks = rng.standard_normal((take, m))
        returns[done:done + take] = np.asarray(reg.mean, dtype=float) + shocks @ factors[regime_idx % len(spec.regimes)].T
        labels[done:done + take] = regime_idx % len(spec.regimes)
        done += take
        regime_idx += 1
    if np.any(returns <= -1.0):
        raise DataError("synthetic returns reached -100%; reduce regime volatility")
    prices = np.empty((spec.num_steps + 1, m))
    prices[0] = 100.0
    prices[1:] = 100.0 * np.cumprod(1.0 + returns, axis=0)
    dates = _weekday_dates(np.datetime64("2000-01-03"), spec.num_steps + 1)
    assets = tuple(f"A{i + 1}" for i in range(m))
    return PriceFrame(dates, assets, prices), labels


def generate_synthetic(spec: SyntheticSpec) -> PriceFrame:
    """Deterministic (per seed) regime-switching Gaussian price panel.

    Regimes cycle in order; each visit lasts a geometrically distributed
    number of steps with the regime's expected duration. Prices start at 100.
    """
    frame, _ = generate_synthetic_with_regimes(spec)
    return frame
