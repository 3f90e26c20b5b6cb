"""Moment estimation for the convex allocators: mean vector, covariance,
correlation and volatilities over a trailing window of returns. A
walk-forward split's rebalance dates are estimated as one stack: each date
keeps its own centred Gram product, the means of windows that start at the
first row come from one running sum, and the symmetrization, correlation
and every CovarianceStats check run once over the stacked arrays."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .market_data import ReturnFrame

_PSD_TOL = 1e-10


def _allclose(a, b, rtol: float, atol: float) -> bool:
    """np.allclose(a, b, rtol=rtol, atol=atol), which accepts whatever a == b
    or (for a finite b) its bound |a - b| <= atol + rtol |b| accepts, and so
    runs only if both fail."""
    return bool(np.all(a == b)
                or np.isfinite(b).all() and np.all(np.abs(a - b) <= atol + rtol * np.abs(b))
                or np.allclose(a, b, rtol=rtol, atol=atol))


@dataclass(frozen=True)
class CovarianceStats:
    """Window moments: mu (l,), sigma_mat (l, l), corr (l, l), vols (l,), and
    eig (l,), sigma_mat's ascending eigenvalues, kept from the PSD check."""

    mu: np.ndarray
    sigma_mat: np.ndarray
    corr: np.ndarray
    vols: np.ndarray
    eig: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        l = len(self.mu)
        if self.sigma_mat.shape != (l, l) or self.corr.shape != (l, l) or len(self.vols) != l:
            raise DataError("inconsistent moment shapes")
        if not _allclose(self.sigma_mat, self.sigma_mat.T, 0.0, 1e-12):
            raise DataError("covariance matrix is not symmetric")
        object.__setattr__(self, "eig", np.linalg.eigvalsh(self.sigma_mat))
        if self.eig[0] < -_PSD_TOL * max(self.eig[-1], 1e-300):
            raise DataError("covariance matrix is not positive semi-definite")
        if not _allclose(np.diag(self.corr), 1.0, 0.0, 1e-12):
            raise DataError("correlation diagonal must be 1")
        if np.any(np.abs(self.corr) > 1.0 + 1e-12):
            raise DataError("correlation entries must lie within [-1, 1]")
        if not _allclose(self.vols ** 2, np.diag(self.sigma_mat), 1e-12, 1e-300):
            raise DataError("volatilities must be the square roots of the covariance diagonal")

    @property
    def num_assets(self) -> int:
        return len(self.mu)

    @classmethod
    def _checked(cls, mu, sigma_mat, corr, vols, eig) -> "CovarianceStats":
        """Moments that have passed every check of __post_init__ in a stack
        (_estimate_stack), with eig sigma_mat's eigenvalues, unchecked."""
        stats = object.__new__(cls)
        for name, value in zip(("mu", "sigma_mat", "corr", "vols", "eig"),
                               (mu, sigma_mat, corr, vols, eig)):
            object.__setattr__(stats, name, value)
        return stats


def stats_from_covariance(mu: np.ndarray, sigma_mat: np.ndarray) -> CovarianceStats:
    """Build CovarianceStats from a mean vector and covariance matrix,
    deriving correlation and volatilities. Zero-variance assets are rejected."""
    mu = np.asarray(mu, dtype=float)
    sigma_mat = np.asarray(sigma_mat, dtype=float)
    variances = np.diag(sigma_mat)
    if np.any(variances <= 0):
        idx = int(np.argmin(variances))
        raise DataError(f"degenerate asset at index {idx}: zero variance, correlation undefined")
    vols = np.sqrt(variances)
    corr = sigma_mat / np.outer(vols, vols)
    np.fill_diagonal(corr, 1.0)
    corr = np.clip(corr, -1.0, 1.0)
    return CovarianceStats(mu, sigma_mat, corr, vols)


def _accepted(a, b, rtol: float, atol: float) -> np.ndarray:
    """Per matrix of a stack (the leading axis) whose b is finite, whether
    _allclose(a, b) accepts it by isclose's bound |a - b| <= atol + rtol |b|,
    without its np.allclose fallback."""
    return np.all(np.abs(a - b) <= atol + rtol * np.abs(b), axis=tuple(range(1, a.ndim)))


def _leading(ok: np.ndarray) -> int:
    """The number of leading True entries of ok."""
    return int(np.argmin(ok)) if not ok.all() else len(ok)


def _estimate_stack(rf: ReturnFrame, window: int | None,
                    ends: list[int]) -> list[CovarianceStats]:
    """estimate_stats(rf, window, end) for each end, up to the first whose
    estimate does not pass every check here; see estimate_stats."""
    returns = rf.returns
    l = returns.shape[1]
    starts = [0 if window is None else max(end - window, 0) for end in ends]
    k = _leading(np.array([end - start > l for start, end in zip(starts, ends)], dtype=bool))
    if not k:
        return []
    # The mean of rows [0, end) is their running sum at end - 1 over end, bit
    # for bit, only where numpy's mean adds the rows one after another, as
    # cumsum does: in a C-ordered frame of two or more assets. It sums one
    # asset's column, or the columns of a frame in another order, pairwise,
    # and on 100 rows or more that already differs in the last bits; such
    # means, and those of windows that start later, are taken directly.
    starts, ends = starts[:k], ends[:k]
    running = l > 1 and returns.flags.c_contiguous and 0 in starts
    sums = np.cumsum(returns[:max(ends)], axis=0) if running else None
    mu, cov = np.empty((k, l)), np.empty((k, l, l))
    buffer = np.empty((max(end - start for start, end in zip(starts, ends)), l))
    for i, (start, end) in enumerate(zip(starts, ends)):
        rows = returns[start:end]
        mu[i] = sums[end - 1] / end if running and start == 0 else rows.mean(axis=0)
        centered = np.subtract(rows, mu[i], out=buffer[:end - start])
        cov[i] = centered.T @ centered / (end - start - 1)
    sigma = 0.5 * (cov + cov.transpose(0, 2, 1))
    variances = np.diagonal(sigma, axis1=1, axis2=2)
    # a date with a zero variance or an entry that is not finite is left to
    # the one-date estimate, which rejects it or checks it with np.allclose
    k = _leading(np.all(variances > 0, axis=1) & np.isfinite(sigma).all(axis=(1, 2)))
    if not k:
        return []
    mu, sigma, variances = mu[:k], sigma[:k], variances[:k]
    vols = np.sqrt(variances)
    corr = sigma / (vols[:, :, None] * vols[:, None, :])
    corr[:, range(l), range(l)] = 1.0
    corr = np.clip(corr, -1.0, 1.0)
    eig = np.linalg.eigvalsh(sigma)
    # the checks of CovarianceStats, in its order
    ok = (_accepted(sigma, sigma.transpose(0, 2, 1), 0.0, 1e-12)
          & ~(eig[:, 0] < -_PSD_TOL * np.maximum(eig[:, -1], 1e-300))
          & _accepted(np.diagonal(corr, axis1=1, axis2=2), np.ones((k, l)), 0.0, 1e-12)
          & ~np.any(np.abs(corr) > 1.0 + 1e-12, axis=(1, 2))
          & _accepted(vols ** 2, variances, 1e-12, 1e-300))
    return [CovarianceStats._checked(*moments)
            for moments in zip(mu, sigma, corr, vols, eig)][:_leading(ok)]


def estimate_stats(rf: ReturnFrame, window: int | None = None, end: int | None = None,
                   ends: list[int] | None = None) -> CovarianceStats | list[CovarianceStats]:
    """Sample mean and sample covariance (divisor n-1) over the trailing
    `window` rows of rows [0, end) (all of them when window is None; the
    full frame when end is None).

    With ends, the row ends in [1, len] of a split's rebalance dates in
    order, the windows ending there are estimated as one stack, and a list
    of their CovarianceStats is returned, each equal on every field, bit for
    bit, to estimate_stats(rf, window, end) for its end. The list stops
    before the first end whose estimate fails a check, so that the caller,
    having used the estimates before it, estimates that end alone and
    reports its error there."""
    if window is not None and window < 1:
        raise DataError(f"estimation window must be >= 1, got {window}")
    if ends is not None:
        return _estimate_stack(rf, window, ends)
    rows = rf.returns[:end] if window is None else rf.returns[:end][-window:]
    n, l = rows.shape
    if n < l + 1:
        raise DataError(f"insufficient rows for estimation: need >= {l + 1}, got {n}")
    mu = rows.mean(axis=0)
    centered = rows - mu
    sigma_mat = centered.T @ centered / (n - 1)
    sigma_mat = 0.5 * (sigma_mat + sigma_mat.T)
    variances = np.diag(sigma_mat)
    if np.any(variances <= 0):
        idx = int(np.argmin(variances))
        raise DataError(f"degenerate asset {rf.assets[idx]}: zero variance, correlation undefined")
    return stats_from_covariance(mu, sigma_mat)

