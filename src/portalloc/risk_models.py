"""Moment estimation for the convex allocators: mean vector, covariance,
correlation and volatilities over a trailing window of returns."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .market_data import ReturnFrame

_PSD_TOL = 1e-10


@dataclass(frozen=True)
class CovarianceStats:
    """Window moments: mu (l,), sigma_mat (l, l), corr (l, l), vols (l,)."""

    mu: np.ndarray
    sigma_mat: np.ndarray
    corr: np.ndarray
    vols: np.ndarray

    def __post_init__(self):
        l = len(self.mu)
        if self.sigma_mat.shape != (l, l) or self.corr.shape != (l, l) or len(self.vols) != l:
            raise DataError("inconsistent moment shapes")
        if not np.allclose(self.sigma_mat, self.sigma_mat.T, rtol=0, atol=1e-12):
            raise DataError("covariance matrix is not symmetric")
        eig = np.linalg.eigvalsh(self.sigma_mat)
        if eig[0] < -_PSD_TOL * max(eig[-1], 1e-300):
            raise DataError("covariance matrix is not positive semi-definite")
        if not np.allclose(np.diag(self.corr), 1.0, rtol=0, atol=1e-12):
            raise DataError("correlation diagonal must be 1")
        if np.any(np.abs(self.corr) > 1.0 + 1e-12):
            raise DataError("correlation entries must lie within [-1, 1]")
        if not np.allclose(self.vols ** 2, np.diag(self.sigma_mat), rtol=1e-12, atol=1e-300):
            raise DataError("volatilities must be the square roots of the covariance diagonal")

    @property
    def num_assets(self) -> int:
        return len(self.mu)


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


def estimate_stats(rf: ReturnFrame, window: int | None = None) -> CovarianceStats:
    """Sample mean and sample covariance (divisor n-1) over the trailing
    `window` rows (full frame when window is None)."""
    if window is not None and window < 1:
        raise DataError(f"estimation window must be >= 1, got {window}")
    rows = rf.returns if window is None else rf.returns[-window:]
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

