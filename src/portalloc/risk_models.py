"""Moment estimation for the convex allocators: mean vector, covariance,
correlation and volatilities over trailing windows of returns, computed as a
stack over a leading date axis: a walk-forward split's rebalance dates, or a
stack of one for one date, one covariance matrix or one CovarianceStats."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .market_data import ReturnFrame

_PSD_TOL = 1e-10
_FAILURES = ("covariance matrix is not symmetric",
             "covariance matrix is not positive semi-definite",
             "correlation diagonal must be 1",
             "correlation entries must lie within [-1, 1]",
             "volatilities must be the square roots of the covariance diagonal")


def _accepted(a, b, rtol: float, atol: float) -> np.ndarray:
    """np.allclose(a, b, rtol=rtol, atol=atol) for each matrix of a stack (leading axis)."""
    return np.all(np.isclose(a, b, rtol=rtol, atol=atol), axis=tuple(range(1, a.ndim)))


def _check(sigma, corr, vols) -> tuple[np.ndarray, list[str | None]]:
    """The checks of CovarianceStats, in order, over stacked moments: sigma's
    ascending eigenvalues (NaN on a date that is not symmetric, where eigvalsh
    does not run) and per date the first failing check's message, or None."""
    symmetric = _accepted(sigma, sigma.transpose(0, 2, 1), 0.0, 1e-12)
    eig = np.full(sigma.shape[:2], np.nan)
    eig[symmetric] = np.linalg.eigvalsh(sigma[symmetric])
    passed = np.stack([
        symmetric,
        ~(eig[:, 0] < -_PSD_TOL * np.maximum(eig[:, -1], 1e-300)),
        _accepted(np.diagonal(corr, axis1=1, axis2=2), 1.0, 0.0, 1e-12),
        ~np.any(np.abs(corr) > 1.0 + 1e-12, axis=(1, 2)),
        _accepted(vols ** 2, np.diagonal(sigma, axis1=1, axis2=2), 1e-12, 1e-300)])
    first = np.where(passed.all(axis=0), -1, passed.argmin(axis=0))
    return eig, [None if i < 0 else _FAILURES[i] for i in first.tolist()]


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
        eig, (failure,) = _check(self.sigma_mat[None], self.corr[None], self.vols[None])
        if failure:
            raise DataError(failure)
        object.__setattr__(self, "eig", eig[0])

    @classmethod
    def _checked(cls, mu, sigma_mat, corr, vols, eig) -> "CovarianceStats":
        """One date of a stack that passed _check, with its eigenvalues."""
        stats = object.__new__(cls)
        stats.__dict__.update(mu=mu, sigma_mat=sigma_mat, corr=corr, vols=vols, eig=eig)
        return stats


def _stats_stack(mu, sigma, names) -> tuple[list[CovarianceStats], str | None]:
    """The CovarianceStats of means (dates, l) and covariances (dates, l, l)
    up to the first date that fails, and its message (None if none does); a
    non-finite moment, then a zero variance, fails first, naming its asset."""
    variances = np.diagonal(sigma, axis1=1, axis2=2)
    infinite = ~(np.isfinite(mu) & np.isfinite(sigma).all(axis=2))
    k = next(iter(np.flatnonzero((infinite | (variances <= 0)).any(axis=1))), len(sigma))
    vols = np.sqrt(variances[:k])
    corr = np.clip(sigma[:k] / (vols[:, :, None] * vols[:, None, :]), -1.0, 1.0)
    corr[:, range(mu.shape[1]), range(mu.shape[1])] = 1.0
    eig, failures = _check(sigma[:k], corr, vols)
    if k < len(sigma) and infinite[k].any():
        failures.append(f"asset {names[np.argmax(infinite[k])]}: mean or variance not finite")
    elif k < len(sigma):
        name = names[int(np.argmin(variances[k]))]
        failures.append(f"degenerate asset {name}: zero variance, correlation undefined")
    j = next((i for i, failure in enumerate(failures) if failure), len(failures))
    stats = list(map(CovarianceStats._checked, mu[:j], sigma[:j], corr[:j], vols[:j], eig[:j]))
    return stats, failures[j] if j < len(failures) else None


def stats_from_covariance(mu: np.ndarray, sigma_mat: np.ndarray) -> CovarianceStats:
    """Build CovarianceStats from a mean vector and covariance matrix, as a stack
    of one, deriving correlation and volatilities. Zero variances are rejected."""
    mu = np.asarray(mu, dtype=float)
    sigma_mat = np.asarray(sigma_mat, dtype=float)
    if sigma_mat.shape != (len(mu), len(mu)):
        raise DataError("inconsistent moment shapes")
    names = [f"at index {i}" for i in range(len(mu))]
    stats, failure = _stats_stack(mu[None], sigma_mat[None], names)
    if failure:
        raise DataError(failure)
    return stats[0]


@np.errstate(over="ignore", invalid="ignore")  # moments that overflow fail on their date
def estimate_stats(rf: ReturnFrame, window: int | None = None, end: int | None = None,
                   ends: list[int] | None = None) -> CovarianceStats | list[CovarianceStats]:
    """Sample mean and sample covariance (divisor n-1) over the trailing
    `window` rows of rows [0, end) (all of them when window is None; the
    full frame when end is None), as a stack of one end.

    With ends, a split's rebalance row ends in [1, len] in order, their
    windows are one stack, and the list of their CovarianceStats is returned,
    each bit for bit estimate_stats(rf, window, end) for its end. The list
    stops before the first end whose estimate fails: the caller, having used
    the estimates before it, estimates that end alone to raise its error."""
    if window is not None and window < 1:
        raise DataError(f"estimation window must be >= 1, got {window}")
    returns = rf.returns
    l = returns.shape[1]
    stops = [len(returns[:end])] if ends is None else ends
    starts = [0 if window is None else max(stop - window, 0) for stop in stops]
    rows = [stop - start for start, stop in zip(starts, stops)]
    k = next((i for i, n in enumerate(rows) if n <= l), len(rows))
    # The mean of rows [0, stop) is their running sum at stop - 1 over stop,
    # bit for bit, only where numpy's mean adds the rows one after another, as
    # cumsum does: in a C-ordered frame of two or more assets. It sums one
    # asset's column, or the columns of a frame in another order, pairwise,
    # which on 100 rows or more differs in the last bits. Those means, and
    # those of later-starting windows or of a stack of one, are taken directly.
    running = k > 1 and l > 1 and returns.flags.c_contiguous and 0 in starts[:k]
    sums = np.cumsum(returns[:max(stops[:k])], axis=0) if running else None
    mu, cov = np.empty((k, l)), np.empty((k, l, l))
    buffer = np.empty((max(rows[:k], default=0), l))
    for i, (start, stop) in enumerate(zip(starts[:k], stops[:k])):
        mu[i] = sums[stop - 1] / stop if running and not start else returns[start:stop].mean(axis=0)
        centered = np.subtract(returns[start:stop], mu[i], out=buffer[:stop - start])
        cov[i] = centered.T @ centered / (stop - start - 1)
    stats, failure = _stats_stack(mu, 0.5 * (cov + cov.transpose(0, 2, 1)), rf.assets)
    if failure is None and k < len(rows):
        failure = f"insufficient rows for estimation: need >= {l + 1}, got {rows[k]}"
    if ends is None and failure:
        raise DataError(failure)
    return stats if ends is not None else stats[0]
