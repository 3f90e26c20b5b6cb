import numpy as np
import pytest

from conftest import make_price_frame
from portalloc.errors import DataError
from portalloc.market_data import compute_returns
from portalloc.risk_models import estimate_stats, stats_from_covariance


def frame_from_returns(returns, assets=None):
    returns = np.asarray(returns, dtype=float)
    prices = 100.0 * np.cumprod(np.vstack([np.ones(returns.shape[1]), 1 + returns]), axis=0)
    return compute_returns(make_price_frame(prices, assets=assets))


def test_identical_columns_perfectly_correlated(rng):
    col = 0.01 * rng.standard_normal(40)
    stats = estimate_stats(frame_from_returns(np.column_stack([col, col + 1e-4])))
    # near-identical columns: correlation indistinguishable from 1
    assert stats.corr[0, 1] > 0.999


def test_independent_columns_decorrelate(rng):
    n = 4000
    rets = 0.01 * rng.standard_normal((n, 2))
    stats = estimate_stats(frame_from_returns(rets))
    assert abs(stats.corr[0, 1]) < 3.0 / np.sqrt(n)


def test_antiphase_columns():
    base = np.tile([0.01, -0.01], 10)
    stats = estimate_stats(frame_from_returns(np.column_stack([base, -base])))
    np.testing.assert_allclose(stats.corr[0, 1], -1.0, atol=1e-12)


def test_sample_covariance_divisor(rng):
    rets = 0.02 * rng.standard_normal((25, 3))
    stats = estimate_stats(frame_from_returns(rets))
    np.testing.assert_allclose(stats.sigma_mat, np.cov(rets, rowvar=False, ddof=1),
                               rtol=1e-10, atol=1e-18)
    np.testing.assert_allclose(stats.mu, rets.mean(axis=0), rtol=1e-12)


def test_window_selects_trailing_rows(rng):
    rets = 0.02 * rng.standard_normal((60, 2))
    full = estimate_stats(frame_from_returns(rets), window=20)
    tail = estimate_stats(frame_from_returns(rets[-20:]))
    np.testing.assert_allclose(full.sigma_mat, tail.sigma_mat, rtol=1e-12)


def test_insufficient_rows():
    with pytest.raises(DataError, match="insufficient rows"):
        estimate_stats(frame_from_returns(np.full((3, 3), 0.01) + np.eye(3) * 0.01))


def test_degenerate_asset_rejected():
    rets = np.column_stack([np.zeros(10), 0.01 * np.sin(np.arange(10.0))])
    with pytest.raises(DataError, match="degenerate asset"):
        estimate_stats(frame_from_returns(rets, assets=("FLAT", "OK")))


def test_permutation_equivariance(rng):
    rets = 0.01 * rng.standard_normal((50, 4))
    perm = [2, 0, 3, 1]
    a = estimate_stats(frame_from_returns(rets))
    b = estimate_stats(frame_from_returns(rets[:, perm]))
    np.testing.assert_allclose(b.mu, a.mu[perm], rtol=1e-12)
    np.testing.assert_allclose(b.sigma_mat, a.sigma_mat[np.ix_(perm, perm)], rtol=1e-12)
    np.testing.assert_allclose(b.corr, a.corr[np.ix_(perm, perm)], rtol=1e-12)


def test_covariance_is_psd_for_any_frame(rng):
    for _ in range(20):
        n = int(rng.integers(6, 30))
        l = int(rng.integers(2, 5))
        rets = 0.05 * rng.standard_normal((n, l)) + 0.001 * rng.standard_normal(l)
        stats = estimate_stats(frame_from_returns(rets))
        eig = np.linalg.eigvalsh(stats.sigma_mat)
        assert eig[0] >= -1e-10 * max(eig[-1], 1e-300)
        assert np.all(np.abs(stats.corr) <= 1 + 1e-12)
        np.testing.assert_allclose(stats.vols ** 2, np.diag(stats.sigma_mat), rtol=1e-12)


def test_window_below_one_rejected(rng):
    rf = frame_from_returns(0.01 * rng.standard_normal((40, 2)))
    for window in (0, -5):
        with pytest.raises(DataError, match="window"):
            estimate_stats(rf, window)
    last = estimate_stats(rf, 10)
    np.testing.assert_array_equal(last.mu, rf.returns[-10:].mean(axis=0))
