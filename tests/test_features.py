import numpy as np
import pytest

from conftest import make_price_frame
from oracles import build_observation
from portalloc.errors import DataError
from portalloc.features import (ContextFrame, LagSet, build_context_series,
                                load_context_csv, min_valid_index)
from portalloc.market_data import compute_returns, rolling_volatility


def bundle(rng, steps=120, assets=3, vol_window=5):
    prices = 100 * np.cumprod(1 + 0.01 * rng.standard_normal((steps, assets)), axis=0)
    rf = compute_returns(make_price_frame(prices))
    vf = rolling_volatility(rf, vol_window)
    ctx = build_context_series(rf, vf)
    return rf, vf, ctx


class TestLagSet:
    def test_must_start_at_zero(self):
        with pytest.raises(DataError, match="start at 0"):
            LagSet((1, 2, 3))

    def test_strictly_increasing(self):
        with pytest.raises(DataError, match="strictly increasing"):
            LagSet((0, 2, 2))

    def test_offsets_oldest_first(self):
        assert LagSet((0, 1, 4)).offsets_oldest_first().tolist() == [4, 1, 0]
        assert LagSet((0, 1, 4)).max_lag == 4


class TestContextSeries:
    def test_componentwise_extremes(self, rng):
        rf, vf, ctx = bundle(rng)
        offset = len(rf.dates) - len(vf.dates)
        row = rf.returns[offset + 3]
        assert ctx.values[3, 0] == row.max()
        assert ctx.values[3, 1] == row.min()
        assert ctx.values[3, 2] == vf.vols[3].max()

    def test_single_asset_max_equals_min(self, rng):
        rf, vf, ctx = bundle(rng, assets=1)
        np.testing.assert_allclose(ctx.values[:, 0], ctx.values[:, 1])

    def test_external_series_appended(self, rng):
        rf, vf, ctx = bundle(rng)
        extra = ContextFrame(rf.dates.copy(), ("sentiment",),
                             rng.uniform(0, 1, (len(rf.dates), 1)))
        merged = build_context_series(rf, vf, extra)
        assert merged.names == ("max_return", "min_return", "max_vol", "sentiment")
        offset = len(rf.dates) - len(vf.dates)
        np.testing.assert_allclose(merged.values[:, 3], extra.values[offset:, 0])

    def test_misaligned_external_rejected(self, rng):
        rf, vf, _ = bundle(rng)
        extra = ContextFrame(rf.dates[: len(rf.dates) // 2].copy(), ("x",),
                             np.zeros((len(rf.dates) // 2, 1)))
        with pytest.raises(DataError, match="misaligned"):
            build_context_series(rf, vf, extra)

    def test_load_context_csv(self, tmp_path):
        path = tmp_path / "ctx.csv"
        path.write_text("date,riskaversion\n2020-01-02,0.5\n2020-01-03,-0.25\n")
        frame = load_context_csv(str(path))
        assert frame.names == ("riskaversion",)
        np.testing.assert_allclose(frame.values[:, 0], [0.5, -0.25])


class TestBuildObservation:
    def test_single_lag_single_asset(self, rng):
        rf, vf, ctx = bundle(rng, assets=1)
        lags = LagSet((0,))
        t = min_valid_index(vf, rf, lags, lags)
        obs = build_observation(rf, vf, ctx, lags, lags, t)
        assert obs.asset_tensor.shape == (2, 1, 1)
        offset = len(rf.dates) - len(vf.dates)
        assert obs.asset_tensor[0, 0, 0] == rf.returns[t, 0]
        assert obs.asset_tensor[1, 0, 0] == vf.vols[t - offset, 0]

    def test_default_lag_shape(self, rng):
        rf, vf, ctx = bundle(rng, steps=160, assets=4, vol_window=20)
        lags = LagSet((0, 1, 2, 3, 4, 20, 60))
        t = min_valid_index(vf, rf, lags, lags)
        obs = build_observation(rf, vf, ctx, lags, lags, t)
        assert obs.asset_tensor.shape == (2, 4, 7)
        assert obs.context_matrix.shape == (3, 7)

    def test_lag_axis_oldest_to_newest(self, rng):
        rf, vf, ctx = bundle(rng)
        lags = LagSet((0, 1, 2))
        t = 40
        obs = build_observation(rf, vf, ctx, lags, lags, t)
        np.testing.assert_allclose(obs.asset_tensor[0, 1], rf.returns[[t - 2, t - 1, t], 1])
        np.testing.assert_allclose(obs.context_matrix[0],
                                   [ctx.values[i - (len(rf.dates) - len(ctx.dates)), 0]
                                    for i in (t - 2, t - 1, t)])

    def test_constant_series_zero_vol_channel(self):
        prices = 100 * np.cumprod(np.full((30, 2), 1.01), axis=0)
        rf = compute_returns(make_price_frame(prices))
        vf = rolling_volatility(rf, 5)
        ctx = build_context_series(rf, vf)
        lags = LagSet((0, 1))
        obs = build_observation(rf, vf, ctx, lags, lags, 20)
        np.testing.assert_allclose(obs.asset_tensor[0], 0.01, atol=1e-12)
        np.testing.assert_allclose(obs.asset_tensor[1], 0.0, atol=1e-12)

    def test_insufficient_history_rejected(self, rng):
        rf, vf, ctx = bundle(rng)
        lags = LagSet((0, 1, 2, 3, 4, 20, 60))
        lo = min_valid_index(vf, rf, lags, lags)
        with pytest.raises(DataError, match="insufficient history"):
            build_observation(rf, vf, ctx, lags, lags, lo - 1)
        build_observation(rf, vf, ctx, lags, lags, lo)  # boundary index works

    def test_causality(self, rng):
        rf, vf, ctx = bundle(rng, steps=100)
        lags = LagSet((0, 1, 5))
        t = 50
        before = build_observation(rf, vf, ctx, lags, lags, t)
        mutated = rf.returns.copy()
        mutated[t + 1:] += 0.05
        rf2 = type(rf)(rf.dates, rf.assets, mutated)
        vf2 = rolling_volatility(rf2, 5)
        ctx2 = build_context_series(rf2, vf2)
        after = build_observation(rf2, vf2, ctx2, lags, lags, t)
        assert np.array_equal(before.asset_tensor, after.asset_tensor)
        assert np.array_equal(before.context_matrix, after.context_matrix)

    def test_unselected_lags_ignored(self, rng):
        # perturbing data at offsets outside the lag set leaves the
        # observation (and so any action computed from it) unchanged
        rf, vf, ctx = bundle(rng, steps=100)
        lags = LagSet((0, 1, 5))
        t = 50
        before = build_observation(rf, vf, ctx, lags, lags, t)
        mutated = rf.returns.copy()
        mutated[t - 3] += 0.04  # lag 3 is not in the set
        rf2 = type(rf)(rf.dates, rf.assets, mutated)
        after = build_observation(rf2, vf, ctx, lags, lags, t)
        assert np.array_equal(before.asset_tensor[0], after.asset_tensor[0])

    def test_asset_permutation_equivariance(self, rng):
        rf, vf, ctx = bundle(rng, assets=3)
        perm = [2, 0, 1]
        rf2 = type(rf)(rf.dates, tuple(rf.assets[i] for i in perm), rf.returns[:, perm])
        vf2 = rolling_volatility(rf2, 5)
        ctx2 = build_context_series(rf2, vf2)
        lags = LagSet((0, 1))
        a = build_observation(rf, vf, ctx, lags, lags, 30)
        b = build_observation(rf2, vf2, ctx2, lags, lags, 30)
        np.testing.assert_allclose(b.asset_tensor, a.asset_tensor[:, perm, :])
        np.testing.assert_allclose(b.context_matrix, a.context_matrix)
