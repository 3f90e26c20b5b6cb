import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_price_frame, weekday_dates
from portalloc.errors import DataError
from portalloc.market_data import (PriceFrame, RegimeSpec, ReturnFrame, SyntheticSpec,
                                   compute_returns, generate_synthetic,
                                   generate_synthetic_with_regimes,
                                   load_price_csv, rolling_volatility,
                                   write_price_csv)


def write_csv(tmp_path, text):
    path = tmp_path / "prices.csv"
    path.write_text(text)
    return str(path)


class TestLoadPriceCsv:
    def test_well_formed(self, tmp_path):
        path = write_csv(tmp_path, "date,AA,BB\n2020-01-02,100.0,50.0\n"
                                   "2020-01-03,101.0,49.5\n2020-01-06,99.0,50.5\n")
        frame = load_price_csv(path)
        assert frame.prices.shape == (3, 2)
        assert frame.assets == ("AA", "BB")
        assert str(frame.dates[0]) == "2020-01-02"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_price_csv(str(tmp_path / "nope.csv"))

    def test_non_positive_price(self, tmp_path):
        path = write_csv(tmp_path, "date,AA\n2020-01-02,100.0\n2020-01-03,0.0\n")
        with pytest.raises(DataError, match=r"non-positive price at \(row 3, asset AA\)"):
            load_price_csv(path)

    def test_unordered_dates(self, tmp_path):
        path = write_csv(tmp_path, "date,AA\n2020-01-02,100.0\n2020-01-01,99.0\n")
        with pytest.raises(DataError, match="unordered dates"):
            load_price_csv(path)

    def test_duplicate_date(self, tmp_path):
        path = write_csv(tmp_path, "date,AA\n2020-01-02,100.0\n2020-01-02,99.0\n")
        with pytest.raises(DataError, match="duplicate date"):
            load_price_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path, "date,AA\n2020-01-02,abc\n")
        with pytest.raises(DataError, match="non-numeric cell"):
            load_price_csv(path)

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path, "date,AA,BB\n2020-01-02,100.0\n")
        with pytest.raises(DataError, match="row 2 has 2 cells"):
            load_price_csv(path)

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path, "time,AA\n2020-01-02,100.0\n")
        with pytest.raises(DataError, match="header"):
            load_price_csv(path)

    def test_round_trip(self, tmp_path, rng):
        frame = make_price_frame(100.0 * np.cumprod(1 + 0.01 * rng.standard_normal((40, 3)), axis=0))
        path = str(tmp_path / "out.csv")
        write_price_csv(frame, path)
        back = load_price_csv(path)
        assert np.array_equal(back.dates, frame.dates)
        assert back.assets == frame.assets
        assert np.array_equal(back.prices, frame.prices)


class TestComputeReturns:
    def test_single_step(self):
        rf = compute_returns(make_price_frame([100.0, 110.0]))
        np.testing.assert_allclose(rf.returns, [[0.10]], atol=1e-15)

    def test_constant_prices(self):
        rf = compute_returns(make_price_frame([50.0, 50.0, 50.0]))
        np.testing.assert_allclose(rf.returns, np.zeros((2, 1)), atol=0)

    def test_down_then_up(self):
        rf = compute_returns(make_price_frame([100.0, 80.0, 100.0]))
        np.testing.assert_allclose(rf.returns[:, 0], [-0.20, 0.25], atol=1e-15)

    def test_insufficient_history(self):
        with pytest.raises(DataError, match="insufficient history"):
            compute_returns(make_price_frame([100.0]))

    @pytest.mark.parametrize("before, after, outcome", [
        (1e-300, 1e300, "infinite"),        # the ratio overflows
        (87.0, 1e-200, "-100% after rounding"),  # a fall by more than 2^53 times
    ])
    def test_step_outside_the_float_range_is_named(self, before, after, outcome):
        """Both prices are finite and positive, but the return is not a
        finite number above -100%: the first such cell, by date and then by
        asset, is named, and no RuntimeWarning escapes."""
        prices = np.full((5, 3), 50.0)
        prices[:, 1] = prices[:, 2] = before
        prices[3:, 1] = prices[2:, 2] = after
        frame = make_price_frame(prices)
        with pytest.raises(DataError, match=f"return of asset A3 on {frame.dates[2]} is {outcome}"):
            compute_returns(frame)

    def test_cumprod_rebuilds_prices(self, rng):
        frame = make_price_frame(100.0 * np.cumprod(1 + 0.02 * rng.standard_normal((60, 2)), axis=0))
        rf = compute_returns(frame)
        rebuilt = np.cumprod(1.0 + rf.returns, axis=0)
        np.testing.assert_allclose(rebuilt, frame.prices[1:] / frame.prices[0],
                                   rtol=1e-12)


class TestRollingVolatility:
    def test_zero_variance(self):
        prices = 100.0 * np.cumprod(np.full(10, 1.01))
        rf = compute_returns(make_price_frame(prices))
        vf = rolling_volatility(rf, 5)
        np.testing.assert_allclose(vf.vols, 0.0, atol=1e-15)

    def test_two_point_window(self):
        # returns +1% then -1%: mean 0, population std sqrt(2e-4/2) = 0.01
        frame = make_price_frame([100.0, 101.0, 99.99])
        rf = compute_returns(frame)
        vf = rolling_volatility(rf, 2)
        np.testing.assert_allclose(vf.vols[0, 0], 0.01, atol=1e-6)

    def test_insufficient_rows(self, rng):
        rf = compute_returns(make_price_frame(100 + rng.random(11)))
        with pytest.raises(DataError, match="insufficient rows"):
            rolling_volatility(rf, 20)

    def test_window_too_small(self, rng):
        rf = compute_returns(make_price_frame(100 + rng.random(11)))
        with pytest.raises(DataError, match="window must be >= 2"):
            rolling_volatility(rf, 1)

    def test_population_divisor(self, rng):
        rf = compute_returns(make_price_frame(100 * np.cumprod(1 + 0.01 * rng.standard_normal(30))))
        vf = rolling_volatility(rf, 7)
        expected = rf.returns[3:10, 0].std(ddof=0)
        np.testing.assert_allclose(vf.vols[3, 0], expected, rtol=1e-12)

    def test_overflowing_volatility_names_its_asset_and_window(self):
        # every return is finite, but the square of the 1e200 one is not
        prices = np.full((12, 2), 100.0)
        prices[6:, 1] *= 1e200
        rf = compute_returns(make_price_frame(prices, assets=("A", "B")))
        with pytest.raises(DataError) as info:
            rolling_volatility(rf, 3)
        assert str(info.value) == (f"volatility of asset B over the window ending "
                                   f"{rf.dates[5]} overflows")

    def test_shift_equivariance(self, rng):
        prices = 100 * np.cumprod(1 + 0.01 * rng.standard_normal((50, 2)), axis=0)
        full = rolling_volatility(compute_returns(make_price_frame(prices)), 5)
        later = rolling_volatility(compute_returns(make_price_frame(prices[10:], start="2020-01-20")), 5)
        np.testing.assert_allclose(full.vols[-len(later.vols):], later.vols, rtol=1e-12)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(shape=st.integers(2, 60).flatmap(lambda rows: st.tuples(st.just(rows),
                                                                  st.integers(2, rows))),
           assets=st.integers(1, 30), order=st.sampled_from("CF"), scale=st.integers(-8, 200),
           zeros=st.sampled_from([None, 0.0, -0.0]), seed=st.integers(0, 2**32 - 1))
    @example(shape=(40, 10), assets=2, order="C", scale=-2, zeros=None, seed=0)
    @example(shape=(40, 20), assets=24, order="C", scale=155, zeros=0.0, seed=1)
    @example(shape=(40, 10), assets=3, order="F", scale=-2, zeros=-0.0, seed=2)
    @example(shape=(40, 12), assets=1, order="C", scale=-2, zeros=None, seed=3)
    @example(shape=(40, 21), assets=5, order="C", scale=-2, zeros=None, seed=4)
    def test_equals_the_view_reduction_bit_for_bit(self, shape, assets, order, scale, zeros,
                                                   seed):
        """Slices for C-ordered frames of two or more assets, the view for a lone
        column or Fortran order: the same bits or the same error, for windows up
        to the row count."""
        rows, window = shape
        rng = np.random.default_rng(seed)
        returns = 10.0 ** scale * rng.standard_normal((rows, assets))
        if zeros is not None:  # zero windows and ties
            returns[rng.random(returns.shape) < 0.5] = zeros
        rf = ReturnFrame(weekday_dates("2020-01-06", rows), tuple(f"A{i}" for i in range(assets)),
                         np.array(returns, order=order))
        want = oracles.rolling_std(rf.returns, window)
        if np.isfinite(want).all():
            got = rolling_volatility(rf, window).vols
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            return
        row, col = np.argwhere(~np.isfinite(want))[0]
        with pytest.raises(DataError) as info:
            rolling_volatility(rf, window)
        assert str(info.value) == (f"volatility of asset {rf.assets[col]} over the window "
                                   f"ending {rf.dates[row + window - 1]} overflows")


class TestSyntheticGenerator:
    def two_regime_spec(self, steps=2000, seed=11):
        regimes = (
            RegimeSpec(np.array([0.0008, 0.0002]), np.array([0.010, 0.015]), 0.2, 150),
            RegimeSpec(np.array([-0.0005, 0.0004]), np.array([0.025, 0.020]), 0.5, 100),
        )
        return SyntheticSpec(2, steps, regimes, seed=seed)

    def test_determinism(self):
        a = generate_synthetic(self.two_regime_spec())
        b = generate_synthetic(self.two_regime_spec())
        assert np.array_equal(a.prices, b.prices)
        assert np.array_equal(a.dates, b.dates)

    def test_zero_volatility_compounds_exactly(self):
        spec = SyntheticSpec(1, 10, (RegimeSpec(np.array([0.001]), np.array([0.0]), 0.0, 10),), seed=3)
        frame = generate_synthetic(spec)
        np.testing.assert_allclose(frame.prices[:, 0], 100.0 * 1.001 ** np.arange(11), rtol=1e-12)

    def test_realized_vols_match_spec(self):
        spec = self.two_regime_spec()
        frame, labels = generate_synthetic_with_regimes(spec)
        rets = frame.prices[1:] / frame.prices[:-1] - 1.0
        for k, regime in enumerate(spec.regimes):
            rows = rets[labels == k]
            assert len(rows) > 200
            realized = rows.std(axis=0, ddof=1)
            np.testing.assert_allclose(realized, regime.vol, rtol=0.15)

    def test_invalid_spec_rejected(self):
        with pytest.raises(DataError, match="duration"):
            SyntheticSpec(1, 5, (RegimeSpec(np.array([0.0]), np.array([0.01]), 0.0, 0),))
        with pytest.raises(DataError, match="correlation"):
            SyntheticSpec(2, 5, (RegimeSpec(np.zeros(2), np.full(2, 0.01), 1.5, 5),))
        with pytest.raises(DataError, match="at least one regime is required"):
            SyntheticSpec(1, 5)

    def test_prices_positive_and_start_at_100(self):
        frame = generate_synthetic(self.two_regime_spec(steps=500))
        assert np.all(frame.prices > 0)
        np.testing.assert_allclose(frame.prices[0], 100.0)


def test_frame_invariants_rejected():
    dates = weekday_dates("2020-01-06", 3)
    with pytest.raises(DataError):
        PriceFrame(dates[[0, 0, 1]], ("A",), np.full((3, 1), 10.0))
    with pytest.raises(DataError):
        PriceFrame(dates, ("A",), np.array([[1.0], [-2.0], [3.0]]))
    with pytest.raises(DataError, match="price matrix shape does not match dates/assets"):
        PriceFrame(dates, ("A", "B"), np.full((3, 1), 10.0))
