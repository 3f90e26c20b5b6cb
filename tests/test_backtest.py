import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_price_frame, weekday_dates
from portalloc.backtest import (CompareConfig, DataBundle, EquityCurve, MetricSet,
                                annualized_return, compare_models, curves_csv,
                                make_schedule, max_drawdown, report_table_csv,
                                run_strategy, sharpe, sortino, stitch_curves,
                                weights_csv)
from portalloc.errors import DataError, NumericError
from portalloc.features import LagSet, build_context_series
from portalloc.market_data import ReturnFrame, compute_returns, rolling_volatility


def curve_from_values(values):
    values = np.asarray(values, dtype=float)
    steps = len(values) - 1
    return EquityCurve(weekday_dates("2021-01-04", steps + 1), values,
                       np.full((steps, 1), 1.0), np.ones(steps), np.zeros(steps))


def returns_frame(returns):
    returns = np.asarray(returns, dtype=float)
    prices = 100.0 * np.cumprod(np.vstack([np.ones(returns.shape[1]), 1 + returns]), axis=0)
    return compute_returns(make_price_frame(prices))


class TestSchedule:
    def test_three_splits_by_construction(self):
        # 4 x 252 rows: one year of initial training, three one-year tests
        dates = weekday_dates("2000-01-03", 4 * 252)
        schedule = make_schedule(dates, dates[251], 252)
        assert len(schedule) == 3
        assert schedule.splits[0].test_start == 252
        assert schedule.splits[-1].test_end == 4 * 252

    def test_expanding_train(self):
        dates = weekday_dates("2000-01-03", 600)
        schedule = make_schedule(dates, dates[199], 100)
        ends = [s.test_end for s in schedule.splits]
        starts = [s.test_start for s in schedule.splits]
        assert starts == [200, 300, 400, 500]
        assert ends == [300, 400, 500, 600]

    def test_train_end_beyond_data_rejected(self):
        dates = weekday_dates("2000-01-03", 100)
        with pytest.raises(DataError, match="empty test region"):
            make_schedule(dates, dates[-1], 50)

    def test_last_split_may_be_shorter(self):
        dates = weekday_dates("2000-01-03", 110)
        schedule = make_schedule(dates, dates[49], 50)
        assert [s.test_end - s.test_start for s in schedule.splits] == [50, 10]


class TestRunStrategy:
    def test_zero_returns_flat_curve(self):
        rf = returns_frame(np.zeros((40, 2)))
        curve = run_strategy(lambda t: (np.array([0.6, 0.4]), 2.0), rf, 5, 35, 0.0)
        np.testing.assert_allclose(curve.values, 1.0, atol=1e-15)

    def test_buy_and_hold_passthrough(self, rng):
        rets = 0.01 * rng.standard_normal((60, 1))
        rf = returns_frame(rets)
        curve = run_strategy(lambda t: (np.array([1.0]), 1.0), rf, 0, 59, 0.0)
        growth = np.cumprod(1 + rets[1:60, 0])
        np.testing.assert_allclose(curve.values[1:], growth, rtol=1e-12)

    def test_full_switch_cost_drag(self):
        # constant prices so returns contribute nothing; one full switch of an
        # unlevered portfolio (turnover 2) at 5 bp costs exactly 0.1%
        rf = returns_frame(np.zeros((10, 2)))
        plan = {3: (np.array([1.0, 0.0]), 1.0), 4: (np.array([0.0, 1.0]), 1.0)}

        def decide(t):
            return plan.get(t, plan[max(k for k in plan if k <= t)] if t > 4 else plan[3])

        curve = run_strategy(decide, rf, 3, 6, 0.0005,
                             prev_position=np.array([1.0, 0.0]))
        np.testing.assert_allclose(curve.turnover, [0.0, 2.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(curve.values[2] / curve.values[1], 1 - 0.001, rtol=1e-12)

    def test_initial_entry_charged(self):
        rf = returns_frame(np.zeros((10, 1)))
        curve = run_strategy(lambda t: (np.array([1.0]), 3.0), rf, 2, 5, 0.001)
        np.testing.assert_allclose(curve.turnover, [3.0, 0.0, 0.0])
        np.testing.assert_allclose(curve.values[1], 1 - 0.003, rtol=1e-12)

    def test_one_day_lag(self):
        # a spike at step k is earned by the decision made at k-1
        rets = np.zeros((20, 1))
        rets[10, 0] = 0.25
        rf = returns_frame(rets)
        hits = []

        def decide(t):
            hits.append(t)
            return np.array([1.0]), 1.0

        curve = run_strategy(decide, rf, 8, 12, 0.0)
        assert hits == [8, 9, 10, 11]
        np.testing.assert_allclose(curve.values, [1.0, 1.0, 1.25, 1.25, 1.25], rtol=1e-12)

    def test_cost_monotonicity(self, rng):
        rets = 0.01 * rng.standard_normal((50, 2))
        rf = returns_frame(rets)

        def wiggle(t):
            w = 0.5 + 0.3 * np.sin(t / 3.0)
            return np.array([w, 1 - w]), 2.0

        low = run_strategy(wiggle, rf, 5, 45, 0.0001)
        high = run_strategy(wiggle, rf, 5, 45, 0.002)
        assert np.all(high.values[1:] <= low.values[1:] + 1e-15)

    def test_bankruptcy_flag(self):
        rets = np.zeros((10, 1))
        rets[5, 0] = -0.5
        rf = returns_frame(rets)
        curve = run_strategy(lambda t: (np.array([1.0]), 3.0), rf, 3, 8, 0.0)
        assert curve.bankrupt
        assert curve.values[-1] == 0.0
        assert len(curve.values) == 3  # terminates at the wipeout step

    def test_every_decision_asked_once_in_order_also_after_ruin(self):
        rets = np.zeros((12, 1))
        rets[5, 0] = -0.5
        rf = returns_frame(rets)
        hits = []

        def decide(t):
            hits.append(t)
            return np.array([1.0]), 3.0

        curve = run_strategy(decide, rf, 3, 9, 0.0)
        assert curve.bankrupt and len(curve.weights) == 2
        assert hits == [3, 4, 5, 6, 7, 8]
        # every decision is checked before the replay, also those after the ruin
        with pytest.raises(NumericError, match="non-finite"):
            run_strategy(lambda t: (np.array([1.0]), 3.0 if t < 7 else float("nan")),
                         rf, 3, 9, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_overflow_ends_by_contract(self):
        rf = returns_frame(np.full((6, 1), 0.5))
        # entering costs 1e308 * 3 = inf, so the step return is -inf: a ruin
        curve = run_strategy(lambda t: (np.array([1.0]), 3.0), rf, 0, 4, 1e308)
        assert curve.bankrupt and np.array_equal(curve.values, [1.0, 0.0])
        # a value that overflows to +inf
        with pytest.raises(NumericError, match="overflow"):
            run_strategy(lambda t: (np.array([1.0]), 1e308), rf, 0, 4, 0.0)
        # inf - inf: an infinite gain minus an infinite cost is a NaN step return
        with pytest.raises(NumericError, match="NaN"):
            run_strategy(lambda t: (np.array([1e308]), 10.0), rf, 0, 4, 0.001)

    def test_causality_of_engine(self, rng):
        # mutating data after date X leaves decisions and equity up to X intact
        rets = 0.01 * rng.standard_normal((60, 2))
        rf_a = returns_frame(rets)
        mutated = rets.copy()
        mutated[40:] *= -2.5
        rf_b = returns_frame(mutated)

        def make_decider(rf):
            def decide(t):
                w = np.array([0.5, 0.5]) + 0.1 * np.sign(rf.returns[t])
                w = np.abs(w) / np.abs(w).sum()
                return w, 1.0
            return decide

        a = run_strategy(make_decider(rf_a), rf_a, 10, 39, 0.0005)
        b = run_strategy(make_decider(rf_b), rf_b, 10, 39, 0.0005)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.weights, b.weights)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(m=st.sampled_from([1, 2, 4, 24]), steps=st.integers(1, 40), t_start=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1), cost_rate=st.sampled_from([0.0, 0.0005, 0.02]),
       zero_share=st.sampled_from([0.0, 0.3, 1.0]), carried=st.booleans(),
       ruin=st.none() | st.floats(0.0, 1.0, exclude_max=True))
@example(m=24, steps=30, t_start=2, seed=7, cost_rate=0.0005, zero_share=0.3, carried=True,
         ruin=0.5)
@example(m=1, steps=9, t_start=0, seed=8, cost_rate=0.02, zero_share=0.3, carried=True,
         ruin=0.5)
def test_run_strategy_equals_the_per_day_loop_bit_for_bit(m, steps, t_start, seed, cost_rate,
                                                          zero_share, carried, ruin):
    """The vectorised replay does the loop's arithmetic in the loop's order,
    so every output equals the loop's exactly; ruin (a row of -90% returns
    under leverage >= 3) falls at the given fraction of the span."""
    rng = np.random.default_rng(seed)
    returns = 0.02 * rng.standard_normal((t_start + steps + 1, m))
    weights = rng.dirichlet(np.ones(m), steps) * rng.uniform(0.5, 1.5, (steps, 1))
    leverage = rng.uniform(0.0, 3.0, steps)
    leverage[rng.random(steps) < zero_share] = 0.0
    if ruin is not None:
        at = int(ruin * steps)
        returns[t_start + at + 1] = -0.9
        leverage[at] += 3.0
    rf = ReturnFrame(weekday_dates("2020-01-06", len(returns)),
                     tuple(f"A{i}" for i in range(m)), returns)
    position = rng.uniform(0.0, 2.0) * rng.dirichlet(np.ones(m)) if carried else None

    def decide(t):
        return weights[t - t_start], leverage[t - t_start]

    got = run_strategy(decide, rf, t_start, t_start + steps, cost_rate, position)
    want = oracles.per_day_replay(decide, rf, t_start, t_start + steps, cost_rate, position)
    assert got.bankrupt == want.bankrupt == (ruin is not None)
    for name in ("dates", "values", "weights", "leverage", "turnover"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestMetrics:
    def test_flat_curve_zero_return(self):
        assert annualized_return(curve_from_values(np.ones(30))) == 0.0

    def test_doubling_in_one_year(self):
        values = np.linspace(1.0, 2.0, 253)
        values[-1] = 2.0
        curve = curve_from_values(np.geomspace(1.0, 2.0, 253))
        np.testing.assert_allclose(annualized_return(curve), 1.0, rtol=1e-10)

    def test_half_year_compounding(self):
        curve = curve_from_values(np.geomspace(1.0, 1.1, 127))
        np.testing.assert_allclose(annualized_return(curve), 1.1 ** 2 - 1, rtol=1e-10)

    def test_zero_vol_sharpe_undefined(self):
        assert sharpe(curve_from_values(np.full(40, 2.0))) is None
        up = curve_from_values(np.geomspace(1, 1.5, 40))
        assert sharpe(up) is None  # constant drift has zero return variance

    def test_sharpe_sign_matches_return(self, rng):
        for _ in range(10):
            values = np.cumprod(1 + 0.01 * rng.standard_normal(100) + 0.001)
            curve = curve_from_values(np.concatenate([[1.0], values]))
            s = sharpe(curve)
            if s is not None and abs(annualized_return(curve)) > 1e-12:
                assert np.sign(s) == np.sign(annualized_return(curve))

    def test_no_down_days_sortino_undefined(self):
        curve = curve_from_values(np.geomspace(1.0, 1.2, 30))
        assert sortino(curve) is None

    def test_all_negative_sortino_negative(self):
        curve = curve_from_values(np.geomspace(1.0, 0.8, 30))
        assert sortino(curve) < 0

    def test_symmetric_returns_sortino_sqrt2_sharpe(self, rng):
        steps = rng.choice([-0.01, 0.01], size=20000)
        curve = curve_from_values(np.cumprod(np.concatenate([[1.0], 1 + steps])))
        s, so = sharpe(curve), sortino(curve)
        np.testing.assert_allclose(so / s, np.sqrt(2.0), rtol=0.02)

    def test_max_drawdown_spec_path(self):
        curve = curve_from_values([100.0, 120.0, 90.0, 110.0])
        np.testing.assert_allclose(max_drawdown(curve), 0.25, atol=0)

    def test_max_drawdown_monotone_increasing_curve(self):
        assert max_drawdown(curve_from_values(np.geomspace(1, 3, 50))) == 0.0

    def test_appending_never_decreases_drawdown(self, rng):
        values = np.cumprod(1 + 0.02 * rng.standard_normal(200))
        values = np.concatenate([[1.0], values])
        partial = max_drawdown(curve_from_values(values[:100]))
        full = max_drawdown(curve_from_values(values))
        assert full >= partial

    def test_brute_force_agreement(self, rng):
        for _ in range(40):
            n = int(rng.integers(5, 200))
            values = np.cumprod(1 + np.clip(0.03 * rng.standard_normal(n), -0.5, 0.5))
            values = np.concatenate([[1.0], values])
            curve = curve_from_values(values)
            ref = oracles.metrics_bruteforce(values)
            np.testing.assert_allclose(annualized_return(curve),
                                       ref["annualized_return"], atol=1e-10)
            np.testing.assert_allclose(max_drawdown(curve), ref["max_dd"], atol=1e-10)
            for got, want in ((sharpe(curve), ref["sharpe"]), (sortino(curve), ref["sortino"])):
                if want is None:
                    assert got is None
                else:
                    np.testing.assert_allclose(got, want, atol=1e-10)


class TestStitch:
    def test_compounds_across_segments(self):
        a = curve_from_values([1.0, 1.1, 1.2])
        b = curve_from_values([1.0, 0.9])
        b = EquityCurve(weekday_dates("2021-01-06", 2), b.values, b.weights,
                        b.leverage, b.turnover)
        stitched = stitch_curves([a, b])
        np.testing.assert_allclose(stitched.values, [1.0, 1.1, 1.2, 1.2 * 0.9], rtol=1e-12)
        assert len(stitched.dates) == 4

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_stitching_keeps_every_step_return(self, data):
        # split k + 1 starts on the date split k ends on; after a ruin every
        # later split reads 0 throughout and is bankrupt, as compare_models pads it
        segments, start, ruined = [], np.datetime64("2021-01-04"), False
        for _ in range(data.draw(st.integers(1, 4))):
            steps = data.draw(st.integers(1, 6))
            if ruined:
                values = np.zeros(steps + 1)
            else:
                # returns bounded away from 0, so 1e-12 relative survives g - 1
                moves = data.draw(st.lists(st.floats(0.01, 0.5), min_size=steps, max_size=steps))
                signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=steps,
                                           max_size=steps))
                growth = 1.0 + np.array(signs) * np.array(moves)
                ruin = data.draw(st.one_of(st.none(), st.integers(0, steps - 1)))
                if ruin is not None:
                    growth[ruin] = 0.0
                ruined = ruin is not None
                start_value = data.draw(st.floats(0.5, 2.0))
                values = start_value * np.concatenate([[1.0], np.cumprod(growth)])
            rng = np.random.default_rng(len(segments))
            segments.append(EquityCurve(start + np.arange(steps + 1), values,
                                        rng.random((steps, 2)), rng.random(steps),
                                        rng.random(steps), ruined))
            start = segments[-1].dates[-1]
        stitched = stitch_curves(segments)
        np.testing.assert_allclose(stitched.step_returns(),
                                   np.concatenate([s.step_returns() for s in segments]),
                                   rtol=1e-12, atol=0.0)
        assert len(stitched.dates) == sum(len(s.dates) for s in segments) - (len(segments) - 1)
        assert np.all(np.diff(stitched.dates) > np.timedelta64(0, "D"))
        for k, seg in enumerate(segments):
            if seg.values[0] == 0.0:
                first = sum(len(s.dates) - 1 for s in segments[:k])
                assert not stitched.values[first:first + len(seg.dates)].any()
        assert stitched.bankrupt == any(s.bankrupt for s in segments)
        assert np.array_equal(stitched.weights, np.vstack([s.weights for s in segments]))
        assert np.array_equal(stitched.leverage, np.concatenate([s.leverage for s in segments]))


def small_bundle(rng, steps=420, assets=2):
    prices = 100 * np.cumprod(1 + 0.006 * rng.standard_normal((steps, assets))
                              + 0.0004, axis=0)
    rf = compute_returns(make_price_frame(prices))
    vf = rolling_volatility(rf, 5)
    ctx = build_context_series(rf, vf)
    lags = LagSet((0, 1, 2))
    return DataBundle(rf, vf, ctx, lags, lags)


class TestCompare:
    def test_single_model_single_window_matches_run_strategy(self, rng):
        bundle = small_bundle(rng)
        rf = bundle.rf
        schedule = make_schedule(rf.dates, rf.dates[299], 200)
        assert len(schedule) == 1
        cfg = CompareConfig(cost_rate=0.0005, horizons={}, ew_leverage=1.0)
        reports = compare_models(["equalweight"], bundle, schedule, cfg)
        assert len(reports) == 1
        split = schedule.splits[0]
        direct = run_strategy(lambda t: (np.array([0.5, 0.5]), 1.0), rf,
                              split.test_start - 1, split.test_end - 1, 0.0005)
        got = reports[0]
        want = MetricSet.of(direct)
        assert got.full == want
        assert len(got.per_window) == 1 and got.per_window[0] == want

    def test_model_rows_do_not_depend_on_the_other_models(self, rng):
        # models share each rebalance date's moments and minimum-variance solve
        bundle = small_bundle(rng)
        schedule = make_schedule(bundle.rf.dates, bundle.rf.dates[299], 60)
        cfg = CompareConfig(horizons={})
        alone = compare_models(["minvariance"], bundle, schedule, cfg)
        after = compare_models(["riskparity", "minvariance"], bundle, schedule, cfg)
        assert alone[0].full == after[1].full

    def test_unknown_model_rejected(self, rng):
        bundle = small_bundle(rng)
        schedule = make_schedule(bundle.rf.dates, bundle.rf.dates[299], 60)
        with pytest.raises(DataError, match="unknown model"):
            compare_models(["nope"], bundle, schedule, CompareConfig())

    def test_model_listed_twice_rejected(self, rng):
        bundle = small_bundle(rng)
        schedule = make_schedule(bundle.rf.dates, bundle.rf.dates[299], 60)
        with pytest.raises(DataError, match="model 'minvariance' is listed more than once"):
            compare_models(["minvariance", "minvariance"], bundle, schedule, CompareConfig())

    def test_empty_model_list_rejected(self, rng):
        bundle = small_bundle(rng)
        schedule = make_schedule(bundle.rf.dates, bundle.rf.dates[299], 60)
        with pytest.raises(DataError, match="empty model list"):
            compare_models([], bundle, schedule, CompareConfig())

    def test_horizon_exceeding_history_rejected(self, rng):
        bundle = small_bundle(rng)
        schedule = make_schedule(bundle.rf.dates, bundle.rf.dates[299], 60)
        cfg = CompareConfig(horizons={"5y": 1260})
        with pytest.raises(DataError, match="horizon"):
            compare_models(["equalweight"], bundle, schedule, cfg)

    def test_table_layout_and_csv(self, rng):
        bundle = small_bundle(rng)
        schedule = make_schedule(bundle.rf.dates, bundle.rf.dates[299], 60)
        cfg = CompareConfig(horizons={"60d": 60})
        reports = compare_models(["equalweight", "riskparity"], bundle, schedule, cfg)
        table = report_table_csv(reports)
        lines = table.strip().splitlines()
        assert lines[0] == "model,horizon,annualized_return,sortino,sharpe,max_dd"
        assert len(lines) == 1 + 2 * 2  # two models x (full + one horizon)
        curves = curves_csv(reports).strip().splitlines()
        assert curves[0] == "date,equalweight,riskparity"
        wcsv = weights_csv(reports[0]).strip().splitlines()
        assert wcsv[0] == "date,w1,w2,leverage"

    def test_out_of_sample_discipline(self, rng):
        # mutating data after the test window leaves test decisions unchanged
        prices = 100 * np.cumprod(1 + 0.006 * rng.standard_normal((420, 2)) + 0.0004, axis=0)
        bundle_a = small_bundle(np.random.default_rng(0))
        rf = bundle_a.rf
        schedule = make_schedule(rf.dates, rf.dates[299], 60)
        split = schedule.splits[0]
        mutated = rf.returns.copy()
        mutated[split.test_end:] *= -3.0
        rf_b = type(rf)(rf.dates, rf.assets, mutated)
        vf_b = rolling_volatility(rf_b, 5)
        ctx_b = build_context_series(rf_b, vf_b)
        bundle_b = DataBundle(rf_b, vf_b, ctx_b, bundle_a.lags, bundle_a.ctx_lags)
        one_split = type(schedule)((split,))
        cfg = CompareConfig(horizons={})
        for model in ("minvariance", "riskparity"):
            a = compare_models([model], bundle_a, one_split, cfg)[0]
            b = compare_models([model], bundle_b, one_split, cfg)[0]
            assert np.array_equal(a.curve.weights, b.curve.weights)
            assert np.array_equal(a.curve.values, b.curve.values)


class TestSharedMoments:
    """The convex models of one comparison share each rebalance date's moment
    estimate and minimum-variance solve; each model's weights must still equal
    its own estimate and solve on every date, bit for bit."""

    MODELS = ("markowitz", "maxreturn", "minvariance", "riskparity")

    def test_weights_equal_per_model_solves_with_one_estimate_per_date(self, rng,
                                                                      monkeypatch):
        import portalloc.allocators as allocators
        import portalloc.risk_models as risk_models
        from portalloc.market_data import ReturnFrame

        bundle = small_bundle(rng, assets=3)
        rf = bundle.rf
        schedule = make_schedule(rf.dates, rf.dates[299], 40)
        assert len(schedule) == 3
        # a floor and a cap that bind on some dates and are feasible on all
        _, dates = oracles.convex_decisions("minvariance", rf, schedule, CompareConfig())
        stats = [risk_models.estimate_stats(ReturnFrame(rf.dates[:t + 1], rf.assets,
                                                        rf.returns[:t + 1])) for t in dates]
        minvars = [allocators.solve_min_variance(s) for s in stats]
        lowest_top = min(float(s.mu.max()) for s in stats)
        highest_base = max(float(s.mu @ r.weights.w) for s, r in zip(stats, minvars))
        assert highest_base < lowest_top
        cfg = CompareConfig(horizons={}, r_min=0.5 * (highest_base + lowest_top),
                            sigma_max=1.1 * max(np.sqrt(r.objective_value) for r in minvars))
        want = {model: oracles.convex_decisions(model, rf, schedule, cfg)[0]
                for model in self.MODELS}

        estimated, min_variance_solves = [], []
        real_estimate, real_min_variance = risk_models.estimate_stats, allocators.solve_min_variance

        def counting_estimate(frame, window=None, end=None, ends=None):
            one = [len(frame.returns) if end is None else end]
            estimated.extend(e - 1 for e in (one if ends is None else ends))
            return real_estimate(frame, window, end, ends)

        def counting_min_variance(*args, **kwargs):
            min_variance_solves.append(1)
            return real_min_variance(*args, **kwargs)

        monkeypatch.setattr(risk_models, "estimate_stats", counting_estimate)
        monkeypatch.setattr(allocators, "solve_min_variance", counting_min_variance)
        reports = compare_models(list(self.MODELS), bundle, schedule, cfg)
        assert estimated == dates
        assert len(min_variance_solves) == len(dates)
        for model, report in zip(self.MODELS, reports):
            assert np.array_equal(report.curve.weights, want[model]), model

    def test_minimum_variance_is_solved_only_for_models_that_use_it(self, rng, monkeypatch):
        import portalloc.allocators as allocators

        bundle = small_bundle(rng, assets=3)
        schedule = make_schedule(bundle.rf.dates, bundle.rf.dates[299], 40)
        solves, real_min_variance = [], allocators.solve_min_variance

        def counting_min_variance(*args, **kwargs):
            solves.append(1)
            return real_min_variance(*args, **kwargs)

        monkeypatch.setattr(allocators, "solve_min_variance", counting_min_variance)
        models = ["riskparity", "maxdecorrelation", "equalweight"]
        compare_models(models, bundle, schedule, CompareConfig(horizons={}))
        assert solves == []
        compare_models(models + ["minvariance"], bundle, schedule, CompareConfig(horizons={}))
        assert len(solves) == sum(len(range(split.test_start - 1, split.test_end - 1, 21))
                                  for split in schedule.splits)

    def test_settled_faces_need_no_eigen_check(self, monkeypatch):
        """On a well-conditioned panel every warm or walked solve settles on a
        face whose Cholesky factor certifies uniqueness, so a compare of the
        three warm-started programs calls _non_unique not once."""
        import portalloc.allocators as allocators
        import portalloc.risk_models as risk_models

        bundle = small_bundle(np.random.default_rng(3), steps=700, assets=6)
        rf = bundle.rf
        schedule = make_schedule(rf.dates, rf.dates[299], 100)
        # a floor that binds on some dates, and a cap that binds on all: an
        # unmet cap ends maxreturn's walk at the frontier top, which
        # _certify checks by eigenvalues
        minvars = [allocators.solve_min_variance(risk_models.estimate_stats(
            ReturnFrame(rf.dates[:t + 1], rf.assets, rf.returns[:t + 1])))
            for split in schedule.splits for t in range(split.test_start - 1,
                                                        split.test_end - 1, 21)]
        vols = [np.sqrt(r.objective_value) for r in minvars]
        cfg = CompareConfig(horizons={}, rebalance=21, r_min=float(np.median(rf.returns)),
                            sigma_max=1.1 * max(vols))
        checks, lines, reports = [], [], []
        real_non_unique, real_on_face, real_solve = (allocators._non_unique,
                                                     allocators._on_face, allocators.solve)

        def counting_non_unique(*args):
            checks.append(1)
            return real_non_unique(*args)

        def counting_on_face(*args):
            lines.append(1)
            return real_on_face(*args)

        def recording_solve(*args, **kwargs):
            reports.append(real_solve(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(allocators, "_non_unique", counting_non_unique)
        monkeypatch.setattr(allocators, "_on_face", counting_on_face)
        monkeypatch.setattr(allocators, "solve", recording_solve)
        compare_models(["minvariance", "markowitz", "maxreturn"], bundle, schedule, cfg)
        assert checks == [] and len(lines) > 0
        assert all(r.converged and not r.non_unique for r in reports)
        floors = sum("return_target" in r.active_constraints for r in reports)
        caps = sum("risk_cap" in r.active_constraints for r in reports)
        assert 0 < floors < len(minvars) and caps == len(minvars)


def perturbed_params(bundle, seed):
    """A policy whose heads are not zero, so decisions vary by day."""
    from portalloc.policy import NetworkArch, init_network

    params = init_network(NetworkArch(asset_conv=((4, 2),), context_conv=((2, 2),)),
                          bundle.rf.num_assets, len(bundle.lags),
                          bundle.ctx.values.shape[1], len(bundle.ctx_lags), seed=seed)
    rng = np.random.default_rng(seed)
    for tensor in params.tensors.values():
        tensor.data = tensor.data + 0.5 * rng.standard_normal(tensor.data.shape)
    return params


class TestBatchedPolicyDecisions:
    """The drl test span is decided up front by one batched forward; every
    day must equal a one-observation forward at that day."""

    def schedule(self, bundle):
        schedule = make_schedule(bundle.rf.dates, bundle.rf.dates[299], 45)
        assert len(schedule) == 3
        return schedule

    def assert_matches_per_step(self, report, bundle, schedule, params_by_split):
        from oracles import build_observation
        from portalloc.policy import forward

        origin = schedule.splits[0].test_start - 1
        days = 0
        for k, split in enumerate(schedule.splits):
            for t in range(split.test_start - 1, split.test_end - 1):
                obs = build_observation(bundle.rf, bundle.vf, bundle.ctx, bundle.lags,
                                        bundle.ctx_lags, t)
                want = forward(params_by_split[k], obs)
                np.testing.assert_allclose(report.curve.weights[t - origin], want.weights,
                                           rtol=0, atol=1e-12)
                assert abs(report.curve.leverage[t - origin] - want.leverage) <= 1e-12
                days += 1
        assert days == len(report.curve.weights)

    def test_trained_params_match_per_step_forward(self, rng):
        bundle = small_bundle(rng)
        schedule = self.schedule(bundle)
        params = {k: perturbed_params(bundle, 10 + k) for k in range(len(schedule))}
        report = compare_models(["drl"], bundle, schedule, CompareConfig(horizons={}),
                                trained_params=params)[0]
        assert len(set(np.round(report.curve.leverage, 12))) > 10
        self.assert_matches_per_step(report, bundle, schedule, params)

    def test_inline_training_matches_per_step_forward(self, rng, monkeypatch):
        import portalloc.trainer as trainer
        from portalloc.policy import NetworkArch
        from portalloc.trainer import TrainConfig

        trained = []
        real_train = trainer.train

        def recording_train(*args, **kwargs):
            result = real_train(*args, **kwargs)
            trained.append(result.params)
            return result

        monkeypatch.setattr(trainer, "train", recording_train)
        bundle = small_bundle(rng)
        schedule = self.schedule(bundle)
        report = compare_models(["drl"], bundle, schedule, CompareConfig(horizons={}),
                                arch=NetworkArch(asset_conv=((4, 2),), context_conv=((2, 2),)),
                                train_cfg=TrainConfig(max_iterations=2, early_stop_patience=2))[0]
        assert len(trained) == len(schedule)
        self.assert_matches_per_step(report, bundle, schedule, dict(enumerate(trained)))

    def test_inline_training_takes_the_train_config_seed(self, rng):
        from portalloc.policy import NetworkArch
        from portalloc.trainer import TrainConfig

        bundle = small_bundle(rng)
        schedule = self.schedule(bundle)
        arch = NetworkArch(asset_conv=((4, 2),), context_conv=((2, 2),))
        curves = [compare_models(["drl"], bundle, schedule, CompareConfig(horizons={}),
                                 arch=arch, train_cfg=TrainConfig(max_iterations=2,
                                                                  early_stop_patience=2,
                                                                  seed=seed))[0].curve
                  for seed in (1, 2)]
        assert not np.array_equal(curves[0].values, curves[1].values)

    def test_one_inference_forward_per_split(self, rng, monkeypatch):
        import portalloc.policy as policy

        calls = []
        real_forward = policy.forward

        def counting_forward(params, obs):
            calls.append(obs.asset_tensor.shape[0])
            return real_forward(params, obs)

        monkeypatch.setattr(policy, "forward", counting_forward)
        bundle = small_bundle(rng)
        schedule = self.schedule(bundle)
        params = {k: perturbed_params(bundle, k) for k in range(len(schedule))}
        compare_models(["drl"], bundle, schedule, CompareConfig(horizons={}),
                       trained_params=params)
        assert calls == [s.test_end - s.test_start for s in schedule.splits]


class TestRuin:
    """A model that loses 100% on a step stays at value 0, untraded, for the
    rest of the comparison."""

    def compare(self, rng):
        bundle = small_bundle(rng)
        schedule = make_schedule(bundle.rf.dates, bundle.rf.dates[299], 30)
        cfg = CompareConfig(trad_leverage=400.0, horizons={"20d": 20})
        return bundle, schedule, compare_models(["minvariance", "equalweight"], bundle,
                                                schedule, cfg)

    def test_curve_padded_at_zero_on_every_later_date(self, rng):
        bundle, schedule, (ruined, ew) = self.compare(rng)
        curve = ruined.curve
        assert curve.bankrupt and not ew.curve.bankrupt
        np.testing.assert_array_equal(curve.dates, ew.curve.dates)
        ruin = int(np.argmax(curve.values == 0.0))
        assert 0 < ruin < schedule.splits[0].test_end - schedule.splits[0].test_start
        assert np.all(curve.values[:ruin] > 0) and np.all(curve.values[ruin:] == 0.0)
        assert np.all(curve.leverage[:ruin] == 400.0)
        assert np.all(curve.leverage[ruin:] == 0.0) and np.all(curve.weights[ruin:] == 0.0)
        assert np.all(curve.step_returns()[ruin:] == 0.0)
        assert curve.step_returns()[ruin - 1] == -1.0

    def test_every_metric_defined_and_outputs_written(self, rng):
        _, schedule, reports = self.compare(rng)
        ruined = reports[0]
        assert len(ruined.per_window) == len(schedule)
        for ms in [ruined.full, *ruined.horizons.values(), *ruined.per_window]:
            for value in (ms.annualized_return, ms.sortino, ms.sharpe, ms.max_dd):
                assert value is None or np.isfinite(value)
        assert ruined.full.annualized_return == -1.0 and ruined.full.max_dd == 1.0
        assert ruined.horizons["20d"].max_dd == 1.0
        lines = curves_csv(reports).splitlines()
        assert lines[-1].split(",")[1] == "0.0"
        assert weights_csv(ruined).splitlines()[-1].endswith(",0.0,0.0,0.0")

    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_ruin_on_a_splits_first_or_last_step(self, edge):
        # growth factors 1.5, 0.75 and 0 on dyadic returns: every value is exact;
        # a ruin on the last step leaves the split no step at value 0
        dates = weekday_dates("2021-01-04", 24)
        moves = np.where(np.arange(24) % 3 == 0, -0.125, 0.25)
        schedule = make_schedule(dates, dates[3], 5)  # tests [4, 9), [9, 14), [14, 19), [19, 24)
        split = schedule.splits[1]
        crash = split.test_start if edge == "first" else split.test_end - 1
        moves[crash] = -0.5
        rf = ReturnFrame(dates, ("A", "B"), np.column_stack([moves, moves]))
        vf = rolling_volatility(rf, 2)
        lags = LagSet((0,))
        bundle = DataBundle(rf, vf, build_context_series(rf, vf), lags, lags)
        cfg = CompareConfig(cost_rate=0.0, ew_leverage=2.0, horizons={})
        (report,) = compare_models(["equalweight"], bundle, schedule, cfg)
        first = schedule.splits[0].test_start - 1
        ruin = crash - 1 - first  # the decision step that earns the crash
        traded = np.arange(len(dates) - 1 - first) <= ruin
        values = np.concatenate([[1.0], np.cumprod(1.0 + 2.0 * moves[first + 1:])])
        values[ruin + 1:] = 0.0
        turnover = np.zeros(len(traded))
        turnover[0] = 2.0  # entering the market; equal weights are held across splits
        curve = report.curve
        assert curve.bankrupt and curve.values[ruin] > 0.0
        np.testing.assert_array_equal(curve.dates, dates[first:])
        np.testing.assert_array_equal(curve.values, values)
        np.testing.assert_array_equal(curve.weights, np.where(traded, 0.5, 0.0)[:, None]
                                      * np.ones(2))
        np.testing.assert_array_equal(curve.leverage, np.where(traded, 2.0, 0.0))
        np.testing.assert_array_equal(curve.turnover, turnover)
        assert len(report.per_window) == len(schedule)
        assert report.per_window[1].annualized_return == -1.0
        assert all(ms.max_dd == 1.0 for ms in report.per_window[1:])


class TestCompareConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("cost_rate", -0.001), ("cost_rate", float("nan")),
        ("trad_leverage", -1.0), ("trad_leverage", float("inf")),
        ("ew_leverage", -0.5), ("ew_leverage", float("nan")),
        ("rebalance", 0),
    ])
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(DataError, match=field):
            CompareConfig(**{field: value})

    def test_zero_cost_and_leverage_allowed(self):
        CompareConfig(cost_rate=0.0, trad_leverage=0.0, ew_leverage=0.0)


def test_compare_config_rejects_a_window_below_one():
    for window in (0, -5):
        with pytest.raises(DataError, match="est_window"):
            CompareConfig(est_window=window)
    CompareConfig(est_window=1)


def random_curve(rng, steps, m, start="2020-01-06"):
    """Curve cells mixing zeros, negatives, tiny and >= 1e3 magnitudes."""
    def cells(shape):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 5, size=shape)
        x[rng.random(shape) < 0.1] = 0.0
        return x

    return EquityCurve(weekday_dates(start, steps + 1), cells(steps + 1), cells((steps, m)),
                       cells(steps), np.zeros(steps))


class TestReportBytes:
    def test_curves_csv_matches_cell_by_cell_formatting(self, rng):
        from portalloc.backtest import PerformanceReport

        for _ in range(5):
            steps = int(rng.integers(1, 40))
            reports = [PerformanceReport(name, None, curve=random_curve(rng, steps, 2))
                       for name in ("a", "b", "c")]
            assert curves_csv(reports) == oracles.cell_by_cell_curves_csv(reports)

    def test_weights_csv_matches_cell_by_cell_formatting(self, rng):
        from portalloc.backtest import PerformanceReport

        for m in (1, 3, 5):
            report = PerformanceReport("x", None, curve=random_curve(rng, 30, m))
            assert weights_csv(report) == oracles.cell_by_cell_weights_csv(report)


def test_run_strategy_rejects_nan_decisions_and_cost():
    nan = float("nan")
    rf = compute_returns(make_price_frame(np.full((5, 2), 100.0)))
    with pytest.raises(NumericError, match="non-finite"):
        run_strategy(lambda t: (np.array([0.5, 0.5]), nan), rf, 0, 3, 0.0)
    with pytest.raises(NumericError, match="non-finite"):
        run_strategy(lambda t: (np.array([nan, 0.5]), 1.0), rf, 0, 3, 0.0)
    with pytest.raises(DataError, match="cost_rate"):
        run_strategy(lambda t: (np.array([0.5, 0.5]), 1.0), rf, 0, 3, nan)


def test_run_strategy_rejects_infinite_decisions_before_the_step():
    # inf * 0 on zero returns would warn before any after-the-fact check
    inf = float("inf")
    rf = compute_returns(make_price_frame(np.full((5, 2), 100.0)))
    with pytest.raises(NumericError, match="non-finite"):
        run_strategy(lambda t: (np.array([0.5, 0.5]), inf), rf, 0, 3, 0.0)
    with pytest.raises(NumericError, match="non-finite"):
        run_strategy(lambda t: (np.array([inf, 0.5]), 1.0), rf, 0, 3, 0.0)


def counting_walks(monkeypatch):
    """Wrap allocators._walk; the returned list grows by one per walk."""
    import portalloc.allocators as allocators

    walks = []
    real_walk = allocators._walk

    def counting(*args):
        walks.append(1)
        return real_walk(*args)

    monkeypatch.setattr(allocators, "_walk", counting)
    return walks


class TestFirstDateGuesses:
    """On a comparison's first rebalance date no report warm-starts the
    solves: minimum variance guesses every asset, and markowitz and maxreturn
    that date's minimum-variance support. A guess is kept only where the
    optimum is unique, so the date's weights are the cold walk's bits."""

    METHODS = ("minvariance", "markowitz", "maxreturn")

    def first_date(self, monkeypatch, rf, t, cfg):
        """{method: (weights on date t, walks they ran, report)}, each method
        solved from fresh moments, and the moments of date t."""
        from portalloc.backtest import _SplitMoments, _traditional_weights
        from portalloc.risk_models import estimate_stats

        walks, out = counting_walks(monkeypatch), {}
        for method in self.METHODS:
            split = _SplitMoments(range(t, t + 1), estimate_stats(rf, cfg.est_window, ends=[t + 1]))
            before = len(walks)
            weights, reports = _traditional_weights(method, rf, split, {}, cfg)
            out[method] = weights[0], len(walks) - before, reports[0]
        return out, split.stats[0]

    def cold(self, stats, cfg):
        from portalloc.allocators import solve

        return {method: solve(method, stats, r_min=cfg.r_min, sigma_max=cfg.sigma_max)
                for method in self.METHODS}

    def test_well_conditioned_panel_walks_zero_times(self, monkeypatch):
        from portalloc.allocators import solve_min_variance
        from portalloc.risk_models import estimate_stats

        rng = np.random.default_rng(21)
        returns = (np.linspace(0.0002, 0.001, 6) + 0.01 * rng.standard_normal((600, 6))
                   + 0.004 * rng.standard_normal((600, 1)))
        rf, t = returns_frame(returns), 400
        stats = estimate_stats(ReturnFrame(rf.dates[:t + 1], rf.assets, rf.returns[:t + 1]))
        minvar = solve_min_variance(stats)
        base = float(stats.mu @ minvar.weights.w)
        cfg = CompareConfig(horizons={}, r_min=base + 0.4 * (float(stats.mu.max()) - base),
                            sigma_max=1.3 * float(np.sqrt(minvar.objective_value)))
        first, _ = self.first_date(monkeypatch, rf, t, cfg)
        cold = self.cold(stats, cfg)
        for method in self.METHODS:
            weights, walks, report = first[method]
            assert np.array_equal(weights, cold[method].weights.w), method
            assert walks == 0 and not report.non_unique, method
            # a kept guess counts as one iteration, on top of minimum variance's
            assert report.iterations == (1 if method == "minvariance" else 2), method
        # the floor and the cap bind, so their guesses were tried
        assert "return_target" in first["markowitz"][2].active_constraints
        assert "risk_cap" in first["maxreturn"][2].active_constraints

    def test_rank_deficient_panel_walks_where_the_guess_is_not_unique(self, monkeypatch):
        import make_golden_digests as golden
        from portalloc.allocators import solve

        prices = golden._deficient_prices()
        rf = compute_returns(prices)
        r_min, sigma_max = (float(level.split("=")[1]) for level in golden._walk_levels(
            prices.prices[1:] / prices.prices[:-1] - 1.0, 400, 100))
        cfg = CompareConfig(horizons={}, r_min=r_min, sigma_max=sigma_max)
        first, stats = self.first_date(monkeypatch, rf, 399, cfg)
        cold = self.cold(stats, cfg)
        for method in self.METHODS:
            assert np.array_equal(first[method][0], cold[method].weights.w), method
        weights, walks, report = first["markowitz"]
        assert walks > 0 and report.non_unique
        # kept whether unique or not, as a report's support is, the same
        # guess returns another optimum
        minvar = first["minvariance"][2]
        kept = solve("markowitz", stats, r_min=r_min, minvar=minvar, start=minvar)
        assert kept.non_unique and not np.array_equal(kept.weights.w, weights)

    def test_a_solve_with_no_start_walks(self, monkeypatch):
        from portalloc.allocators import solve_min_variance
        from portalloc.risk_models import stats_from_covariance

        walks = counting_walks(monkeypatch)
        solve_min_variance(stats_from_covariance(np.zeros(3), np.array(
            [[4.0, 1.0, 0.5], [1.0, 9.0, 2.0], [0.5, 2.0, 16.0]])))
        assert walks == [1]
