import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from portalloc import allocators
from portalloc.allocators import (SolveReport, Weights,
                                  risk_contributions, solve,
                                  solve_markowitz_max_return,
                                  solve_markowitz_min_risk,
                                  solve_max_decorrelation,
                                  solve_max_diversification, solve_min_variance,
                                  solve_risk_parity)
from portalloc.errors import DataError, InfeasibleError, NumericError
from portalloc.risk_models import stats_from_covariance


def random_stats(rng, l, corr_mix=0.5):
    raw = np.corrcoef(rng.normal(size=(l, 4 * l)))
    corr = (1 - corr_mix) * raw + corr_mix * np.eye(l)
    vols = rng.uniform(0.1, 0.3, l)
    sigma = np.outer(vols, vols) * corr
    mu = rng.uniform(0.02, 0.20, l)
    return stats_from_covariance(mu, 0.5 * (sigma + sigma.T))


class TestMinVariance:
    def test_diagonal_closed_form(self):
        stats = stats_from_covariance(np.zeros(2), np.diag([0.01, 0.04]))
        report = solve_min_variance(stats)
        np.testing.assert_allclose(report.weights.w, [0.8, 0.2], atol=1e-6)

    def test_isotropic_gives_equal_weights(self):
        stats = stats_from_covariance(np.zeros(3), 0.02 * np.eye(3))
        report = solve_min_variance(stats)
        np.testing.assert_allclose(report.weights.w, np.full(3, 1 / 3), atol=1e-8)

    def test_four_asset_grid_agreement(self, rng):
        stats = random_stats(rng, 4)
        report = solve_min_variance(stats)
        w_grid, f_grid = oracles.grid_min_quadratic(stats.sigma_mat)
        assert np.max(np.abs(report.weights.w - w_grid)) < 0.01
        assert report.objective_value <= f_grid * (1 + 1e-4)

    def test_scale_invariance(self, rng):
        stats = random_stats(rng, 3)
        scaled = stats_from_covariance(stats.mu, 7.5 * stats.sigma_mat)
        a = solve_min_variance(stats).weights.w
        b = solve_min_variance(scaled).weights.w
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_permutation_equivariance(self, rng):
        stats = random_stats(rng, 4)
        perm = [3, 1, 0, 2]
        permuted = stats_from_covariance(stats.mu[perm], stats.sigma_mat[np.ix_(perm, perm)])
        a = solve_min_variance(stats).weights.w
        b = solve_min_variance(permuted).weights.w
        np.testing.assert_allclose(b, a[perm], atol=1e-6)


class TestMaxDiversification:
    def test_single_asset_ratio_one(self):
        stats = stats_from_covariance(np.zeros(1), np.array([[0.04]]))
        report = solve_max_diversification(stats)
        np.testing.assert_allclose(report.weights.w, [1.0])
        np.testing.assert_allclose(report.objective_value, 1.0, atol=1e-12)

    def test_diagonal_closed_form(self):
        stats = stats_from_covariance(np.zeros(2), np.diag([0.01, 0.04]))
        report = solve_max_diversification(stats)
        np.testing.assert_allclose(report.weights.w, [2 / 3, 1 / 3], atol=1e-6)

    def test_ratio_at_least_one(self, rng):
        # weighted average of vols dominates portfolio vol when correlations <= 1
        for _ in range(10):
            stats = random_stats(rng, int(rng.integers(2, 5)))
            report = solve_max_diversification(stats)
            assert report.objective_value >= 1.0 - 1e-9

    def test_grid_agreement(self, rng):
        stats = random_stats(rng, 3)
        report = solve_max_diversification(stats)
        w_grid, d_grid = oracles.grid_max_diversification(stats.sigma_mat, stats.vols)
        assert np.max(np.abs(report.weights.w - w_grid)) < 0.01
        assert report.objective_value >= d_grid * (1 - 1e-4)

    def test_degenerate_risk_rejected(self):
        # perfectly anticorrelated pair: the 50/50 portfolio has zero variance
        sigma = 0.04 * np.array([[1.0, -1.0], [-1.0, 1.0]]) + 1e-14 * np.eye(2)
        stats = stats_from_covariance(np.zeros(2), sigma)
        from portalloc.errors import NumericError
        with pytest.raises(NumericError, match="degenerate risk"):
            solve_max_diversification(stats)


class TestMaxDecorrelation:
    def test_identity_gives_equal_weights(self):
        stats = stats_from_covariance(np.zeros(4), 0.04 * np.eye(4))
        report = solve_max_decorrelation(stats)
        np.testing.assert_allclose(report.weights.w, np.full(4, 0.25), atol=1e-8)

    def test_perfect_correlation_flags_non_unique(self):
        sigma = np.array([[0.04, 0.04], [0.04, 0.04]])  # corr == 1 everywhere
        stats = stats_from_covariance(np.zeros(2), sigma + 1e-12 * np.eye(2))
        report = solve_max_decorrelation(stats)
        assert abs(report.weights.w.sum() - 1.0) < 1e-8
        assert report.non_unique
        np.testing.assert_allclose(report.objective_value, 1.0, atol=1e-6)

    def test_grid_agreement(self, rng):
        stats = random_stats(rng, 3)
        report = solve_max_decorrelation(stats)
        w_grid, f_grid = oracles.grid_min_quadratic(stats.corr)
        assert np.max(np.abs(report.weights.w - w_grid)) < 0.01
        assert report.objective_value <= f_grid * (1 + 1e-4)


class TestMarkowitz:
    def test_symmetric_instance_splits_evenly(self):
        stats = stats_from_covariance(np.array([0.1, 0.1]), 0.04 * np.eye(2))
        report = solve_markowitz_min_risk(stats, 0.1)
        np.testing.assert_allclose(report.weights.w, [0.5, 0.5], atol=1e-6)

    def test_infeasible_target_rejected(self):
        stats = stats_from_covariance(np.array([0.05, 0.10]), 0.04 * np.eye(2))
        with pytest.raises(InfeasibleError, match="infeasible return target"):
            solve_markowitz_min_risk(stats, 0.12)

    def test_nan_floor_rejected(self):
        stats = stats_from_covariance(np.array([0.05, 0.10]), 0.04 * np.eye(2))
        with pytest.raises(DataError, match="r_min"):
            solve_markowitz_min_risk(stats, float("nan"))

    def test_floor_holds_and_beats_grid(self, rng):
        for _ in range(5):
            stats = random_stats(rng, 3)
            minvar = solve_min_variance(stats)
            base = float(stats.mu @ minvar.weights.w)
            r_min = base + 0.5 * (stats.mu.max() - base)
            report = solve_markowitz_min_risk(stats, r_min)
            assert float(stats.mu @ report.weights.w) >= r_min - 1e-8
            _, f_grid = oracles.grid_min_risk_with_floor(stats.sigma_mat, stats.mu, r_min)
            assert report.objective_value <= f_grid * (1 + 1e-4)

    def test_huge_cap_picks_best_mean(self):
        stats = stats_from_covariance(np.array([0.05, 0.11, 0.08]), 0.04 * np.eye(3))
        report = solve_markowitz_max_return(stats, sigma_max=10.0)
        np.testing.assert_allclose(report.weights.w, [0.0, 1.0, 0.0], atol=1e-8)

    def test_infinite_cap_picks_best_mean(self):
        stats = stats_from_covariance(np.array([0.05, 0.11, 0.08]), 0.04 * np.eye(3))
        report = solve_markowitz_max_return(stats, np.inf)
        np.testing.assert_allclose(report.weights.w, [0.0, 1.0, 0.0], atol=1e-8)
        assert report.converged and report.active_constraints == ("w[0]=0", "w[2]=0")

    def test_cap_whose_square_overflows_is_infinite(self):
        stats = stats_from_covariance(np.array([0.05, 0.11, 0.08]), 0.04 * np.eye(3))
        infinite = solve_markowitz_max_return(stats, np.inf)
        for sigma_max in (1e160, np.float64(1e160)):
            report = solve_markowitz_max_return(stats, sigma_max)
            assert np.array_equal(report.weights.w, infinite.weights.w)
            assert report.active_constraints == infinite.active_constraints

    def test_cap_at_minvar_vol_returns_minvar(self, rng):
        stats = random_stats(rng, 3)
        minvar = solve_min_variance(stats)
        report = solve_markowitz_max_return(stats, np.sqrt(minvar.objective_value))
        np.testing.assert_allclose(report.weights.w, minvar.weights.w, atol=5e-4)

    def test_infeasible_cap_rejected(self, rng):
        stats = random_stats(rng, 3)
        minvar = solve_min_variance(stats)
        with pytest.raises(InfeasibleError, match="infeasible risk cap"):
            solve_markowitz_max_return(stats, np.sqrt(minvar.objective_value) * 0.9)

    def test_duality_round_trip(self, rng):
        for _ in range(5):
            stats = random_stats(rng, int(rng.integers(2, 5)))
            minvar = solve_min_variance(stats)
            base = float(stats.mu @ minvar.weights.w)
            r_min = base + rng.uniform(0.2, 0.8) * (stats.mu.max() - base)
            first = solve_markowitz_min_risk(stats, r_min)
            second = solve_markowitz_max_return(stats, np.sqrt(first.objective_value))
            assert np.max(np.abs(first.weights.w - second.weights.w)) < 0.01


class TestRiskParity:
    def test_diagonal_closed_form(self):
        stats = stats_from_covariance(np.zeros(2), np.diag([0.01, 0.04]))
        report = solve_risk_parity(stats)
        np.testing.assert_allclose(report.weights.w, [2 / 3, 1 / 3], atol=1e-9)

    def test_isotropic_gives_equal_weights(self):
        stats = stats_from_covariance(np.zeros(3), 0.05 * np.eye(3))
        report = solve_risk_parity(stats)
        np.testing.assert_allclose(report.weights.w, np.full(3, 1 / 3), atol=1e-10)

    def test_contribution_spread(self, rng):
        for _ in range(10):
            stats = random_stats(rng, int(rng.integers(2, 5)))
            report = solve_risk_parity(stats)
            contrib = risk_contributions(report.weights.w, stats.sigma_mat)
            assert contrib.max() / contrib.min() <= 1.001

    def test_erc_fixed_point_oracle(self, rng):
        # independent oracle: iterate w_i <- sqrt(w_i / (Sigma w)_i), renormalize
        stats = random_stats(rng, 4)
        sigma = stats.sigma_mat
        w = np.full(4, 0.25)
        for _ in range(10000):
            w = np.sqrt(w / (sigma @ w))
            w /= w.sum()
        report = solve_risk_parity(stats)
        np.testing.assert_allclose(report.weights.w, w, atol=1e-6)

    def test_singular_covariance_directs_to_shrinkage(self):
        sigma = np.array([[0.04, 0.04], [0.04, 0.04]]) + 0.0
        stats = stats_from_covariance(np.zeros(2), sigma + 1e-13 * np.eye(2))
        with pytest.raises(DataError, match="shrink_covariance"):
            solve_risk_parity(stats)

    def test_ill_conditioned_covariances_converge(self):
        # condition numbers 1e4-1e8 on 8-24 assets, all within the singularity check
        rng = np.random.default_rng(0)
        for _ in range(40):
            l, cond = int(rng.integers(8, 25)), 10 ** rng.uniform(4, 8)
            q, _ = np.linalg.qr(rng.normal(size=(l, l)))
            sigma = (q * np.logspace(-4, -4 - np.log10(cond), l)) @ q.T
            stats = stats_from_covariance(np.zeros(l), 0.5 * (sigma + sigma.T))
            report = solve_risk_parity(stats)
            contrib = risk_contributions(report.weights.w, stats.sigma_mat)
            assert report.converged
            assert contrib.max() / contrib.min() - 1.0 <= 1e-6
            assert report.iterations < allocators._NEWTON_STEPS

    def test_grid_agreement_on_scale_free_objective(self, rng):
        stats = random_stats(rng, 3)
        report = solve_risk_parity(stats)
        w_grid, _ = oracles.grid_equal_risk_contribution(stats.sigma_mat)
        assert np.max(np.abs(report.weights.w - w_grid)) < 0.01


class TestDispatchAndReports:
    def test_unknown_method(self, rng):
        with pytest.raises(DataError, match="unknown method"):
            solve("nope", random_stats(rng, 2))

    def test_markowitz_requires_r_min(self, rng):
        with pytest.raises(DataError, match="requires r_min"):
            solve("markowitz", random_stats(rng, 2))

    def test_every_solver_emits_feasible_weights(self, rng):
        for _ in range(8):
            l = int(rng.integers(2, 5))
            stats = random_stats(rng, l)
            for method in ("minvariance", "maxdiversification", "maxdecorrelation",
                           "riskparity"):
                report = solve(method, stats)
                assert isinstance(report, SolveReport)
                Weights(report.weights.w)  # re-validates invariants
                assert abs(report.weights.w.sum() - 1.0) <= 1e-8
                assert np.all(report.weights.w >= -1e-8)


def kkt_residual(q, c, a, b, y):
    """KKT residual of min 1/2 y'Qy + c'y s.t. Ay = b, y >= 0 at y, with Q and
    c scaled to a largest |Q| entry of 1; also returns the equality multipliers."""
    scale = np.abs(q).max()
    q, c = q / scale, c / scale
    held = y > 0
    g = q @ y + c
    nu = np.linalg.lstsq(a[:, held].T, g[held], rcond=None)[0]
    z = g - a.T @ nu
    res = max(np.abs(a @ y - b).max(), np.abs(z[held]).max(), max(-z.min(), 0.0),
              np.abs(y * z).max())
    return res, nu


class TestExactCore:
    @pytest.mark.parametrize("l", [2, 5, 24])
    def test_kkt_residual_every_program(self, rng, l):
        for _ in range(5):
            stats = random_stats(rng, l)
            sigma, mu, vols = stats.sigma_mat, stats.mu, stats.vols
            ones = np.ones((1, l))
            zero = np.zeros(l)
            for q, method in ((sigma, "minvariance"), (stats.corr, "maxdecorrelation")):
                report = solve(method, stats)
                assert report.converged and not report.non_unique
                assert kkt_residual(q, zero, ones, np.ones(1), report.weights.w)[0] <= 1e-10

            w = solve("maxdiversification", stats).weights.w
            y = w / float(vols @ w)
            assert kkt_residual(sigma, zero, vols[None], np.ones(1), y)[0] <= 1e-10

            base = float(mu @ solve("minvariance", stats).weights.w)
            r_min = base + rng.uniform(0.2, 0.8) * (mu.max() - base)
            floor = solve("markowitz", stats, r_min=r_min)
            assert floor.converged and "return_target" in floor.active_constraints
            res, nu = kkt_residual(sigma, zero, np.vstack([ones, mu]), np.array([1.0, r_min]),
                                   floor.weights.w)
            assert res <= 1e-10 and nu[1] >= 0

            cap = floor.objective_value
            capped = solve("maxreturn", stats, sigma_max=float(np.sqrt(cap)))
            w = capped.weights.w
            assert capped.converged and "risk_cap" in capped.active_constraints
            assert abs(float(w @ sigma @ w) - cap) <= 1e-10 * np.abs(sigma).max()
            # w minimizes 1/2 w'Sw - lam mu'w on the simplex for some lam >= 0
            held = w > 0
            lam = np.linalg.lstsq(np.column_stack([mu, np.ones(l)])[held], (sigma @ w)[held],
                                  rcond=None)[0][0]
            assert lam >= 0
            assert kkt_residual(sigma, -lam * mu, ones, np.ones(1), w)[0] <= 1e-10

    def test_duplicated_asset_flags_non_unique(self, rng):
        stats = random_stats(rng, 3)
        keep = [0, 1, 2, 0]
        doubled = stats_from_covariance(stats.mu[keep], stats.sigma_mat[np.ix_(keep, keep)])
        for method in ("minvariance", "maxdiversification", "maxdecorrelation"):
            report = solve(method, doubled)
            assert report.converged and report.non_unique
            np.testing.assert_allclose(report.objective_value,
                                       solve(method, stats).objective_value, rtol=1e-12)

    def test_well_conditioned_never_non_unique(self, rng):
        for _ in range(10):
            stats = random_stats(rng, int(rng.integers(2, 9)))
            base = float(stats.mu @ solve_min_variance(stats).weights.w)
            r_min = 0.5 * (base + float(stats.mu.max()))
            floor = solve_markowitz_min_risk(stats, r_min)
            reports = [solve(method, stats, r_min=r_min,
                             sigma_max=float(np.sqrt(floor.objective_value)))
                       for method in ("minvariance", "maxdiversification", "maxdecorrelation",
                                      "markowitz", "maxreturn", "riskparity")]
            assert not any(r.non_unique for r in reports)
            assert all(r.converged for r in reports)

    def test_tied_best_means_at_the_top(self):
        stats = stats_from_covariance(np.array([0.1, 0.1, 0.05]), np.diag([0.04, 0.01, 0.02]))
        floor = solve_markowitz_min_risk(stats, 0.1)
        np.testing.assert_allclose(floor.weights.w, [0.2, 0.8, 0.0], atol=1e-12)
        assert floor.converged and "return_target" in floor.active_constraints
        # a slack cap leaves every best-mean mix inside it optimal
        capped = solve_markowitz_max_return(stats, 1.0)
        np.testing.assert_allclose(capped.weights.w, [0.2, 0.8, 0.0], atol=1e-12)
        assert capped.non_unique and capped.converged
        np.testing.assert_allclose(capped.objective_value, 0.1, rtol=1e-12)

    @pytest.mark.parametrize("l", [2, 5, 24])
    def test_cap_exactly_at_min_variance_vol(self, rng, l):
        stats = random_stats(rng, l)
        minvar = solve_min_variance(stats)
        report = solve_markowitz_max_return(stats, float(np.sqrt(minvar.objective_value)))
        np.testing.assert_allclose(report.weights.w, minvar.weights.w, atol=1e-7)
        assert report.converged and "risk_cap" in report.active_constraints

    def test_singular_covariance_reports_non_negative_variance(self):
        # 4 return rows for 24 assets: rank-3 covariance whose minimum variance
        # is 0, and rounding can put the computed w'Sw just below it
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rows = rng.normal(scale=0.01, size=(4, 24))
            sigma = np.cov(rows, rowvar=False)
            stats = stats_from_covariance(rows.mean(axis=0), 0.5 * (sigma + sigma.T))
            minvar = solve_min_variance(stats)
            base = float(stats.mu @ minvar.weights.w)
            floor = solve_markowitz_min_risk(stats, 0.5 * (base + stats.mu.max()))
            for report in (minvar, floor):
                assert report.objective_value >= 0.0
                assert np.isfinite(np.sqrt(report.objective_value))

    def test_cap_at_zero_variance_reaches_the_best_zero_variance_return(self):
        # 4 return rows for 24 assets: many portfolios have zero variance, and
        # a cap at zero admits exactly those; the walk must reach the best of
        # them, not stop at the minimum-variance portfolio it starts from
        for seed in range(6):
            rng = np.random.default_rng(seed)
            rows = rng.normal(scale=0.01, size=(4, 24))
            sigma = np.cov(rows, rowvar=False)
            stats = stats_from_covariance(rows.mean(axis=0), 0.5 * (sigma + sigma.T))
            best = oracles.best_zero_variance_return(rows)
            minvar = solve_min_variance(stats)
            for sigma_max in (float(np.sqrt(minvar.objective_value)), 1e-12):
                report = solve_markowitz_max_return(stats, sigma_max)
                assert report.converged
                assert abs(float(stats.mu @ report.weights.w) - best) <= 1e-6 * abs(best)


class TestFaceStep:
    """A face whose Q_FF is positive definite steps by one bordered KKT solve,
    which must equal the eigen-decomposition step; a singular Q_FF must take
    the eigen path, which finds its flat directions."""

    @staticmethod
    def fast_step(monkeypatch, q, free, g):
        def refuse(*args):
            raise AssertionError("took the eigen path")

        with monkeypatch.context() as patched:
            patched.setattr(allocators, "_eigen_face_direction", refuse)
            return allocators._face_direction(q, free, g)

    @pytest.mark.parametrize("m", [2, 5, 24])
    def test_bordered_step_equals_eigen_step(self, rng, monkeypatch, m):
        for trial in range(20):
            q = random_stats(rng, m).sigma_mat
            q = q / np.abs(q).max()
            free = rng.random(m) < 0.7
            free[rng.integers(m)] = True
            # the last trial's gradient is constant on the face: no step
            g = np.full(m, 0.3) if trial == 19 else rng.normal(size=m)
            p, flat = self.fast_step(monkeypatch, q, free, g)
            want, want_flat = allocators._eigen_face_direction(q, free, g)
            assert not flat and not want_flat
            np.testing.assert_allclose(p, want, rtol=0, atol=1e-12)
            assert np.all(p[~free] == 0.0) and abs(p.sum()) <= 1e-12
        assert not np.any(p)

    @pytest.mark.parametrize("case", ["duplicated asset", "fewer rows than assets"])
    def test_singular_face_takes_the_eigen_path(self, rng, monkeypatch, case):
        if case == "duplicated asset":
            stats = random_stats(rng, 3)
            keep = [0, 1, 2, 0]
            q, v = stats.sigma_mat[np.ix_(keep, keep)], np.array([0.1, 0.05, 0.08, 0.12])
        else:
            stats = return_rows(3, 5, seed=7)
            q, v = stats.sigma_mat, stats.mu
        q = q / np.abs(q).max()
        calls = []
        real = allocators._eigen_face_direction

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(allocators, "_eigen_face_direction", spy)
        free = np.ones(len(v), dtype=bool)
        p, flat = allocators._face_direction(q, free, -v)
        assert calls == [1] and flat
        # a flat step moves v'y up at constant y'Qy
        assert float(v @ p) > 0 and np.abs(q @ p).max() <= 1e-10 * np.abs(p).max()


def test_cap_at_min_variance_vol_returns_its_weights_to_rounding():
    # a gap within the rounding of y'Qy used to become a step of ~1e-10 in lam
    for m in (2, 3, 5, 8, 24):
        for seed in range(40):
            stats = random_stats(np.random.default_rng(seed), m)
            minvar = solve_min_variance(stats)
            report = solve_markowitz_max_return(stats, float(np.sqrt(minvar.objective_value)))
            assert np.abs(report.weights.w - minvar.weights.w).max() <= 1e-12
            assert report.converged and "risk_cap" in report.active_constraints


def return_rows(n, m, seed):
    """n daily return rows of m assets with a common factor; n <= m gives a
    singular sample covariance."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(scale=0.01, size=(n, m)) + rng.normal(scale=0.005, size=(n, 1))
    rows = rows + rng.uniform(-0.002, 0.004, m)
    sigma = np.cov(rows, rowvar=False).reshape(m, m)
    return stats_from_covariance(rows.mean(axis=0), 0.5 * (sigma + sigma.T))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(m=st.sampled_from([2, 3, 5, 8, 24]), extra=st.integers(-22, 12),
       seed=st.integers(0, 2 ** 32 - 1), fraction=st.floats(0.05, 0.95))
def test_every_exact_program_is_certified(m, extra, seed, fraction):
    stats = return_rows(max(2, m + extra), m, seed)
    sigma, mu, vols = stats.sigma_mat, stats.mu, stats.vols
    ones, zero = np.ones((1, m)), np.zeros(m)
    for q, method in ((sigma, "minvariance"), (stats.corr, "maxdecorrelation")):
        report = solve(method, stats)
        if report.converged:
            assert kkt_residual(q, zero, ones, np.ones(1), report.weights.w)[0] <= 1e-10
    try:
        report = solve("maxdiversification", stats)
    except NumericError:  # a zero-variance portfolio on a singular covariance
        assert np.linalg.matrix_rank(sigma) < m
    else:
        y = report.weights.w / float(vols @ report.weights.w)
        if report.converged:
            assert kkt_residual(sigma, zero, vols[None], np.ones(1), y)[0] <= 1e-10

    base = float(mu @ solve("minvariance", stats).weights.w)
    r_min = base + fraction * (mu.max() - base)
    floor = solve("markowitz", stats, r_min=r_min)
    # multiplier signs hold to the residual's tolerance, in the residual's
    # scale (|S| scaled to 1): a floor met at zero variance has multiplier 0
    if floor.converged and "return_target" in floor.active_constraints:
        res, nu = kkt_residual(sigma, zero, np.vstack([ones, mu]), np.array([1.0, r_min]),
                               floor.weights.w)
        assert res <= 1e-10 and nu[1] * np.abs(mu).max() >= -1e-10
    capped = solve("maxreturn", stats, sigma_max=float(np.sqrt(floor.objective_value)))
    w = capped.weights.w
    if capped.converged and "risk_cap" in capped.active_constraints:
        assert abs(float(w @ sigma @ w) - floor.objective_value) <= 1e-10 * np.abs(sigma).max()
        held = w > 0
        lam = np.linalg.lstsq(np.column_stack([mu, np.ones(m)])[held], (sigma @ w)[held],
                              rcond=None)[0][0]
        assert lam * np.abs(mu).max() / np.abs(sigma).max() >= -1e-10
        assert kkt_residual(sigma, -lam * mu, ones, np.ones(1), w)[0] <= 1e-10
    if not (floor.non_unique or capped.non_unique):
        assert np.abs(w - floor.weights.w).max() <= 1e-10


def rolling_windows(m=8, rows=900, window=120, stride=15, seed=11):
    """Moments of the windows of a walk-forward over return rows whose drift
    and factor loading change every 150 rows, so that the optimal free sets
    of the three programs change along the walk."""
    rng = np.random.default_rng(seed)
    drift = np.repeat(rng.uniform(-0.002, 0.003, size=(rows // 150 + 1, m)), 150, axis=0)[:rows]
    load = np.repeat(rng.uniform(0.2, 1.5, size=(rows // 150 + 1, m)), 150, axis=0)[:rows]
    data = (drift + rng.normal(scale=0.01, size=(rows, m))
            + load * rng.normal(scale=0.006, size=(rows, 1)))
    out = []
    for end in range(window, rows + 1, stride):
        sigma = np.cov(data[end - window:end], rowvar=False)
        out.append(stats_from_covariance(data[end - window:end].mean(axis=0),
                                         0.5 * (sigma + sigma.T)))
    return out


def levels(stats):
    """A floor and a cap that bind: the floor between the minimum-variance
    return and the best mean, the cap at 1.3 times the minimum volatility."""
    minvar = solve_min_variance(stats)
    base = float(stats.mu @ minvar.weights.w)
    return base + 0.4 * (float(stats.mu.max()) - base), 1.3 * float(np.sqrt(minvar.objective_value))


def certificate(stats, report):
    """_certify's KKT residual of the report's weights for min 1/2 w'Qw -
    lam v'w, with Q and v scaled to a largest entry of 1: lam = 0 unless a
    floor or cap binds, else lam recovered from the held assets'
    stationarity, which needs two of them."""
    q = stats.sigma_mat / np.abs(stats.sigma_mat).max()
    v = stats.mu / np.abs(stats.mu).max()
    w = report.weights.w
    held = w > 0
    lam = 0.0
    if {"return_target", "risk_cap"} & set(report.active_constraints):
        if held.sum() < 2:
            return 0.0
        lam = np.linalg.lstsq(np.column_stack([v, np.ones(len(w))])[held], (q @ w)[held],
                              rcond=None)[0][0]
    return allocators._certify(q, -lam * v, w, held)[0]


def counting_on_face(monkeypatch):
    """Wrap allocators._on_face; the returned list grows by one per call,
    one per critical line solved."""
    calls = []
    real = allocators._on_face

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(allocators, "_on_face", counting)
    return calls


class TestWarmStart:
    """A solve given the previous rebalance date's report tries its support
    as the optimal face; it must return what the cold walk returns."""

    @pytest.mark.parametrize("method", ["minvariance", "markowitz", "maxreturn"])
    def test_walk_forward_equals_cold_solves_bit_for_bit(self, monkeypatch, method):
        walks = []
        real_walk = allocators._walk

        def counting_walk(*args):
            walks.append(1)
            return real_walk(*args)

        monkeypatch.setattr(allocators, "_walk", counting_walk)
        lines = counting_on_face(monkeypatch)
        prev_minvar = prev = None
        faces, accepted, walked, repaired = set(), 0, 0, 0
        for stats in rolling_windows():
            r_min, sigma_max = levels(stats)
            cold = solve(method, stats, r_min=r_min, sigma_max=sigma_max)
            cold_base = 0 if method == "minvariance" else solve_min_variance(stats).iterations
            before, tried = len(walks), len(lines)
            minvar = solve_min_variance(stats, start=prev_minvar)
            minvar_walked = len(walks) > before
            before = len(walks)
            if method != "minvariance":  # count the lines of the method's own solve
                tried = len(lines)
            warm = solve(method, stats, r_min=r_min, sigma_max=sigma_max, minvar=minvar,
                         start=prev)
            # a guess kept on the start's own face solves one critical line;
            # one kept after face swaps solves more
            tried = len(lines) - tried
            assert np.array_equal(warm.weights.w, cold.weights.w)
            assert warm.converged and cold.converged
            guessed = len(walks) == before and not (method == "minvariance" and minvar_walked)
            base = 0 if method == "minvariance" else minvar.iterations
            # an accepted guess counts as one face, on top of the min-variance
            # solve; a walk from the same start counts the cold walk's faces
            if guessed:
                accepted += 1
                repaired += tried > 1
                assert warm.iterations == base + 1
            else:
                walked += 1
                assert warm.iterations - base == cold.iterations - cold_base
            faces.add(tuple(np.nonzero(warm.weights.w > 0)[0]))
            prev_minvar, prev = minvar, warm
        # every outcome but the walk after failed swaps, which
        # test_far_start_walks_after_the_swaps_run_out forces
        assert len(faces) > 2 and accepted > repaired > 0 and walked > 0

    @pytest.mark.parametrize("method", ["markowitz", "maxreturn"])
    def test_far_start_walks_after_the_swaps_run_out(self, monkeypatch, method):
        """A start whose support is the complement of the optimal one is
        several swaps from it: where the swaps run out, the walk runs from
        the minimum-variance report and returns the cold solve's bits."""
        walks = []  # critical lines solved before each walk
        real_walk = allocators._walk

        def counting_walk(*args):
            walks.append(len(lines))
            return real_walk(*args)

        monkeypatch.setattr(allocators, "_walk", counting_walk)
        lines = counting_on_face(monkeypatch)
        ran_out = 0
        for stats in rolling_windows():
            r_min, sigma_max = levels(stats)
            cold = solve(method, stats, r_min=r_min, sigma_max=sigma_max)
            far = cold.weights.w == 0
            if not far.any():
                continue
            # maxreturn tries a start only if the cap bound it
            start = SolveReport(Weights(far / far.sum()), 0.0, 1, True, ("risk_cap",))
            minvar = solve_min_variance(stats)
            del walks[:], lines[:]
            warm = solve(method, stats, r_min=r_min, sigma_max=sigma_max, minvar=minvar,
                         start=start)
            assert np.array_equal(warm.weights.w, cold.weights.w)
            assert warm.converged == cold.converged
            if walks:
                assert warm.iterations == cold.iterations
                ran_out += walks[0] == 1 + allocators._SWAP_ROUNDS
        assert ran_out > 0

    def test_start_on_other_assets_is_ignored(self):
        stats = rolling_windows()[0]
        start = solve_min_variance(stats_from_covariance(np.zeros(2), np.eye(2)))
        assert np.array_equal(solve_min_variance(stats, start=start).weights.w,
                              solve_min_variance(stats).weights.w)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(m=st.sampled_from([2, 3, 5, 8, 24]), extra=st.integers(-3, 40),
       seed=st.integers(0, 2 ** 32 - 1), noise=st.sampled_from([0.0, 1e-4, 1e-2, 1.0]))
def test_warm_start_from_other_moments_equals_the_cold_solve(m, extra, seed, noise):
    """start is the report on other moments of the same assets: the same
    rows perturbed by noise, so its face is right for small noise and wrong
    for large. The warm solve must equal the cold one and be certified."""
    rows = max(2, m + extra)
    stats = return_rows(rows, m, seed)
    other = return_rows(rows, m, seed + 1)
    other = stats_from_covariance(stats.mu + noise * (other.mu - stats.mu),
                                  stats.sigma_mat + noise * (other.sigma_mat - stats.sigma_mat))
    for method in ("minvariance", "markowitz", "maxreturn"):
        r_min, sigma_max = levels(stats)
        start = solve(method, other, *levels(other))
        cold = solve(method, stats, r_min=r_min, sigma_max=sigma_max)
        warm = solve(method, stats, r_min=r_min, sigma_max=sigma_max, start=start)
        assert warm.converged == cold.converged
        if not (warm.non_unique or cold.non_unique):
            assert np.abs(warm.weights.w - cold.weights.w).max() <= 1e-12
        if warm.converged and not warm.non_unique and (
                method != "maxreturn" or "risk_cap" in warm.active_constraints):
            assert certificate(stats, warm) <= 1e-10
