import numpy as np
import pytest

from conftest import make_price_frame
from portalloc.errors import DataError
from portalloc.market_data import ReturnFrame, compute_returns
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


def test_stats_from_covariance_rejects_bad_moments():
    with pytest.raises(DataError, match="inconsistent moment shapes"):
        stats_from_covariance(np.zeros(2), np.eye(3))
    with pytest.raises(DataError, match="degenerate asset at index 1: zero variance"):
        stats_from_covariance(np.zeros(2), np.diag([1.0, 0.0]))


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


def crafted_moments():
    """(label, mu, sigma_mat, corr, vols): a valid 2-asset base with one
    cell set to NaN, an infinity, or a value at a check's tolerance."""
    def base():
        return np.zeros(2), np.array([[4.0, 0.0], [0.0, 9.0]]), np.eye(2), np.array([2.0, 3.0])

    above = np.nextafter(1e-12, 1.0)
    cases = []
    for label, edit in [
        ("valid", lambda s, c, v: None),
        ("nan off the diagonal", lambda s, c, v: s.__setitem__((0, 1), np.nan)),
        ("nan variance", lambda s, c, v: s.__setitem__((0, 0), np.nan)),
        ("nan correlation diagonal", lambda s, c, v: c.__setitem__((1, 1), np.nan)),
        ("nan volatility", lambda s, c, v: v.__setitem__(0, np.nan)),
        ("matching +inf", lambda s, c, v: s.__setitem__((slice(None), slice(None)),
                                                        [[4.0, np.inf], [np.inf, 9.0]])),
        ("matching -inf", lambda s, c, v: s.__setitem__((slice(None), slice(None)),
                                                        [[4.0, -np.inf], [-np.inf, 9.0]])),
        ("mismatched +inf and -inf", lambda s, c, v: s.__setitem__(
            (slice(None), slice(None)), [[4.0, np.inf], [-np.inf, 9.0]])),
        ("+inf against a number", lambda s, c, v: s.__setitem__((0, 1), np.inf)),
        ("infinite variance and volatility", lambda s, c, v: (s.__setitem__((0, 0), np.inf),
                                                              v.__setitem__(0, np.inf))),
        ("infinite variance, finite volatility", lambda s, c, v: s.__setitem__((0, 0), np.inf)),
        ("infinite correlation diagonal", lambda s, c, v: c.__setitem__((0, 0), np.inf)),
        ("asymmetry 1e-12", lambda s, c, v: s.__setitem__((1, 0), 1e-12)),
        ("asymmetry one float above 1e-12", lambda s, c, v: s.__setitem__((1, 0), above)),
        ("correlation diagonal 1 + 1e-12", lambda s, c, v: c.__setitem__((0, 0), 1.0 + 1e-12)),
        ("correlation diagonal 1 - 1e-12", lambda s, c, v: c.__setitem__((0, 0), 1.0 - 1e-12)),
    ]:
        mu, sigma, corr, vols = base()
        edit(sigma, corr, vols)
        cases.append((label, mu, sigma, corr, vols))
    # volatilities whose squares straddle the rtol bound |v^2 - 4| <= 4e-12
    for side in (1.0, -1.0):
        edge = np.sqrt(4.0 * (1.0 + side * 1e-12))
        for k in range(-3, 4):
            mu, sigma, corr, vols = base()
            vols[0] = edge + k * np.spacing(edge)
            cases.append((f"volatility {side:+.0f}e-12 {k:+d} ulp", mu, sigma, corr, vols))
    return cases


def test_moment_checks_are_exactly_as_strict_as_allclose():
    """CovarianceStats checks its moments as a stack of one date, by np.isclose
    reduced over each date; on inputs at every edge of the three closeness
    checks it must accept and reject what the np.allclose checks do, with the
    same message."""
    from oracles import covariance_stats_failure
    from portalloc.risk_models import CovarianceStats

    outcomes = set()
    for label, mu, sigma, corr, vols in crafted_moments():
        want = covariance_stats_failure(mu, sigma, corr, vols)
        try:
            CovarianceStats(mu, sigma, corr, vols)
            got = None
        except DataError as exc:
            got = str(exc)
        assert got == want, label
        outcomes.add(want)
    # every closeness check both accepts and rejects among the cases
    assert {None, "covariance matrix is not symmetric", "correlation diagonal must be 1",
            "volatilities must be the square roots of the covariance diagonal"} <= outcomes


def test_stacked_check_answers_each_date_as_the_oracle():
    """Every crafted case as one date of one stack, a valid date after each:
    each date gets the message of its own first failing check, eigvalsh runs
    on the symmetric dates only, and no entry that is not finite warns."""
    import warnings

    from oracles import covariance_stats_failure
    from portalloc.risk_models import _check

    cases = crafted_moments()
    dates = [moments for case in cases for moments in (case[1:], cases[0][1:])]
    _, sigma, corr, vols = (np.stack(field) for field in zip(*dates))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig, failures = _check(sigma, corr, vols)
    assert failures == [covariance_stats_failure(*moments) for moments in dates]
    for s, e, failure in zip(sigma, eig, failures):
        if failure != "covariance matrix is not symmetric":
            assert e.tobytes() == np.linalg.eigvalsh(s).tobytes()
    assert {None, "covariance matrix is not symmetric", "correlation diagonal must be 1",
            "volatilities must be the square roots of the covariance diagonal"} <= set(failures)


@pytest.mark.parametrize("a, b, rtol, atol", [
    (np.array([np.nan]), np.array([np.nan]), 0.0, 1e-12),
    (np.array([np.inf, -np.inf]), np.array([np.inf, -np.inf]), 0.0, 1e-12),
    (np.array([np.inf]), np.array([-np.inf]), 0.0, 1e-12),
    (np.array([25.0]), np.array([np.inf]), 1e-12, 1e-300),  # isclose's bound alone says yes
    (np.array([np.inf]), np.array([4.0]), 1e-12, 1e-300),
    (np.array([1e-12]), np.array([0.0]), 0.0, 1e-12),
    (np.array([np.nextafter(1e-12, 1.0)]), np.array([0.0]), 0.0, 1e-12),
    (np.array([1.0 + 1e-12, 1.0 - 1e-12]), 1.0, 0.0, 1e-12),
    (np.array([4.0 + 4e-12]), np.array([4.0]), 1e-12, 1e-300),
    (np.array([np.nextafter(4.0 + 4e-12, 5.0)]), np.array([4.0]), 1e-12, 1e-300),
])
def test_cheaper_closeness_test_answers_as_allclose(a, b, rtol, atol):
    from portalloc.risk_models import _accepted

    accepted = bool(_accepted(np.asarray(a)[None], np.asarray(b)[None], rtol, atol)[0])
    assert accepted == np.allclose(a, b, rtol=rtol, atol=atol)


def test_stats_keep_the_eigenvalues_of_their_check(rng):
    stats = estimate_stats(frame_from_returns(0.01 * rng.standard_normal((40, 5))))
    assert np.array_equal(stats.eig, np.linalg.eigvalsh(stats.sigma_mat))


class TestStackedEstimates:
    """A split's rebalance dates estimated as one stack equal their one-date
    estimates on every field, bit for bit, up to the first date that fails."""

    FIELDS = ("mu", "sigma_mat", "corr", "vols", "eig")

    @staticmethod
    def frame(returns):
        dates = np.datetime64("2000-01-03") + np.arange(len(returns))
        return ReturnFrame(dates, tuple(f"A{i}" for i in range(returns.shape[1])), returns)

    def assert_one_date_estimates(self, rf, window, ends, count=None):
        stacked = estimate_stats(rf, window, ends=ends)
        assert len(stacked) == (len(ends) if count is None else count)
        for end, got in zip(ends, stacked):
            want = estimate_stats(rf, window, end=end)
            for name in self.FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, end)

    def test_expanding_and_trailing_windows_of_any_size_and_order(self):
        rng = np.random.default_rng(25)
        for trial in range(120):
            l = int(rng.integers(1, 31))
            n = int(rng.integers(l + 1, 1500))
            returns = 0.01 * rng.standard_normal((n, l)) + rng.uniform(-1e-3, 1e-3, l)
            if trial % 2:
                returns = np.asfortranarray(returns)
            first = l + 1 if trial % 4 == 0 else int(rng.integers(l + 1, n + 1))
            ends = list(range(first, n + 1, int(rng.integers(1, 40))))
            window = (None, l + 1, int(rng.integers(l + 1, n + 1)))[trial % 3]
            self.assert_one_date_estimates(self.frame(returns), window, ends)

    def test_one_asset_keeps_its_pairwise_mean(self, rng):
        returns = 0.01 * rng.standard_normal((600, 1)) + 1e-3
        rf = self.frame(returns)
        ends = list(range(100, 601, 21))
        self.assert_one_date_estimates(rf, None, ends)
        # the running sum would not do: it differs from the mean on some end
        sums = np.cumsum(returns, axis=0)
        assert any(sums[end - 1] / end != returns[:end].mean(axis=0) for end in ends)

    def test_stops_before_the_first_date_that_fails(self, rng):
        returns = 0.01 * rng.standard_normal((200, 3))
        returns[120:160, 1] = 0.0  # flat over the 20 rows before ends 140..160
        rf = self.frame(returns)
        ends = list(range(100, 201, 10))
        self.assert_one_date_estimates(rf, 20, ends, count=4)
        with pytest.raises(DataError, match="degenerate asset A1"):
            estimate_stats(rf, 20, end=140)
        self.assert_one_date_estimates(rf, None, ends)
        assert estimate_stats(rf, None, ends=[3, 4, 50]) == []
        self.assert_one_date_estimates(rf, None, [50, 3, 60], count=1)

    @pytest.mark.parametrize("a, b, rtol, atol", [
        (np.array([np.nan]), np.array([1.0]), 0.0, 1e-12),
        (np.array([np.inf]), np.array([4.0]), 1e-12, 1e-300),
        (np.array([1.0, 2.0]), np.array([1.0, 2.0]), 0.0, 0.0),
        (np.array([1e-12]), np.array([0.0]), 0.0, 1e-12),
        (np.array([np.nextafter(1e-12, 1.0)]), np.array([0.0]), 0.0, 1e-12),
        (np.array([4.0 + 4e-12]), np.array([4.0]), 1e-12, 1e-300),
        (np.array([np.nextafter(4.0 + 4e-12, 5.0)]), np.array([4.0]), 1e-12, 1e-300),
    ])
    def test_stacked_closeness_accepts_only_what_allclose_accepts(self, a, b, rtol, atol):
        """Each date of a stack as np.allclose: a NaN or an infinite a, equal
        arrays, and a difference at a bound and one float beyond it."""
        from portalloc.risk_models import _accepted

        accepted = _accepted(np.stack([a, a]), np.stack([b, b]), rtol, atol)
        assert accepted.shape == (2,)
        assert accepted[0] == np.allclose(a, b, rtol=rtol, atol=atol)
