import math

import numpy as np
import pytest

import oracles
from conftest import weekday_dates
from portalloc import viz
from portalloc.errors import DataError


def random_series(rng, steps):
    """Values mixing zeros, negatives and magnitudes >= 1e3."""
    x = rng.standard_normal(steps) * 10.0 ** rng.integers(-3, 5, size=steps)
    x[rng.random(steps) < 0.1] = 0.0
    return x


class TestChartBytes:
    """Charts are byte-identical to point strings formatted from numpy scalars."""

    def test_line_chart(self, rng, monkeypatch):
        for steps in (1, 2, 37, 250):
            dates = weekday_dates("2020-01-06", steps)
            series = {f"s{i}": random_series(rng, steps) for i in range(3)}
            got = viz.line_chart_svg(dates, series)
            monkeypatch.setattr(viz, "_points", oracles.scalar_svg_points)
            assert got == viz.line_chart_svg(dates, series)
            monkeypatch.undo()

    def test_stacked_area(self, rng, monkeypatch):
        for steps, m in ((1, 1), (2, 3), (60, 4)):
            dates = weekday_dates("2020-01-06", steps)
            matrix = np.column_stack([random_series(rng, steps) for _ in range(m)])
            names = [f"w{j + 1}" for j in range(m)]
            got = viz.stacked_area_svg(dates, names, matrix)
            monkeypatch.setattr(viz, "_points", oracles.scalar_svg_points)
            assert got == viz.stacked_area_svg(dates, names, matrix)
            monkeypatch.undo()


class TestPoints:
    """The vectorised points kernel equals '{:.2f},{:.2f}' on every point."""

    def check(self, values):
        v = np.asarray(values, dtype=float).reshape(-1, 2)
        assert viz._points(v[:, 0], v[:, 1]) == oracles.scalar_svg_points(v[:, 0], v[:, 1])

    def test_random_coordinates_across_the_domain(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 60))
            self.check(rng.random(2 * n) * 10.0 ** rng.uniform(-4.0, 4.0, 2 * n))
        self.check(rng.uniform(0.0, 9999.99, 2000))

    def test_exact_binary_ties_round_half_to_even(self, rng):
        self.check([0.125, 0.375, 413.875, 0.625, 0.875, 9999.875, 1.125, 2.375])
        whole = rng.integers(0, 10000, size=2000)
        self.check(whole + rng.choice([0.125, 0.375, 0.625, 0.875], size=2000))

    def test_one_ulp_either_side_of_cent_boundaries(self, rng):
        halves = (rng.integers(0, 999999, size=1000) + 0.5) / 100.0
        near = [math.nextafter(h, d) for h in halves.tolist() for d in (0.0, math.inf)]
        top = math.nextafter(9999.995, 0.0)
        self.check(near + [top, math.nextafter(top, 0.0)])
        assert viz._points(np.array([top]), np.array([0.005])) == "9999.99,0.01"

    def test_zero_subnormals_and_short_series(self):
        self.check([0.0, 5e-324, 2.2250738585072014e-308, 1e-300])
        self.check([0.0, 0.0])
        assert viz._points(np.empty(0), np.empty(0)) == ""
        assert viz._points(np.array([70.0]), np.array([0.004999])) == "70.00,0.00"

    @pytest.mark.parametrize("bad", [-0.0, -1.0, math.nan, math.inf, -math.inf, 9999.995,
                                     1e4, 1e300])
    def test_coordinates_outside_the_domain_are_rejected(self, bad):
        for xs, ys in (([bad], [1.0]), ([1.0, 2.0], [3.0, bad])):
            with pytest.raises(ValueError):
                viz._points(np.array(xs), np.array(ys))


@pytest.mark.filterwarnings("error")
class TestScaleOverflow:
    """A chart whose stack or scale overflows is a DataError naming it."""

    def test_stack_that_overflows(self):
        dates = weekday_dates("2020-01-06", 3)
        with pytest.raises(DataError, match="allocation chart"):
            viz.stacked_area_svg(dates, ["a", "b"], np.full((3, 2), 1e308))

    def test_scale_that_overflows(self):
        dates = weekday_dates("2020-01-06", 3)
        with pytest.raises(DataError, match="equity curves chart"):
            viz.line_chart_svg(dates, {"a": np.array([1e306, 0.0, -1e306])})

    def test_widest_scale_that_fits_keeps_its_points(self):
        dates = weekday_dates("2020-01-06", 2)
        svg = viz.line_chart_svg(dates, {"a": np.array([1e305, -1e305])})
        assert 'points="70.00,34.00 856.00,414.00"' in svg

    def test_flat_series_too_large_to_add_one_to(self):
        """Once nan points: lo + 1.0 == lo made the flat range 0 / 0."""
        dates = weekday_dates("2020-01-06", 2)
        svg = viz.line_chart_svg(dates, {"a": np.array([1e17, 1e17])})
        assert 'points="70.00,414.00 856.00,414.00"' in svg
