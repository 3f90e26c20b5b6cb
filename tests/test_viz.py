import numpy as np

import oracles
from conftest import weekday_dates
from portalloc import viz


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
