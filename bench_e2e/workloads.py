"""The benchmark's workloads: generated inputs, the CLI command and what the
output checks need to know about it.

Every workload is a closed loop with one caller: the benchmark runs one
``portalloc`` command, waits for it, checks its outputs, then runs the next.
The inputs come from the workload seed only: it spawns PANELS panel seeds, and
the runs cycle through their panels, so that a run's median does not hinge on
one draw of the data. The program sees nothing but the generated
``prices.csv`` and its command line.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from portalloc.market_data import (RegimeSpec, SyntheticSpec, generate_synthetic,
                                   write_price_csv)

# maxdiversification and maxdecorrelation are left out: on the same kind of
# panel their projected-gradient iteration counts differ by more than ten
# times from one seed to the next, so no run of affordable length has a
# steady median
CONVEX_MODELS = ("markowitz", "maxreturn", "minvariance", "riskparity")


@dataclass(frozen=True)
class Size:
    assets: int
    steps: int
    first_test: int   # return-frame index of the first test decision + 1
    test_span: int
    iterations: int   # max_iterations == patience, so every training runs exactly this many


# Executions are kept to a few seconds so that one run holds many of them and
# their median is robust to a shared host's speed changing from second to second.
SIZES = {
    # the acceptance end-to-end panel; training decisions 29..698, 670 steps
    "train-acceptance": Size(assets=2, steps=1100, first_test=700, test_span=400, iterations=4),
    # three splits of 12 rebalances: 144 solves per command, each on more than
    # 3000 rows of history, so the estimates and the solver's work vary little
    # between seeds
    "compare-convex": Size(assets=24, steps=3800, first_test=3044, test_span=252, iterations=0),
    # three splits, so drl trains on three window lengths
    "compare-mixed": Size(assets=4, steps=1200, first_test=450, test_span=252, iterations=2),
}
TINY_SIZES = {
    "train-acceptance": Size(assets=2, steps=200, first_test=120, test_span=80, iterations=2),
    "compare-convex": Size(assets=6, steps=400, first_test=250, test_span=100, iterations=0),
    "compare-mixed": Size(assets=4, steps=300, first_test=200, test_span=50, iterations=1),
}
PANELS = 5
REBALANCE = 21
COST_RATE = 0.0005


@dataclass
class Prepared:
    """One workload made ready to run: the argv for ``portalloc.cli.main`` and
    the facts the output checks compare against."""

    panel: int
    data_seed: int
    argv: list[str]
    prices: str
    outdir: str
    models: tuple[str, ...]
    expected_files: tuple[str, ...]
    iterations: int                 # training iterations one execution completes
    model_days: int                 # models x test decisions one execution replays
    levels: dict[str, float] = field(default_factory=dict)


def _acceptance_regimes(m: int) -> tuple[RegimeSpec, ...]:
    return (
        RegimeSpec(np.array([0.005, -0.003]), np.array([0.009, 0.009]), 0.0, 130),
        RegimeSpec(np.array([-0.003, 0.005]), np.array([0.009, 0.009]), 0.0, 130),
    )


def _convex_regimes(m: int) -> tuple[RegimeSpec, ...]:
    # calm: return rises with volatility; stressed: the risky assets lose most.
    # Moderate correlations keep the solver's iteration counts from varying
    # by multiples between seeds.
    calm = RegimeSpec(np.linspace(0.0002, 0.0008, m), np.linspace(0.008, 0.012, m), 0.1, 250)
    stressed = RegimeSpec(np.linspace(0.0004, -0.0012, m), np.linspace(0.012, 0.018, m), 0.3, 80)
    return calm, stressed


def _mixed_regimes(m: int) -> tuple[RegimeSpec, ...]:
    # one dominant asset per regime, as in the README walkthrough
    first = np.zeros(m)
    first[:2] = (0.003, -0.001)
    second = np.zeros(m)
    second[:2] = (-0.001, 0.003)
    vol = np.full(m, 0.01)
    return RegimeSpec(first, vol, 0.0, 120), RegimeSpec(second, vol, 0.0, 120)


_REGIMES = {"train-acceptance": _acceptance_regimes, "compare-convex": _convex_regimes,
            "compare-mixed": _mixed_regimes}


def rebalance_points(n_returns: int, first_test: int, test_span: int) -> list[int]:
    """Return-frame indices at which compare re-solves a convex model."""
    points = []
    for test_start in range(first_test, n_returns, test_span):
        test_end = min(test_start + test_span, n_returns)
        points.extend(range(test_start - 1, test_end - 1, REBALANCE))
    return points


def constraint_levels(returns: np.ndarray, first_test: int, test_span: int) -> dict[str, float]:
    """r_min and sigma_max that every rebalance of this panel can meet.

    At each rebalance the solver sees the sample mean and covariance of all
    returns up to that step. r_min lies below the best asset mean
    at every rebalance, and sigma_max is at least the equal-weight volatility at every
    rebalance, so both programs are always feasible. Both sit well inside the
    range where the constraint binds at some rebalances.
    """
    r_min = np.inf
    sigma_max = 0.0
    for t in rebalance_points(len(returns), first_test, test_span):
        rows = returns[:t + 1]
        mu = rows.mean(axis=0)
        cov = np.cov(rows, rowvar=False)
        r_min = min(r_min, 0.5 * (mu.max() + mu.mean()))
        sigma_max = max(sigma_max, float(np.sqrt(cov.sum())) / len(mu))
    return {"r_min": float(r_min), "sigma_max": float(sigma_max)}


def prepare(name: str, seed: int, panel: int, tiny: bool, workdir: str) -> Prepared:
    """Generate one of the workload's panels from the seed, write it as CSV
    and build the command. Paths are relative to the working directory,
    because the manifest echoes them and reruns must write identical bytes."""
    size = (TINY_SIZES if tiny else SIZES)[name]
    data_seed = int(np.random.SeedSequence([seed, panel]).generate_state(1)[0])
    spec = SyntheticSpec(size.assets, size.steps, _REGIMES[name](size.assets), data_seed)
    frame = generate_synthetic(spec)
    prices = os.path.join(workdir, f"panel{panel}", "prices.csv")
    outdir = os.path.join(workdir, f"panel{panel}", "out")
    write_price_csv(frame, prices)
    n_returns = len(frame.dates) - 1
    # the return frame starts one date later than the prices, so this is the
    # date of return row first_test - 1: the last training date
    initial_train_end = str(frame.dates[size.first_test])
    splits = -(-(n_returns - size.first_test) // size.test_span)
    argv = ["--prices", prices, "--outdir", outdir, "--seed", str(data_seed),
            "--initial-train-end", initial_train_end, "--test-span", str(size.test_span),
            "--rebalance", str(REBALANCE), "--cost-rate", repr(COST_RATE)]
    levels: dict[str, float] = {}
    if name == "train-acceptance":
        argv = ["train"] + argv + ["--lags", "0,1,2,3,4,20", "--vol-window", "10",
                                   "--max-iterations", str(size.iterations),
                                   "--patience", str(size.iterations)]
        expected = tuple(f"{kind}_w{k:02d}.{ext}" for k in range(splits)
                         for kind, ext in (("checkpoint", "txt"), ("train_log", "csv")))
        return Prepared(panel, data_seed, argv, prices, outdir, (),
                        expected + ("manifest.txt",),
                        size.iterations * splits, 0)
    if name == "compare-convex":
        models = CONVEX_MODELS + ("equalweight",)
        returns = frame.prices[1:] / frame.prices[:-1] - 1.0
        levels = constraint_levels(returns, size.first_test, size.test_span)
        # "=" keeps a negative level from reading as a flag
        argv += [f"--r-min={levels['r_min']!r}", f"--sigma-max={levels['sigma_max']!r}"]
        argv += ["--horizons", "" if tiny else "1y:252,2y:504"]
        svg = ()
    else:
        models = ("drl", "riskparity", "minvariance", "equalweight")
        argv += ["--lags", "0,1,2,3,4,20", "--vol-window", "10", "--horizons", "", "--svg",
                 "--max-iterations", str(size.iterations), "--patience", str(size.iterations)]
        svg = ("curves.svg",) + tuple(f"weights_{m}.svg" for m in models)
    argv = ["compare"] + argv + ["--models", ",".join(models)]
    expected = ("manifest.txt", "metrics.csv", "metrics.txt", "curves.csv") + tuple(
        f"weights_{m}.csv" for m in models) + svg
    iterations = size.iterations * splits if "drl" in models else 0
    return Prepared(panel, data_seed, argv, prices, outdir, models, expected, iterations,
                    len(models) * (n_returns - size.first_test), levels)
