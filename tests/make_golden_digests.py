"""Regenerate ``tests/golden_digests.json``: the sha256 of every file that a
fixed list of ``portalloc`` commands writes.

    PYTHONPATH=src python tests/make_golden_digests.py

``test_golden_digests.py`` reruns the same commands and compares every
digest, so any change to an output byte fails it. Regenerate the fixture only
for a change that means to alter outputs, and list in CHANGES.md every digest
that moved and why.

The commands and their input panels are built here, from settings of their
own, and stored in the fixture as literal argument lists: a change to the
benchmark's workloads does not move them. They cover:

- seed-777 panels 0 and 1 of the three benchmark workloads (train-acceptance,
  compare-convex, compare-mixed), each panel made by ``synth``;
- ``backtest`` of ``drl`` from each train-acceptance panel's checkpoints;
- ``train`` on ten assets, so that sums of eight or more terms run, and one
  ``compare --svg`` of the six convex models and ``drl`` from its checkpoints;
- ``allocate`` for each of the six convex methods on that panel;
- the README walkthrough;
- one ``compare`` of minvariance, markowitz and maxreturn on a rank-deficient
  panel, whose prices ``write_inputs`` writes (no command makes such a panel);
- one ``plot`` of curves and weights that ``write_inputs`` writes on 17 dates,
  so that x steps by 786 / 16 = 49.125, and whose values are multiples of 1/8
  spanning [0, 380], so that y = 414 - value: many coordinates are exact
  binary ties at two decimals, which round half to even.

Every path is relative to the working directory, because manifests echo them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from portalloc.cli import _parse_regimes, main as portalloc
from portalloc.market_data import (PriceFrame, SyntheticSpec, atomic_write_text, dated_csv,
                                   generate_synthetic, write_price_csv)

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(HERE, "golden_digests.json")
SEED = 777
PANELS = 2
START = np.datetime64("2000-01-03")  # the first date of every synthetic panel
REBALANCE = 21
COST_RATE = 0.0005
DEFICIENT = "deficient/prices.csv"
TIES = "ties"
CONVEX = ("markowitz", "maxreturn", "minvariance", "maxdiversification", "maxdecorrelation",
          "riskparity")


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _regimes(regimes) -> str:
    """The ``--regimes`` text of (means, vols, corr, duration) tuples."""
    return ";".join(f"{_floats(mean)}|{_floats(vol)}|{corr!r}|{duration}"
                    for mean, vol, corr, duration in regimes)


def _convex_regimes(m: int) -> str:
    return _regimes(((np.linspace(0.0002, 0.0008, m), np.linspace(0.008, 0.012, m), 0.1, 250),
                     (np.linspace(0.0004, -0.0012, m), np.linspace(0.012, 0.018, m), 0.3, 80)))


def _mixed_regimes(m: int) -> str:
    first, second, vol = np.zeros(m), np.zeros(m), np.full(m, 0.01)
    first[:2], second[:2] = (0.003, -0.001), (-0.001, 0.003)
    return _regimes(((first, vol, 0.0, 120), (second, vol, 0.0, 120)))


def _returns(regimes: str, assets: int, steps: int, seed: int) -> np.ndarray:
    prices = generate_synthetic(SyntheticSpec(assets, steps, _parse_regimes(regimes), seed)).prices
    return prices[1:] / prices[:-1] - 1.0


def _levels(returns: np.ndarray) -> tuple[float, float]:
    """A return floor below the best asset mean and a risk cap above the
    equal-weight volatility of these returns."""
    mu = returns.mean(axis=0)
    cov = np.cov(returns, rowvar=False)
    return float(0.5 * (mu.max() + mu.mean())), float(np.sqrt(cov.sum())) / len(mu)


def _walk_levels(returns: np.ndarray, first_test: int, test_span: int) -> list[str]:
    """--r-min and --sigma-max that every rebalance of a compare can meet."""
    r_min, sigma_max = np.inf, 0.0
    for start in range(first_test, len(returns), test_span):
        for t in range(start - 1, min(start + test_span, len(returns)) - 1, REBALANCE):
            r, s = _levels(returns[:t + 1])
            r_min, sigma_max = min(r_min, r), max(sigma_max, s)
    # "=" keeps a negative level from reading as a flag
    return [f"--r-min={r_min!r}", f"--sigma-max={sigma_max!r}"]


def _panel(name: str, panel: int, assets: int, steps: int, first_test: int, test_span: int,
           regimes: str) -> tuple[list[str], list[str], int]:
    """The synth command of one panel, the split flags its commands share and
    its data seed."""
    seed = int(np.random.SeedSequence([SEED, panel]).generate_state(1)[0])
    data = f"{name}/p{panel}"
    synth = ["synth", "--outdir", data, "--synth-assets", str(assets), "--synth-steps",
             str(steps), "--seed", str(seed), "--regimes", regimes]
    # the return frame starts one date after the prices: the last training date
    train_end = str(np.busday_offset(START, first_test))
    split = ["--prices", f"{data}/prices.csv", "--seed", str(seed), "--initial-train-end",
             train_end, "--test-span", str(test_span), "--rebalance", str(REBALANCE),
             "--cost-rate", repr(COST_RATE)]
    return synth, split, seed


def _learned(iterations: int) -> list[str]:
    return ["--lags", "0,1,2,3,4,20", "--vol-window", "10", "--max-iterations", str(iterations),
            "--patience", str(iterations)]


def _deficient_prices() -> PriceFrame:
    """Four synthetic assets and a fifth whose prices repeat the first one's,
    so that every sample covariance is singular and the min-variance,
    floor and cap optima can be non-unique."""
    frame = generate_synthetic(SyntheticSpec(4, 700, _parse_regimes(_convex_regimes(4)), 0))
    return PriceFrame(frame.dates, frame.assets + ("A5",),
                      np.hstack((frame.prices, frame.prices[:, :1])))


def _tie_panels() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17 dates, a curves matrix and a weights matrix (with a leverage column
    and a negative weight), all multiples of 1/8; each chart's maximum is 380
    and the curves' minimum 0, so every y coordinate is 414 - value exactly."""
    rng = np.random.default_rng(SEED)
    dates = np.busday_offset(START, np.arange(17))
    curves = rng.integers(0, 3041, size=(17, 3)) / 8.0
    curves[0, 0], curves[-1, 1] = 0.0, 380.0
    weights = rng.integers(0, 1001, size=(17, 4)) / 8.0
    weights[-1, :3] = 120.125, 130.375, 129.5
    weights[3, 1] = -0.625  # clipped to 0 in the stack
    weights[:, 3] = 1.5  # the leverage column, which the chart leaves out
    return dates, curves, weights


def write_inputs() -> None:
    """Write, relative to the working directory, the inputs that no command makes."""
    os.makedirs(os.path.dirname(DEFICIENT), exist_ok=True)
    write_price_csv(_deficient_prices(), DEFICIENT)
    dates, curves, weights = _tie_panels()
    atomic_write_text(f"{TIES}/curves.csv", dated_csv(dates, ("c1", "c2", "c3"), curves))
    atomic_write_text(f"{TIES}/weights.csv",
                      dated_csv(dates, ("w1", "w2", "w3", "leverage"), weights))


def commands() -> list[list[str]]:
    out: list[list[str]] = []
    for panel in range(PANELS):
        synth, split, _ = _panel("train", panel, 2, 1100, 700, 400, _regimes((
            ((0.005, -0.003), (0.009, 0.009), 0.0, 130),
            ((-0.003, 0.005), (0.009, 0.009), 0.0, 130))))
        ckpt = f"train/p{panel}/out"
        out += [synth, ["train"] + split + ["--outdir", ckpt] + _learned(4),
                ["backtest"] + split + ["--outdir", f"train/p{panel}/backtest", "--method", "drl",
                                        "--checkpoints", ckpt, "--horizons", ""] + _learned(4)]
    for panel in range(PANELS):
        regimes = _convex_regimes(24)
        synth, split, seed = _panel("convex", panel, 24, 3800, 3044, 252, regimes)
        out += [synth, ["compare"] + split + _walk_levels(_returns(regimes, 24, 3800, seed), 3044, 252)
                + ["--horizons", "1y:252,2y:504", "--outdir", f"convex/p{panel}/out", "--models",
                   "markowitz,maxreturn,minvariance,riskparity,equalweight"]]
    for panel in range(PANELS):
        synth, split, _ = _panel("mixed", panel, 4, 1200, 450, 252, _mixed_regimes(4))
        out += [synth, ["compare"] + split + _learned(2) + [
            "--horizons", "", "--svg", "--outdir", f"mixed/p{panel}/out",
            "--models", "drl,riskparity,minvariance,equalweight"]]
    regimes = _convex_regimes(10)
    synth, split, seed = _panel("seven", 0, 10, 1000, 600, 200, regimes)
    returns = _returns(regimes, 10, 1000, seed)
    out += [synth, ["train"] + split + _learned(3) + ["--outdir", "seven/p0/train"],
            ["compare"] + split + _walk_levels(returns, 600, 200) + _learned(3) + [
                "--horizons", "1y:252", "--svg", "--outdir", "seven/p0/out",
                "--checkpoints", "seven/p0/train", "--models", ",".join(CONVEX + ("drl",))]]
    r_min, sigma_max = _levels(returns)
    for method in CONVEX:
        level = {"markowitz": [f"--r-min={r_min!r}"],
                 "maxreturn": [f"--sigma-max={sigma_max!r}"]}.get(method, [])
        out.append(["allocate", "--prices", "seven/p0/prices.csv", "--method", method,
                    "--outdir", f"seven/p0/allocate_{method}"] + level)
    walkthrough = ("--initial-train-end", "2002-06-28", "--test-span", "252", "--lags",
                   "0,1,2,3,4,20", "--vol-window", "10")
    out += [
        ["synth", "--outdir", "run/data", "--synth-steps", "1200", "--seed", "7", "--regimes",
         "0.004,-0.001|0.01,0.01|0.0|120;-0.001,0.004|0.01,0.01|0.0|120"],
        ["allocate", "--prices", "run/data/prices.csv", "--method", "riskparity", "--outdir",
         "run/alloc"],
        ["allocate", "--prices", "run/data/prices.csv", "--method", "markowitz", "--r-min",
         "0.001", "--outdir", "run/alloc2"],
        ["train", "--prices", "run/data/prices.csv", "--outdir", "run/ckpt", *walkthrough],
        ["compare", "--prices", "run/data/prices.csv", "--outdir", "run/cmp", *walkthrough,
         "--models", "drl,riskparity,minvariance,equalweight", "--checkpoints", "run/ckpt",
         "--horizons", "", "--svg"],
        ["plot", "--curves", "run/cmp/curves.csv", "--weights", "run/cmp/weights_drl.csv",
         "--outdir", "run/plots"],
    ]
    prices = _deficient_prices().prices
    out.append(["compare", "--prices", DEFICIENT, "--initial-train-end",
                str(np.busday_offset(START, 400)), "--test-span", "100", "--rebalance",
                str(REBALANCE), "--cost-rate", repr(COST_RATE)]
               + _walk_levels(prices[1:] / prices[:-1] - 1.0, 400, 100)
               + ["--horizons", "", "--outdir", "deficient/out", "--models",
                  "minvariance,markowitz,maxreturn"])
    out.append(["plot", "--curves", f"{TIES}/curves.csv", "--weights", f"{TIES}/weights.csv",
                "--outdir", f"{TIES}/plots"])
    return out


def run(argv: list[str]) -> tuple[int, dict[str, str]]:
    """Run one command in the working directory, with its printout discarded:
    its exit code and the sha256 of every file in its output directory."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = portalloc(argv)
    outdir = argv[argv.index("--outdir") + 1]
    files = {}
    for root, _, names in os.walk(outdir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, outdir)] = hashlib.sha256(fh.read()).hexdigest()
    return code, dict(sorted(files.items()))


def main() -> None:
    argvs = commands()
    records = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_inputs()
            for argv in argvs:
                code, files = run(argv)
                if code != 0:
                    sys.exit(f"exit code {code}: {' '.join(argv)}")
                records.append({"argv": argv, "files": files})
        finally:
            os.chdir(cwd)
    fixture = {"numpy": np.__version__, "python": sys.version.split()[0], "commands": records}
    with open(FIXTURE, "w") as fh:
        json.dump(fixture, fh, indent=1)
        fh.write("\n")
    print(f"{len(records)} commands, {sum(len(r['files']) for r in records)} files -> {FIXTURE}")


if __name__ == "__main__":
    main()
