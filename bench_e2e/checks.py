"""Output checks and digests for one execution of a workload's command.

The checks read only the files the command wrote and the generated prices;
the value-path oracle is written here from the documented semantics, not
taken from the program: the decision dated d earns the price change from d
to the next date, net of cost_rate times the leverage-scaled turnover, and
the first decision trades in from a flat position.
"""
from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np

REPLAY_RTOL = 1e-9
SUM_RTOL = 1e-9


def _read_wide(path: str) -> tuple[list[str], list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][0] != "date":
        raise ValueError(f"{path}: expected a date,... header")
    return ([r[0] for r in rows[1:]], rows[0][1:],
            np.array([[float(c) for c in r[1:]] for r in rows[1:]], dtype=float))


def replay_values(prices_path: str, weights_path: str, cost_rate: float
                  ) -> tuple[list[str], np.ndarray]:
    """Independent replay of one model's value path from its weights CSV.
    Returns the curve dates (decision dates plus the final date) and values."""
    price_dates, _, prices = _read_wide(prices_path)
    dates, names, matrix = _read_wide(weights_path)
    if names[-1] != "leverage":
        raise ValueError(f"{weights_path}: last column must be leverage")
    index = {d: i for i, d in enumerate(price_dates)}
    rows = np.array([index[d] for d in dates])
    growth = prices[rows + 1] / prices[rows] - 1.0
    targets = matrix[:, :-1]
    previous = np.vstack([np.zeros((1, targets.shape[1])), targets[:-1]])
    turnover = np.abs(targets - previous).sum(axis=1)
    steps = (targets * growth).sum(axis=1) - cost_rate * turnover
    values = np.concatenate([[1.0], np.cumprod(1.0 + steps)])
    return dates + [price_dates[rows[-1] + 1]], values


def check_outputs(prep, cost_rate: float) -> list[tuple[str, bool, str]]:
    """Every check of one finished execution as (name, passed, detail)."""
    results: list[tuple[str, bool, str]] = []
    missing = [f for f in prep.expected_files
               if not os.path.isfile(os.path.join(prep.outdir, f))]
    results.append(("expected_files", not missing, ", ".join(missing)))
    if missing:
        return results
    if prep.models:
        results += _check_compare(prep, cost_rate)
    else:
        results += _check_train(prep)
    return results


def _check_compare(prep, cost_rate: float) -> list[tuple[str, bool, str]]:
    results = []
    curve_dates, curve_names, curves = _read_wide(os.path.join(prep.outdir, "curves.csv"))
    results.append(("curve_columns", curve_names == list(prep.models), ",".join(curve_names)))
    days = len(curve_names) * (len(curve_dates) - 1)
    results.append(("model_days", days == prep.model_days, f"{days}, expected {prep.model_days}"))
    for j, model in enumerate(curve_names):
        weights_path = os.path.join(prep.outdir, f"weights_{model}.csv")
        _, _, matrix = _read_wide(weights_path)
        scaled, leverage = matrix[:, :-1], matrix[:, -1]
        sums_ok = np.abs(scaled.sum(axis=1) - leverage) <= SUM_RTOL * np.maximum(1.0, leverage)
        results.append((f"weights_{model}", bool(scaled.min() >= 0.0 and sums_ok.all()),
                        f"min weight {scaled.min():.3g}, rows {len(scaled)}"))
        dates, values = replay_values(prep.prices, weights_path, cost_rate)
        if dates != curve_dates:
            results.append((f"replay_{model}", False, "date axis differs from curves.csv"))
            continue
        err = float(np.max(np.abs(values - curves[:, j]) / np.maximum(np.abs(curves[:, j]), 1e-300)))
        results.append((f"replay_{model}", err <= REPLAY_RTOL, f"max relative error {err:.3g}"))
    return results


def _check_train(prep) -> list[tuple[str, bool, str]]:
    from portalloc.policy import load_params

    results = []
    for name in sorted(f for f in prep.expected_files if f.startswith("checkpoint_")):
        try:
            params = load_params(os.path.join(prep.outdir, name))
            ok = all(np.all(np.isfinite(t.data)) for t in params.tensors.values())
            results.append((f"load_{name}", ok, f"{len(params.tensors)} tensors"))
        except Exception as exc:  # any failure to load is a failed check, not a crash
            results.append((f"load_{name}", False, f"{type(exc).__name__}: {exc}"))
    per_split = prep.iterations // sum(f.startswith("train_log_") for f in prep.expected_files)
    for name in sorted(f for f in prep.expected_files if f.startswith("train_log_")):
        with open(os.path.join(prep.outdir, name), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        finite = all(len(r) == 4 and all(math.isfinite(float(c)) for c in r) for r in rows)
        results.append((f"log_{name}", finite and len(rows) == per_split,
                        f"{len(rows)} rows, expected {per_split}"))
    return results


def digests(outdir: str) -> dict[str, str]:
    """sha256 of every file under outdir, keyed by relative path."""
    out = {}
    for base, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, outdir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def combined_digest(files: dict[str, str]) -> str:
    text = "".join(f"{name} {digest}\n" for name, digest in files.items())
    return hashlib.sha256(text.encode()).hexdigest()
