"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's solver/metric code paths: grid
enumeration plus direct objective evaluation for the allocators, plain
Python loops for the performance metrics, central finite differences for
gradients, the convolution passes as tensordot of a sliding-window view as
the bit-for-bit reference for the kernels, and the policy network composed
from generic tape layers as the bit-for-bit reference for its own batched
forward and backward, the moment checks by np.allclose as the reference
for the cheaper comparisons that CovarianceStats tries first, and risk
parity's damped Newton on one covariance as the bit-for-bit reference for
the stacked solve.
"""
from __future__ import annotations

import csv
import datetime
import functools
import itertools
import math
import os

import numpy as np

from portalloc import _kernels
from portalloc.autodiff import Tape, Tensor, accumulate
from portalloc.errors import DataError
from portalloc.features import build_observations

GRID_STEP = 0.005

_GRID_CACHE: dict[int, np.ndarray] = {}


def simplex_compositions(units: int, parts: int) -> np.ndarray:
    """All non-negative integer vectors of length ``parts`` summing to
    ``units``, lexicographically descending, built level by level.
    Shape (C(units+parts-1, parts-1), parts).

    Each (remaining units, remaining parts) block is built once and reused;
    test_oracles.py checks the rows against the recursive definition."""
    blocks: dict[tuple[int, int], np.ndarray] = {}

    def build(total: int, k: int) -> np.ndarray:
        if k == 1:
            return np.array([[total]], dtype=np.int64)
        if (total, k) not in blocks:
            rows = []
            for first in range(total, -1, -1):
                rest = build(total - first, k - 1)
                rows.append(np.hstack((np.full((rest.shape[0], 1), first, dtype=np.int64), rest)))
            blocks[total, k] = np.vstack(rows)
        return blocks[total, k]

    return build(units, parts)


def simplex_grid(l: int, step: float = GRID_STEP) -> np.ndarray:
    units = round(1.0 / step)
    key = l if step == GRID_STEP else -1
    if key not in _GRID_CACHE:
        grid = simplex_compositions(units, l) / float(units)
        if key == -1:
            return grid
        _GRID_CACHE[key] = grid
    return _GRID_CACHE[key]


@functools.lru_cache(maxsize=2)
def _grid_form(shape: tuple[int, int], data: bytes) -> np.ndarray:
    matrix = np.frombuffer(data).reshape(shape)
    W = simplex_grid(shape[0])
    vals = ((W @ matrix) * W).sum(axis=1)
    vals.flags.writeable = False
    return vals


def grid_form(matrix: np.ndarray) -> np.ndarray:
    """w' M w at every grid point w, by one BLAS product. The last two
    matrices' forms are kept, so the oracles of one instance form its
    covariance once, and its correlation once."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    return _grid_form(matrix.shape, matrix.tobytes())


def grid_min_quadratic(matrix: np.ndarray, feasible_mask=None) -> tuple[np.ndarray, float]:
    """argmin of w' M w over the grid (optionally masked)."""
    W = simplex_grid(matrix.shape[0])
    vals = grid_form(matrix)
    if feasible_mask is not None:
        vals = np.where(feasible_mask(W), vals, np.inf)
    i = int(np.argmin(vals))
    return W[i], float(vals[i])


def grid_min_risk_with_floor(sigma: np.ndarray, mu: np.ndarray, r_min: float):
    W = simplex_grid(sigma.shape[0])
    var = np.where(W @ mu >= r_min - 1e-12, grid_form(sigma), np.inf)
    i = int(np.argmin(var))
    return W[i], float(var[i])


def grid_max_return_with_cap(sigma: np.ndarray, mu: np.ndarray, cap: float):
    W = simplex_grid(sigma.shape[0])
    ret = np.where(grid_form(sigma) <= cap + 1e-12, W @ mu, -np.inf)
    i = int(np.argmax(ret))
    return W[i], float(ret[i])


def grid_max_diversification(sigma: np.ndarray, vols: np.ndarray):
    W = simplex_grid(sigma.shape[0])
    ratio = (W @ vols) / np.sqrt(grid_form(sigma))
    i = int(np.argmax(ratio))
    return W[i], float(ratio[i])


_BARRIER_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def grid_equal_risk_contribution(sigma: np.ndarray):
    """Grid minimizer of the scale-reduced barrier objective
    1/2 + 1/2 ln(w'Sw) - (1/l) sum ln w_i (interior points only)."""
    l = sigma.shape[0]
    W = simplex_grid(l)
    if l not in _BARRIER_CACHE:  # the interior and the sum of logs depend on the grid only
        _BARRIER_CACHE[l] = np.all(W > 0, axis=1), np.log(np.clip(W, 1e-300, None)).sum(axis=1)
    interior, log_sum = _BARRIER_CACHE[l]
    with np.errstate(divide="ignore"):
        obj = 0.5 + 0.5 * np.log(grid_form(sigma)) - log_sum / l
    obj = np.where(interior, obj, np.inf)
    i = int(np.argmin(obj))
    return W[i], float(obj[i])


def erc_fixed_point(sigma: np.ndarray, sweeps: int = 10000) -> np.ndarray:
    """Equal-risk-contribution weights by the fixed-point iteration
    w_i <- sqrt(w_i / (Sw)_i), renormalized, from equal weights."""
    w = np.full(len(sigma), 1.0 / len(sigma))
    for _ in range(sweeps):
        w = np.sqrt(w / (sigma @ w))
        w /= w.sum()
    return w


def erc_newton(sigma: np.ndarray) -> tuple[np.ndarray, int]:
    """Risk parity's damped Newton (Spinu 2013) on one covariance, one step
    after another: from the line minimum of F(x) = l/2 x'Sx - sum ln x_i on
    the inverse-volatility ray, x <- x * (1 - u / (1 + delta)) with u solving
    (l xx' * S + I) u = l x * (Sx) - 1 and delta = sqrt(r'u), until the step
    with delta <= 1e-8 or _NEWTON_STEPS steps. Returns (x, steps)."""
    from portalloc.allocators import _NEWTON_STEPS

    l = sigma.shape[0]
    s = 1.0 / np.sqrt(np.diag(sigma))
    x = s / np.sqrt(float(s @ sigma @ s))
    eye = np.eye(l)
    for steps in range(1, _NEWTON_STEPS + 1):
        r = l * x * (sigma @ x) - 1.0
        u = np.linalg.solve(l * np.outer(x, x) * sigma + eye, r)
        delta = np.sqrt(float(r @ u))
        x = x * (1.0 - u / (1.0 + delta))
        if delta <= 1e-8:
            break
    return x, steps


def covariance_stats_failure(mu, sigma_mat, corr, vols) -> str | None:
    """The message of the first check of CovarianceStats that these moments
    fail, None if they pass: the checks in their order, each closeness test
    by np.allclose itself."""
    if not np.allclose(sigma_mat, sigma_mat.T, rtol=0, atol=1e-12):
        return "covariance matrix is not symmetric"
    eig = np.linalg.eigvalsh(sigma_mat)
    if eig[0] < -1e-10 * max(eig[-1], 1e-300):
        return "covariance matrix is not positive semi-definite"
    if not np.allclose(np.diag(corr), 1.0, rtol=0, atol=1e-12):
        return "correlation diagonal must be 1"
    if np.any(np.abs(corr) > 1.0 + 1e-12):
        return "correlation entries must lie within [-1, 1]"
    if not np.allclose(vols ** 2, np.diag(sigma_mat), rtol=1e-12, atol=1e-300):
        return "volatilities must be the square roots of the covariance diagonal"
    return None


def best_zero_variance_return(rows: np.ndarray) -> float:
    """max mu'w over the zero-variance portfolios of the sample covariance of
    return rows (n, l) with n <= l: w >= 0, sum w = 1 and R_c w = 0 for the
    centred rows R_c, mu the row mean. Vertex enumeration: R_c has rank
    n - 1, so a basic solution holds at most n assets; every n-subset solves
    n - 1 centred rows plus the unit sum exactly, and the best non-negative
    solution wins. -inf when no zero-variance portfolio exists."""
    n, l = rows.shape
    centred = rows - rows.mean(axis=0)
    subsets = np.array(list(itertools.combinations(range(l), n)))
    systems = np.concatenate([centred[:-1][:, subsets].transpose(1, 0, 2),
                              np.ones((len(subsets), 1, n))], axis=1)
    usable = np.abs(np.linalg.det(systems)) > 1e-12 * np.abs(centred).max() ** (n - 1)
    rhs = np.zeros((int(usable.sum()), n, 1))
    rhs[:, -1] = 1.0
    w = np.linalg.solve(systems[usable], rhs)[..., 0]
    feasible = np.all(w >= -1e-12, axis=1)
    returns = np.einsum("sn,sn->s", w, rows.mean(axis=0)[subsets[usable]])
    return float(np.max(returns[feasible], initial=-np.inf))


def convex_decisions(method, rf, schedule, cfg):
    """The weights a convex model holds on each test day of the schedule,
    one model at a time: on every rebalance date t its own estimate_stats of
    the window ending at t and its own solve, with no shared minimum-variance
    report. Returns (weights (days, l), rebalance dates)."""
    from portalloc.allocators import solve
    from portalloc.market_data import ReturnFrame
    from portalloc.risk_models import estimate_stats

    rows, dates = [], []
    for split in schedule.splits:
        first = split.test_start - 1
        for t in range(first, split.test_end - 1):
            if (t - first) % cfg.rebalance == 0:
                window = ReturnFrame(rf.dates[:t + 1], rf.assets, rf.returns[:t + 1])
                w = solve(method, estimate_stats(window, cfg.est_window),
                          r_min=cfg.r_min, sigma_max=cfg.sigma_max).weights.w
                dates.append(t)
            rows.append(w)
    return np.array(rows), dates


# ---------------------------------------------------------------------------
# metric oracles: plain loops, no vectorized shortcuts
# ---------------------------------------------------------------------------

def metrics_bruteforce(values) -> dict:
    values = [float(v) for v in values]
    steps = len(values) - 1
    rets = [values[i + 1] / values[i] - 1.0 for i in range(steps)]
    growth = values[-1] / values[0]
    ann = growth ** (252.0 / steps) - 1.0
    mean = sum(rets) / len(rets)
    if len(rets) >= 2:
        sd = math.sqrt(sum((r - mean) ** 2 for r in rets) / (len(rets) - 1))
    else:
        sd = 0.0
    # matches the library's definitional choice: float-noise vol counts as zero
    zero_floor = 1e-12 * max(1.0, max(abs(r) for r in rets))
    sharpe = None if sd <= zero_floor else ann / (sd * math.sqrt(252.0))
    downside = math.sqrt(sum(min(r, 0.0) ** 2 for r in rets) / len(rets))
    sortino = None if downside <= 0 else ann / (downside * math.sqrt(252.0))
    peak = values[0]
    max_dd = 0.0
    for v in values:
        peak = max(peak, v)
        max_dd = max(max_dd, (peak - v) / peak)
    return {"annualized_return": ann, "sharpe": sharpe, "sortino": sortino,
            "max_dd": max_dd}


# ---------------------------------------------------------------------------
# walk-forward replay: one step at a time
# ---------------------------------------------------------------------------

def per_day_replay(decide, rf, t_start, t_end, cost_rate, prev_position=None):
    """run_strategy as a plain loop over the steps: each decision is asked
    for, checked and replayed in turn, and the loop stops asking at the
    first step return of -100% or worse."""
    from portalloc.backtest import EquityCurve
    from portalloc.errors import NumericError

    m = rf.num_assets
    steps = t_end - t_start
    values = np.empty(steps + 1)
    values[0] = 1.0
    weights = np.empty((steps, m))
    leverage = np.empty(steps)
    turnover = np.empty(steps)
    position = np.zeros(m) if prev_position is None else np.asarray(prev_position, dtype=float)
    bankrupt = False
    taken = 0
    for i, t in enumerate(range(t_start, t_end)):
        w, lvg = decide(t)
        w = np.asarray(w, dtype=float)
        if not (np.isfinite(w).all() and math.isfinite(lvg)):
            raise NumericError("decision rule returned non-finite weights or leverage")
        target = lvg * w
        weights[i] = w
        leverage[i] = lvg
        turnover[i] = float(np.abs(target - position).sum())
        step_ret = lvg * float(w @ rf.returns[t + 1]) - cost_rate * turnover[i]
        values[i + 1] = values[i] * (1.0 + step_ret)
        position = target
        taken = i + 1
        if step_ret <= -1.0:
            values[i + 1] = max(values[i + 1], 0.0)
            bankrupt = True
            break
    dates = rf.dates[t_start:t_start + taken + 1].copy()
    return EquityCurve(dates, values[:taken + 1], weights[:taken], leverage[:taken],
                       turnover[:taken], bankrupt)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def central_difference(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a flat array."""
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        bump = np.zeros_like(x, dtype=float)
        bump.flat[i] = h
        g.flat[i] = (fn(x + bump) - fn(x - bump)) / (2.0 * h)
    return g


def relative_errors(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


# ---------------------------------------------------------------------------
# the convolution passes as tensordot of a sliding-window view: the bit-for-bit
# reference for portalloc._kernels
# ---------------------------------------------------------------------------

def conv1d_fwd(x: np.ndarray, k: np.ndarray, b: np.ndarray) -> np.ndarray:
    kw = k.shape[2]
    win = np.lib.stride_tricks.sliding_window_view(x, kw, axis=-1)  # (..., ci, Lo, kw)
    y = np.tensordot(k, win, axes=((1, 2), (-3, -1)))  # (co, ..., Lo)
    return np.moveaxis(y, 0, -2) + b[:, None]


def conv1d_bwd(x, k, gy, input_grad: bool):
    """(gx, gk, gb); gx is None unless input_grad, because a constant input
    such as an observation needs none."""
    kw = k.shape[2]
    n_out = gy.shape[-1]
    batch = tuple(range(gy.ndim - 2))
    win = np.lib.stride_tricks.sliding_window_view(x, kw, axis=-1)
    gk = np.tensordot(gy, win, axes=(batch + (gy.ndim - 1,), batch + (gy.ndim - 1,)))
    gb = gy.sum(axis=batch + (-1,))
    if not input_grad:
        return None, gk, gb
    gx = np.zeros_like(x)
    for j in range(kw):
        gx[..., j:j + n_out] += np.matmul(k[:, :, j].T, gy)
    return gx, gk, gb


# ---------------------------------------------------------------------------
# the policy network composed from generic tape layers: the gradient reference
# for the policy's own batched forward and backward
# ---------------------------------------------------------------------------

def conv1d(tape: Tape, x: Tensor | np.ndarray, kernels: Tensor, bias: Tensor) -> Tensor:
    """Valid 1-D cross-correlation: x (..., c_in, L), kernels (c_out, c_in, k)
    -> (..., c_out, L - k + 1). A plain array x is a constant input, such as
    the network's observations: its gradient is not formed."""
    taped = isinstance(x, Tensor)
    data = x.data if taped else x
    length, k = data.shape[-1], kernels.data.shape[2]
    if k > length:
        raise ValueError(f"kernel length {k} exceeds input length {length}")
    out = Tensor(_kernels.conv1d_fwd(data, kernels.data, bias.data))

    def back():
        gx, gk, gb = _kernels.conv1d_bwd(data, kernels.data, out.grad, taped)
        if taped:
            accumulate(x, gx)
        accumulate(kernels, gk)
        accumulate(bias, gb)

    tape.record(back)
    return out


def dense(tape: Tape, x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map: x (..., n) @ weights (n, o) + bias (o,) -> (..., o)."""
    out = Tensor(x.data @ weights.data + bias.data)

    def back():
        g = out.grad
        n, o = weights.data.shape
        accumulate(x, np.matmul(g, weights.data.T))
        accumulate(weights, x.data.reshape(-1, n).T @ g.reshape(-1, o))
        accumulate(bias, g.reshape(-1, o).sum(axis=0))

    tape.record(back)
    return out


def relu(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))

    def back():
        accumulate(x, out.grad * (x.data > 0.0))

    tape.record(back)
    return out


def sigmoid(tape: Tape, x: Tensor) -> Tensor:
    d = x.data
    y = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                 np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    out = Tensor(y)

    def back():
        accumulate(x, out.grad * out.data * (1.0 - out.data))

    tape.record(back)
    return out


def softmax(tape: Tape, x: Tensor) -> Tensor:
    """Stable softmax over the last axis; output is strictly positive and
    sums to 1 along it."""
    e = np.exp(x.data - np.max(x.data, axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def back():
        g = out.grad
        accumulate(x, out.data * (g - np.einsum("...i,...i->...", g, out.data)[..., None]))

    tape.record(back)
    return out


def concat(tape: Tape, a: Tensor, b: Tensor, batch_dims: int = 0) -> Tensor:
    """Concatenate a and b, each flattened after the first batch_dims axes."""
    batch = a.data.shape[:batch_dims]
    fa = a.data.reshape(batch + (-1,))
    out = Tensor(np.concatenate([fa, b.data.reshape(batch + (-1,))], axis=-1))
    na = fa.shape[-1]

    def back():
        accumulate(a, out.grad[..., :na].reshape(a.data.shape))
        accumulate(b, out.grad[..., na:].reshape(b.data.shape))

    tape.record(back)
    return out


def scale(tape: Tape, x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * c)

    def back():
        accumulate(x, out.grad * c)

    tape.record(back)
    return out


def forward_tape(tape, params, obs):
    """The policy network on the tape layers above; returns (weights (m,),
    leverage (1,)), or (weights (steps, m), leverage (steps, 1)) for a stack
    of observations."""
    a = obs.asset_tensor
    if a.shape[-2] != params.m or a.shape[-1] != params.lags:
        raise DataError(f"asset tensor shape {a.shape[-3:]} does not match network "
                        f"(2, {params.m}, {params.lags})")
    c = obs.context_matrix
    if c.shape[-2:] != (params.ctx_series, params.ctx_lags):
        raise DataError(f"context matrix shape {c.shape[-2:]} does not match network "
                        f"({params.ctx_series}, {params.ctx_lags})")
    t = params.tensors
    batch = a.ndim - 3
    x = a.reshape(a.shape[:batch] + (2 * params.m, params.lags))
    for i in range(len(params.arch.asset_conv)):
        x = relu(tape, conv1d(tape, x, t[f"asset_conv{i}_w"], t[f"asset_conv{i}_b"]))
    y = c
    for i in range(len(params.arch.context_conv)):
        y = relu(tape, conv1d(tape, y, t[f"ctx_conv{i}_w"], t[f"ctx_conv{i}_b"]))
    feat = concat(tape, x, y, batch)
    for i in range(len(params.arch.hidden)):
        feat = relu(tape, dense(tape, feat, t[f"hidden{i}_w"], t[f"hidden{i}_b"]))
    weights = softmax(tape, dense(tape, feat, t["weights_head_w"], t["weights_head_b"]))
    lev = scale(tape, sigmoid(
        tape, dense(tape, feat, t["leverage_head_w"], t["leverage_head_b"])),
        params.arch.max_leverage)
    return weights, lev


# ---------------------------------------------------------------------------
# tape primitives of the episodic objective, composed on the library's tape
# ---------------------------------------------------------------------------

def flatten(tape, x):
    out = Tensor(x.data.reshape(-1).copy())

    def back():
        accumulate(x, out.grad.reshape(x.data.shape))

    tape.record(back)
    return out


def add(tape, a, b):
    out = Tensor(a.data + b.data)

    def back():
        accumulate(a, out.grad)
        accumulate(b, out.grad)

    tape.record(back)
    return out


def sub(tape, a, b):
    out = Tensor(a.data - b.data)

    def back():
        accumulate(a, out.grad)
        accumulate(b, -out.grad)

    tape.record(back)
    return out


def mul(tape, a, b):
    out = Tensor(a.data * b.data)

    def back():
        accumulate(a, out.grad * b.data)
        accumulate(b, out.grad * a.data)

    tape.record(back)
    return out


def add_const(tape, x, c: float):
    out = Tensor(x.data + c)

    def back():
        accumulate(x, out.grad)

    tape.record(back)
    return out


def dot_const(tape, x, c: np.ndarray):
    """Inner product with a constant over the last axis: x (..., n), c
    broadcastable to it -> (...); a scalar tensor for a vector x."""
    c = np.asarray(c, dtype=np.float64)
    out = Tensor(np.einsum("...i,...i->...", x.data, c))

    def back():
        accumulate(x, out.grad[..., None] * c)

    tape.record(back)
    return out


def prod(tape, x):
    """Product of all entries of x, multiplied in order; a scalar tensor.

    The gradient of entry i is the product of every other entry, taken from
    prefix and suffix products rather than by dividing the total by x_i, so
    it stays exact when an entry is 0.
    """
    flat = x.data.reshape(-1)
    prefix = np.cumprod(flat)
    out = Tensor(prefix[-1])

    def back():
        before = np.concatenate(([1.0], prefix[:-1]))
        after = np.concatenate((np.cumprod(flat[:0:-1])[::-1], [1.0]))
        accumulate(x, (out.grad * before * after).reshape(x.data.shape))

    tape.record(back)
    return out


def sumsq(tape, x):
    out = Tensor(float((x.data * x.data).sum()))

    def back():
        accumulate(x, 2.0 * out.grad * x.data)

    tape.record(back)
    return out


def l2_penalty_tape(tape, params):
    """l2_coeff times the summed squares of every weight tensor, on the tape."""
    acc = None
    for name in params.weight_names():
        term = sumsq(tape, params.tensors[name])
        acc = term if acc is None else add(tape, acc, term)
    return scale(tape, acc, params.arch.l2_coeff)


# ---------------------------------------------------------------------------
# episode references
# ---------------------------------------------------------------------------

def taped_buffer_objective(tape, params, buffer):
    """Terminal reward minus L2 of a stored episode, composed from generic
    tape primitives over one batched taped forward; random-action steps enter
    as one constant factor. The closed-form trainer.buffer_objective must
    equal it bit for bit."""
    from portalloc.trainer import _growth

    pick = buffer.is_policy
    constant = float(np.prod(_growth(buffer.actions, buffer.next_returns)[~pick]))
    if pick.any():
        weights, lev = forward_tape(tape, params, buffer.obs[pick])
        step = mul(tape, flatten(tape, lev), dot_const(tape, weights, buffer.next_returns[pick]))
        gross = scale(tape, prod(tape, add_const(tape, step, 1.0)), constant)
    else:
        gross = Tensor(np.array(constant))
    reward = add_const(tape, gross, -1.0)
    return sub(tape, reward, l2_penalty_tape(tape, params))


def sequential_buffer_objective(tape, params, buffer):
    """Terminal reward minus L2 of a stored episode, compounded step by step
    with one taped forward per policy step (the unbatched tape path);
    random-action steps enter as constant factors."""
    gross = Tensor(np.array(1.0))
    for i, r in enumerate(buffer.next_returns):
        if buffer.is_policy[i]:
            weights, lev = forward_tape(tape, params, buffer.obs[i])
            step = mul(tape, lev, dot_const(tape, weights, r))
            gross = mul(tape, gross, add_const(tape, step, 1.0))
        else:
            lev = float(buffer.actions.leverage[i])
            gross = scale(tape, gross, 1.0 + lev * float(buffer.actions.weights[i] @ r))
    reward = add_const(tape, gross, -1.0)
    return sub(tape, reward, l2_penalty_tape(tape, params))


def build_observation(rf, vf, ctx, lags, ctx_lags, t: int):
    """Observation at return-frame index t, laid out as one step of
    features.build_observations: the one-step reference."""
    return build_observations(rf, vf, ctx, lags, ctx_lags, t, t + 1)[0]


def episode_draws(rng, window, m, max_leverage, noise_std, policy_prob):
    """The documented per-step random draws of one episode, made one call at
    a time: a uniform selector when policy_prob < 1, a Dirichlet weight and a
    uniform leverage for a random step, then Gaussian noise on the next
    step's asset tensor (volatility clipped at 0) and context matrix.
    Returns (is_policy, {step: (weights, leverage)}, noisy assets, noisy
    contexts)."""
    steps = len(window)
    assets = [window.observations[i].asset_tensor.copy() for i in range(steps)]
    contexts = [window.observations[i].context_matrix.copy() for i in range(steps)]
    is_policy, random_actions = [], {}
    for i in range(steps):
        use_policy = policy_prob >= 1.0 or rng.uniform() < policy_prob
        is_policy.append(use_policy)
        if not use_policy:
            weights = rng.dirichlet(np.ones(m))
            random_actions[i] = (weights, float(rng.uniform(0.0, max_leverage)))
        if noise_std != 0.0 and i + 1 < steps:
            noisy = assets[i + 1] + rng.normal(0.0, noise_std, assets[i + 1].shape)
            noisy[1] = np.maximum(noisy[1], 0.0)
            assets[i + 1] = noisy
            contexts[i + 1] = contexts[i + 1] + rng.normal(0.0, noise_std, contexts[i + 1].shape)
    return np.array(is_policy), random_actions, np.stack(assets), np.stack(contexts)


def cell_by_cell_curves_csv(reports) -> str:
    """curves_csv formatted one numpy cell at a time with repr(float(x))."""
    curves = [r.curve for r in reports]
    lines = ["date," + ",".join(r.model for r in reports)]
    for i, day in enumerate(curves[0].dates):
        lines.append(str(day) + "," + ",".join(repr(float(c.values[i])) for c in curves))
    return "\n".join(lines) + "\n"


def cell_by_cell_weights_csv(report) -> str:
    """weights_csv formatted one numpy cell at a time with repr(float(x))."""
    curve = report.curve
    m = curve.weights.shape[1]
    lines = ["date," + ",".join(f"w{i + 1}" for i in range(m)) + ",leverage"]
    for i in range(len(curve.weights)):
        scaled = curve.leverage[i] * curve.weights[i]
        lines.append(str(curve.dates[i]) + "," + ",".join(repr(float(x)) for x in scaled)
                     + "," + repr(float(curve.leverage[i])))
    return "\n".join(lines) + "\n"


def scalar_svg_points(xs, ys) -> str:
    """The SVG points text: 'x,y' per point from numpy scalars, two f-string
    formats each, joined by spaces."""
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def rolling_std(returns: np.ndarray, window: int) -> np.ndarray:
    """rolling_volatility's values as numpy's std of the sliding window view,
    with overflow left in place."""
    sliding = np.lib.stride_tricks.sliding_window_view(returns, window, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        return sliding.std(axis=2, ddof=0)


def row_by_row_dated_csv(dates: np.ndarray, names, matrix: np.ndarray) -> str:
    """dated_csv formatting every row with repr, held rows included."""
    lines = ["date," + ",".join(names)]
    for day, row in zip(dates.astype(str).tolist(), matrix.tolist()):
        lines.append(day + "," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def cell_by_cell_read_dated_csv(path: str, kind: str) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
    """read_dated_csv parsing one cell at a time and converting date objects
    to datetime64 through numpy."""
    if not os.path.exists(path):
        raise DataError(f"{kind} file not found: {path}")
    try:
        with open(path, newline="") as fh:
            header, *body = list(csv.reader(fh)) or [[]]
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"unreadable {kind} file ({exc}): {path}") from None
    if len(header) < 2 or header[0] != "date":
        raise DataError(f"{kind} header must be 'date,<name1>,...': {path}")
    if not body:
        raise DataError(f"{kind} file has no data rows: {path}")
    names = tuple(header[1:])

    def malformed(detail: str) -> DataError:
        return DataError(f"malformed row in {kind} file {path}: {detail}")

    days, rows = [], []
    for i, row in enumerate(body, start=2):
        if len(row) != len(names) + 1:
            raise malformed(f"row {i} has {len(row)} cells, expected {len(names) + 1}")
        try:
            day = datetime.date.fromisoformat(row[0])
        except ValueError:
            raise malformed(f"malformed date at row {i}: {row[0]!r}") from None
        if days and day == days[-1]:
            raise malformed(f"duplicate date at row {i}: {row[0]}")
        if days and day < days[-1]:
            raise malformed(f"unordered dates at row {i}: {row[0]} after {days[-1]}")
        days.append(day)
        values = []
        for name, cell in zip(names, row[1:]):
            try:
                values.append(float(cell))
            except ValueError:
                raise malformed(f"non-numeric cell at (row {i}, column {name}): {cell!r}") from None
        rows.append(values)
    matrix = np.array(rows, dtype=float)
    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        raise malformed(f"non-finite cell at (row {bad[0, 0] + 2}, column {names[bad[0, 1]]})")
    return np.array(days, dtype="datetime64[D]"), names, matrix
