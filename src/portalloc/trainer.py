"""Episodic policy-gradient training over a historical window.

Each iteration replays the window once: the policy acts on (noise-perturbed)
observations, a random action replaces the policy's with probability
1 - policy_prob, and the terminal reward is the net performance
P_T / P_0 - 1 with a one-step action lag (the action decided at t earns the
returns realized at t + 1). The terminal reward is a product of per-step
growth factors, so its gradient (and the L2 penalty's) with respect to the
network's outputs is exact and in closed form, and the policy's own batched
backward carries it through the network's layers. Random-action steps
contribute constant factors. Observations, realized returns and random
draws do not depend on the actions, so an iteration runs the network once:
one batched forward decides every policy step of the episode, and the
objective runs that forward's backward as a single tape record. Parameters
ascend with Adam; training stops early when the best seen reward stops
improving.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import add

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import DataError, NumericError
from .features import (ContextFrame, LagSet, Observation, build_observations,
                       min_valid_index)
from .market_data import ReturnFrame, VolFrame
from .policy import Action, NetworkArch, PolicyParameters, forward, init_network, l2_penalty


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    noise_std: float = 0.002
    max_iterations: int = 500
    early_stop_patience: int = 50
    policy_prob: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise DataError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise DataError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")
        if not 0.0 <= self.policy_prob <= 1.0:
            raise DataError("policy_prob must lie in [0, 1]")
        if self.max_iterations < 1:
            raise DataError("max_iterations must be >= 1")
        if self.early_stop_patience < 1:
            raise DataError("early_stop_patience must be >= 1")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TradingWindow:
    """Pre-built decision points: the stacked observations (one per step)
    plus the asset returns realized one step later."""

    observations: Observation
    next_returns: np.ndarray

    def __len__(self) -> int:
        return len(self.next_returns)


def make_window(rf: ReturnFrame, vf: VolFrame, ctx: ContextFrame, lags: LagSet,
                ctx_lags: LagSet, t_start: int, t_end: int) -> TradingWindow:
    """Decision steps t in [t_start, t_end); each needs full lag history and
    a realized return at t + 1, so t_end may be at most len(rf) - 1."""
    lo = min_valid_index(vf, rf, lags, ctx_lags)
    if t_start < lo:
        raise DataError(f"window start {t_start} precedes first valid index {lo}")
    if t_end > len(rf.dates) - 1:
        raise DataError(f"window end {t_end} leaves no realized next-step return")
    if t_end <= t_start:
        raise DataError("window too short: no decision steps")
    obs = build_observations(rf, vf, ctx, lags, ctx_lags, t_start, t_end)
    nxt = rf.returns[t_start + 1:t_end + 1].copy()
    return TradingWindow(obs, nxt)


@dataclass(frozen=True)
class EpisodeBuffer:
    """One replayed pass over a window, stacked along the step axis: the
    observations acted on, the actions taken, which steps the policy chose,
    the realized next-step returns, the terminal net performance and the
    policy steps' own Action, which carries the network's backward (None
    when no step was the policy's)."""

    obs: Observation
    actions: Action
    is_policy: np.ndarray
    next_returns: np.ndarray
    terminal_reward: float
    chosen: Action | None


def _growth(actions: Action, next_returns: np.ndarray) -> np.ndarray:
    """Per-step growth factor 1 + leverage * (weights . realized returns)."""
    return 1.0 + actions.leverage * np.einsum("ij,ij->i", actions.weights, next_returns)


def run_episode(params: PolicyParameters, window: TradingWindow, noise_std: float,
                policy_prob: float, rng: np.random.Generator) -> EpisodeBuffer:
    """Replay the window once, storing the observation used and the action
    taken at every step and the terminal net performance.

    Observations, realized returns and every random draw are independent of
    the actions, so one loop makes the draws first and one batched forward
    then decides every policy step; the buffer keeps that forward's Action
    for the objective. Per step, in order: one uniform draw
    (only when policy_prob < 1) that selects a random action when it is not
    below policy_prob; for a random step a Dirichlet(1, ..., 1) weight draw
    and a uniform leverage draw on [0, max_leverage]; then, unless it is the
    last step, Gaussian noise on the next step's asset tensor (volatility
    channel clipped at 0) and on its context matrix. Noise lands on the
    stored/used observation copies only; the reward always uses the true
    realized returns.
    """
    steps = len(window)
    if steps < 1:
        raise DataError("window too short for an episode")
    asset, ctx = window.observations.asset_tensor, window.observations.context_matrix
    is_policy = np.ones(steps, dtype=bool)
    weights = np.empty((steps, params.m))
    leverage = np.empty(steps)
    m, max_leverage = params.m, params.arch.max_leverage
    # row i - 1 holds step i's noise: its asset draws, then its context draws
    noise = np.empty((steps - 1, asset[0].size + ctx[0].size)) if noise_std != 0.0 else None
    for i in range(steps):
        # random() is uniform() on [0, 1): the same draw from the same stream
        if policy_prob < 1.0 and not rng.random() < policy_prob:
            is_policy[i] = False
            # dirichlet(ones(m)) and uniform(0, max_leverage) as numpy computes
            # them, minus their per-call argument handling: the same bits from
            # the same stream. The sum runs in order, as in dirichlet (np.sum
            # is pairwise, and the builtin sum compensates from Python 3.12).
            e = rng.standard_exponential(m)
            weights[i] = e * (1.0 / reduce(add, e.tolist()))
            leverage[i] = max_leverage * rng.random()
        if noise is not None and i + 1 < steps:
            rng.standard_normal(out=noise[i])
    if noise is not None:
        # normal(0, s) draws exactly s times a standard normal
        noise *= noise_std
        split = asset[0].size
        asset = asset.copy()
        asset[1:] += noise[:, :split].reshape(asset[1:].shape)
        # volatility channel stays a non-negative quantity
        np.maximum(asset[1:, 1], 0.0, out=asset[1:, 1])
        ctx = ctx.copy()
        ctx[1:] += noise[:, split:].reshape(ctx[1:].shape)
    obs = Observation(asset, ctx)
    chosen = None
    if is_policy.any():
        chosen = forward(params, obs[is_policy])
        weights[is_policy] = chosen.weights
        leverage[is_policy] = chosen.leverage
    actions = Action(weights, leverage)
    gross = np.cumprod(_growth(actions, window.next_returns))[-1]
    return EpisodeBuffer(obs, actions, is_policy, window.next_returns, float(gross) - 1.0,
                         chosen)


def buffer_objective(tape: Tape, params: PolicyParameters, buffer: EpisodeBuffer) -> Tensor:
    """Differentiable terminal reward minus L2 penalty of an episode that
    run_episode played with params as they are now. The policy steps' outputs
    and backward come from the episode's own forward, so the network does not
    run again; random-action steps enter as constant growth factors. One tape
    record holds the whole backward: every weight tensor w gets
    -2 l2_coeff w, then each policy step's factor gets the product of all the
    others, from prefix and suffix products (exact at a step that loses
    100%), and the policy's backward carries that through the network."""
    pick, chosen = buffer.is_policy, buffer.chosen
    constant = float(np.prod(_growth(buffer.actions, buffer.next_returns)[~pick]))
    gross = constant
    if chosen is not None:
        leverage = chosen.leverage
        returns = buffer.next_returns[pick]
        dot = np.einsum("ij,ij->i", chosen.weights, returns)
        factors = leverage * dot + 1.0
        prefix = np.cumprod(factors)
        gross = prefix[-1] * constant
    out = Tensor(gross - 1.0 - l2_penalty(params))

    def back():
        for name in params.weight_names():
            w = params.tensors[name]
            ad.accumulate(w, 2.0 * (-out.grad * params.arch.l2_coeff) * w.data)
        if chosen is not None:
            before = np.concatenate(([1.0], prefix[:-1]))
            after = np.concatenate((np.cumprod(factors[:0:-1])[::-1], [1.0]))
            seed = out.grad * constant * before * after
            chosen.backward((seed * leverage)[:, None] * returns, seed * dot)

    tape.record(back)
    return out


def episode_objective(params: PolicyParameters, window: TradingWindow,
                      tape: Tape | None = None) -> Tensor:
    """Deterministic objective of the pure policy over a window (no noise,
    no random actions): net performance minus L2. Pass a fresh Tape to make
    the result differentiable via autodiff.backward."""
    tape = tape if tape is not None else Tape()
    rng = np.random.default_rng(0)  # unused: all randomness is off
    buffer = run_episode(params, window, 0.0, 1.0, rng)
    return buffer_objective(tape, params, buffer)


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adam(params: PolicyParameters) -> AdamState:
    return AdamState({n: np.zeros_like(t.data) for n, t in params.tensors.items()},
                     {n: np.zeros_like(t.data) for n, t in params.tensors.items()})


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator offset


def adam_step(state: AdamState, params: PolicyParameters, grads: dict[str, np.ndarray],
              learning_rate: float) -> AdamState:
    """Bias-corrected Adam update in the ascent direction (theta += step)."""
    state.step += 1
    t = state.step
    for name, tensor in params.tensors.items():
        g = grads.get(name)
        if g is None:
            continue
        state.m[name] = _BETA1 * state.m[name] + (1.0 - _BETA1) * g
        state.v[name] = _BETA2 * state.v[name] + (1.0 - _BETA2) * g * g
        m_hat = state.m[name] / (1.0 - _BETA1 ** t)
        v_hat = state.v[name] / (1.0 - _BETA2 ** t)
        tensor.data = tensor.data + learning_rate * m_hat / (np.sqrt(v_hat) + _EPS)
    return state


@dataclass(frozen=True)
class IterationLog:
    iteration: int
    objective: float
    best_objective: float
    gradient_norm: float


@dataclass
class TrainedPolicy:
    params: PolicyParameters
    log: list[IterationLog]
    best_objective: float
    best_iteration: int


def training_log_csv(log: list[IterationLog]) -> str:
    lines = ["iteration,objective,best_objective,gradient_norm"]
    for row in log:
        lines.append(f"{row.iteration},{row.objective!r},{row.best_objective!r},"
                     f"{row.gradient_norm!r}")
    return "\n".join(lines) + "\n"


# a huge but finite noise_std or learning rate overflows in numpy; the stage
# it overflows in (episode, gradient or update) then fails as a NumericError
@np.errstate(over="raise", divide="raise", invalid="raise")
def train(window: TradingWindow, arch: NetworkArch, cfg: TrainConfig) -> TrainedPolicy:
    """Iterate episodes with Adam ascent on the terminal reward.

    Tracks the best reward seen; stops after early_stop_patience iterations
    without improvement and returns the best-seen parameters, not the last.
    An episode, gradient or update that is not finite raises NumericError.
    """
    _, _, m, lags = window.observations.asset_tensor.shape
    ctx_series, ctx_lags = window.observations.context_matrix.shape[1:]
    params = init_network(arch, m, lags, ctx_series, ctx_lags, seed=cfg.seed)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    adam = init_adam(params)
    log: list[IterationLog] = []
    best = -np.inf
    best_iter = 0
    best_snap = params.snapshot()
    for iteration in range(1, cfg.max_iterations + 1):
        try:
            buffer = run_episode(params, window, cfg.noise_std, cfg.policy_prob, rng)
            reward = buffer.terminal_reward
        except FloatingPointError:
            reward = math.nan
        if not np.isfinite(reward):
            # before the first update only the settings, not the learning rate, can be at fault
            hint = ("lower noise_std or max_leverage or shorten the window" if iteration == 1
                    else "lower the learning rate or shorten the window")
            raise NumericError(f"non-finite episode reward at iteration {iteration}; {hint}")
        if reward > best:
            best = reward
            best_iter = iteration
            best_snap = params.snapshot()
        params.zero_grads()
        tape = Tape()
        try:
            ad.backward(tape, buffer_objective(tape, params, buffer))
            grads = {n: t.grad for n, t in params.tensors.items() if t.grad is not None}
            norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
        except FloatingPointError:
            norm = math.nan
        if not np.isfinite(norm):
            raise NumericError(f"non-finite gradient at iteration {iteration}")
        try:
            adam_step(adam, params, grads, cfg.learning_rate)
        except FloatingPointError:
            raise NumericError(f"parameter update overflowed at iteration {iteration}; "
                               "lower the learning rate") from None
        log.append(IterationLog(iteration, reward, best, norm))
        if iteration - best_iter >= cfg.early_stop_patience:
            break
    best_params = replace(params, tensors={n: Tensor(d) for n, d in best_snap.items()})
    return TrainedPolicy(best_params, log, best, best_iter)


def train_split(bundle, index: int, split, arch: NetworkArch, cfg: TrainConfig) -> TrainedPolicy:
    """Train on split `index` of a bundle (rf, vf, ctx, lags, ctx_lags): decision
    steps from the first with full feature history up to split.test_start - 1, so
    every reward is realized before the test range; seeded by SeedSequence([cfg.seed, index])."""
    lo = min_valid_index(bundle.vf, bundle.rf, bundle.lags, bundle.ctx_lags)
    window = make_window(bundle.rf, bundle.vf, bundle.ctx, bundle.lags, bundle.ctx_lags,
                         lo, split.test_start - 1)
    seed = int(np.random.SeedSequence([cfg.seed, index]).generate_state(1)[0])
    return train(window, arch, replace(cfg, seed=seed))
