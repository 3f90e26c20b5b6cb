"""Two-branch, two-head allocation policy.

The asset branch runs two 1-D convolutions (5 then 10 filters by default)
along the lag axis, treating the return/volatility channels of every asset
as input channels. The context branch runs one 1-D convolution (3 filters).
Both are flattened, concatenated, optionally passed through dense hidden
layers, and feed two heads: a softmax over asset weights and a sigmoid
leverage scalar scaled to [0, max_leverage].
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import DataError
from .features import Observation


@dataclass(frozen=True)
class NetworkArch:
    """(filters, kernel) pairs per conv layer, dense hidden sizes, leverage
    bound and L2 coefficient."""

    asset_conv: tuple[tuple[int, int], ...] = ((5, 3), (10, 3))
    context_conv: tuple[tuple[int, int], ...] = ((3, 3),)
    hidden: tuple[int, ...] = ()
    max_leverage: float = 3.0
    l2_coeff: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "asset_conv", tuple((int(f), int(k)) for f, k in self.asset_conv))
        object.__setattr__(self, "context_conv", tuple((int(f), int(k)) for f, k in self.context_conv))
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        for f, k in self.asset_conv + self.context_conv:
            if f < 1 or k < 1:
                raise DataError("conv filters and kernels must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise DataError(f"hidden sizes must be >= 1, got {list(self.hidden)}")
        if not (math.isfinite(self.max_leverage) and self.max_leverage > 0):
            raise DataError(f"max_leverage must be finite and > 0, got {self.max_leverage!r}")
        if not (math.isfinite(self.l2_coeff) and self.l2_coeff >= 0):
            raise DataError(f"l2_coeff must be finite and >= 0, got {self.l2_coeff!r}")

    def to_json(self, m: int, lags: int, ctx_series: int, ctx_lags: int) -> str:
        payload = {
            "asset_conv": [list(x) for x in self.asset_conv],
            "context_conv": [list(x) for x in self.context_conv],
            "hidden": list(self.hidden),
            "max_leverage": self.max_leverage,
            "l2_coeff": self.l2_coeff,
            "assets": m,
            "lags": lags,
            "context_series": ctx_series,
            "context_lags": ctx_lags,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Action:
    """weights on the simplex plus a leverage scalar in [0, max_leverage].

    Actions for a stack of observations carry a leading step axis: weights
    (steps, assets) and a leverage array (steps,).
    """

    weights: np.ndarray
    leverage: float | np.ndarray

    def __post_init__(self):
        if not (np.all(np.abs(self.weights.sum(axis=-1) - 1.0) <= 1e-8)
                and np.all(self.weights >= 0)):
            raise DataError("action weights must lie on the simplex")
        if not np.all(np.asarray(self.leverage) >= 0):
            raise DataError("leverage must be >= 0")


@dataclass
class PolicyParameters:
    tensors: dict[str, Tensor]
    arch: NetworkArch
    m: int
    lags: int
    ctx_series: int
    ctx_lags: int

    def weight_names(self) -> list[str]:
        return [n for n in self.tensors if n.endswith("_w")]

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.grad = None

    def snapshot(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self.tensors.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for n, data in snap.items():
            self.tensors[n].data = data.copy()


def _conv_extents(length: int, convs: tuple[tuple[int, int], ...], axis_name: str) -> int:
    out = length
    for _, k in convs:
        out = out - k + 1
        if out < 1:
            raise DataError(
                f"kernel too large for {axis_name} axis: extent {length} shrinks to {out}"
            )
    return out


def init_network(arch: NetworkArch, m: int, lags: int, ctx_series: int, ctx_lags: int,
                 seed: int = 0) -> PolicyParameters:
    """Deterministic initialization: fan-in-scaled uniform for trunk layers,
    zeros for the two head layers (so the initial policy is the uniform
    portfolio at mid leverage)."""
    if m < 1 or lags < 1 or ctx_series < 1 or ctx_lags < 1:
        raise DataError("network input dimensions must be >= 1")
    asset_out = _conv_extents(lags, arch.asset_conv, "lag")
    ctx_out = _conv_extents(ctx_lags, arch.context_conv, "context lag")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tensors: dict[str, Tensor] = {}

    def uniform(name: str, shape: tuple[int, ...], fan_in: int) -> None:
        bound = 1.0 / np.sqrt(fan_in)
        tensors[name + "_w"] = Tensor(rng.uniform(-bound, bound, size=shape))
        tensors[name + "_b"] = Tensor(np.zeros(shape[0] if len(shape) == 3 else shape[-1]))

    c_in = 2 * m
    for i, (filters, k) in enumerate(arch.asset_conv):
        uniform(f"asset_conv{i}", (filters, c_in, k), c_in * k)
        c_in = filters
    c_ctx = ctx_series
    for i, (filters, k) in enumerate(arch.context_conv):
        uniform(f"ctx_conv{i}", (filters, c_ctx, k), c_ctx * k)
        c_ctx = filters
    feat = arch.asset_conv[-1][0] * asset_out + arch.context_conv[-1][0] * ctx_out
    for i, width in enumerate(arch.hidden):
        uniform(f"hidden{i}", (feat, width), feat)
        feat = width
    tensors["weights_head_w"] = Tensor(np.zeros((feat, m)))
    tensors["weights_head_b"] = Tensor(np.zeros(m))
    tensors["leverage_head_w"] = Tensor(np.zeros((feat, 1)))
    tensors["leverage_head_b"] = Tensor(np.zeros(1))
    return PolicyParameters(tensors, arch, m, lags, ctx_series, ctx_lags)


def forward_tape(tape: Tape, params: PolicyParameters,
                 obs: Observation) -> tuple[Tensor, Tensor]:
    """Differentiable forward pass; returns (weights (m,), leverage (1,)),
    or (weights (steps, m), leverage (steps, 1)) for a stack of observations."""
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
    x = Tensor(a.reshape(a.shape[:batch] + (2 * params.m, params.lags)))
    for i in range(len(params.arch.asset_conv)):
        x = ad.relu(tape, ad.conv1d(tape, x, t[f"asset_conv{i}_w"], t[f"asset_conv{i}_b"]))
    y = Tensor(c)
    for i in range(len(params.arch.context_conv)):
        y = ad.relu(tape, ad.conv1d(tape, y, t[f"ctx_conv{i}_w"], t[f"ctx_conv{i}_b"]))
    feat = ad.concat(tape, x, y, batch)
    for i in range(len(params.arch.hidden)):
        feat = ad.relu(tape, ad.dense(tape, feat, t[f"hidden{i}_w"], t[f"hidden{i}_b"]))
    weights = ad.softmax(tape, ad.dense(tape, feat, t["weights_head_w"], t["weights_head_b"]))
    lev = ad.scale(tape, ad.sigmoid(
        tape, ad.dense(tape, feat, t["leverage_head_w"], t["leverage_head_b"])),
        params.arch.max_leverage)
    return weights, lev


def forward(params: PolicyParameters, obs: Observation) -> Action:
    """Inference-only forward pass, for one observation or a stack."""
    weights, lev = forward_tape(Tape(), params, obs)
    leverage = lev.data[..., 0]
    return Action(weights.data.copy(), float(leverage) if leverage.ndim == 0 else leverage)


def l2_penalty(params: PolicyParameters) -> float:
    """l2_coeff times the squared norm of all weight tensors (biases excluded)."""
    total = sum(float((params.tensors[n].data ** 2).sum()) for n in params.weight_names())
    return params.arch.l2_coeff * total


def l2_penalty_tape(tape: Tape, params: PolicyParameters) -> Tensor:
    acc = None
    for name in params.weight_names():
        term = ad.sumsq(tape, params.tensors[name])
        acc = term if acc is None else ad.add(tape, acc, term)
    return ad.scale(tape, acc, params.arch.l2_coeff)


def save_params(params: PolicyParameters, path: str) -> None:
    header = params.arch.to_json(params.m, params.lags, params.ctx_series, params.ctx_lags)
    ad.save_tensors(path, params.tensors, header=header)


def load_params(path: str) -> PolicyParameters:
    """Load a checkpoint; fails loudly if tensor shapes and the stored
    architecture descriptor disagree."""
    tensors, header = ad.load_tensors(path)
    try:
        meta = json.loads(header)
        arch = NetworkArch(
            asset_conv=tuple(tuple(x) for x in meta["asset_conv"]),
            context_conv=tuple(tuple(x) for x in meta["context_conv"]),
            hidden=tuple(meta["hidden"]),
            max_leverage=meta["max_leverage"],
            l2_coeff=meta["l2_coeff"],
        )
        params = PolicyParameters(tensors, arch, meta["assets"], meta["lags"],
                                  meta["context_series"], meta["context_lags"])
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"bad checkpoint header ({type(exc).__name__}: {exc}): {path}") from None
    reference = init_network(arch, params.m, params.lags, params.ctx_series, params.ctx_lags)
    if set(reference.tensors) != set(tensors):
        raise DataError(f"checkpoint tensor names do not match architecture: {path}")
    for name, ref in reference.tensors.items():
        if ref.data.shape != tensors[name].data.shape:
            raise DataError(
                f"checkpoint tensor {name} has shape {tensors[name].data.shape}, "
                f"architecture requires {ref.data.shape}: {path}"
            )
    return params
