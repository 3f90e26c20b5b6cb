"""Two-branch, two-head allocation policy.

The asset branch runs two 1-D convolutions (5 then 10 filters by default)
along the lag axis, treating the return/volatility channels of every asset
as input channels. The context branch runs one 1-D convolution (3 filters).
Both are flattened, concatenated, optionally passed through dense hidden
layers, and feed two heads: a softmax over asset weights and a sigmoid
leverage scalar scaled to [0, max_leverage].

The graph is fixed, so its backward is written by hand: one batched forward
keeps every layer's input and pre-activation and returns, with its Action, a
backward that walks the heads, the hidden layers and both convolution stacks
in reverse, adding into the parameters' grad slots.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels
from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError
from .features import Observation
from .market_data import MAX_ARRAY_SIZE


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
        def size(value) -> int:
            if isinstance(value, bool) or int(value) != value:
                raise DataError(f"network sizes must be integers, got {value!r}")
            return int(value)

        object.__setattr__(self, "asset_conv", tuple((size(f), size(k)) for f, k in self.asset_conv))
        object.__setattr__(self, "context_conv", tuple((size(f), size(k)) for f, k in self.context_conv))
        object.__setattr__(self, "hidden", tuple(size(h) for h in self.hidden))
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
    (steps, assets) and a leverage array (steps,). An Action made by forward
    also carries the network's backward for the observations it decided.
    """

    weights: np.ndarray
    leverage: float | np.ndarray
    backward: Callable[[np.ndarray, np.ndarray], None] | None = field(
        default=None, repr=False, compare=False)

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


def _conv_extents(length: int, convs: tuple[tuple[int, int], ...], axis_name: str) -> int:
    out = length
    for _, k in convs:
        out = out - k + 1
        if out < 1:
            raise DataError(
                f"kernel too large for {axis_name} axis: extent {length} shrinks to {out}"
            )
    return out


def _network_shapes(arch: NetworkArch, m: int, lags: int, ctx_series: int,
                    ctx_lags: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every network tensor, in initialization order, checked
    before anything is allocated: input dimensions are integers >= 1, every
    kernel fits its axis and every float64 tensor fits in a numpy array."""
    dims = (m, lags, ctx_series, ctx_lags)
    if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1
               for d in dims):
        raise DataError(f"network input dimensions must be integers >= 1, got {list(dims)}")
    asset_out = _conv_extents(lags, arch.asset_conv, "lag")
    ctx_out = _conv_extents(ctx_lags, arch.context_conv, "context lag")
    shapes: dict[str, tuple[int, ...]] = {}
    for prefix, c_in, convs in (("asset_conv", 2 * m, arch.asset_conv),
                                ("ctx_conv", ctx_series, arch.context_conv)):
        for i, (filters, k) in enumerate(convs):
            shapes[f"{prefix}{i}_w"], shapes[f"{prefix}{i}_b"] = (filters, c_in, k), (filters,)
            c_in = filters
    feat = arch.asset_conv[-1][0] * asset_out + arch.context_conv[-1][0] * ctx_out
    for i, width in enumerate(arch.hidden):
        shapes[f"hidden{i}_w"], shapes[f"hidden{i}_b"] = (feat, width), (width,)
        feat = width
    for head, width in (("weights_head", m), ("leverage_head", 1)):
        shapes[f"{head}_w"], shapes[f"{head}_b"] = (feat, width), (width,)
    for name, shape in shapes.items():
        if math.prod(shape) * 8 > MAX_ARRAY_SIZE:
            raise DataError(f"tensor {name} of shape {shape} exceeds numpy's maximum "
                            f"array size of {MAX_ARRAY_SIZE} bytes")
    return shapes


def init_network(arch: NetworkArch, m: int, lags: int, ctx_series: int, ctx_lags: int,
                 seed: int = 0) -> PolicyParameters:
    """Deterministic initialization: fan-in-scaled uniform for trunk layers,
    zeros for biases and the two head layers (so the initial policy is the
    uniform portfolio at mid leverage)."""
    shapes = _network_shapes(arch, m, lags, ctx_series, ctx_lags)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tensors: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        if name.endswith("_b") or "_head_" in name:
            tensors[name] = Tensor(np.zeros(shape))
        else:
            # a conv kernel (filters, c_in, k) or a dense matrix (fan_in, width)
            bound = 1.0 / np.sqrt(shape[1] * shape[2] if len(shape) == 3 else shape[0])
            tensors[name] = Tensor(rng.uniform(-bound, bound, size=shape))
    return PolicyParameters(tensors, arch, m, lags, ctx_series, ctx_lags)


def forward(params: PolicyParameters, obs: Observation) -> Action:
    """The network over one observation or a stack of them (leading axes):
    weights (..., m) and leverage (a float, or an array over the leading
    axes). The Action's backward(g_weights, g_leverage) takes a scalar's
    gradient with respect to a stack's two outputs and adds the network's
    share of it to every parameter's grad slot; it reads the parameters when
    it runs, so it must run before they change. One pass thus serves both
    inference and training."""
    a = obs.asset_tensor
    if a.shape[-2] != params.m or a.shape[-1] != params.lags:
        raise DataError(f"asset tensor shape {a.shape[-3:]} does not match network "
                        f"(2, {params.m}, {params.lags})")
    c = obs.context_matrix
    if c.shape[-2:] != (params.ctx_series, params.ctx_lags):
        raise DataError(f"context matrix shape {c.shape[-2:]} does not match network "
                        f"({params.ctx_series}, {params.ctx_lags})")
    t = params.tensors
    batch = a.shape[:a.ndim - 3]
    convs = (len(params.arch.asset_conv), len(params.arch.context_conv))
    trunk = []  # (name, input, pre-activation) of every relu layer, in order

    def relu_layers(x, prefix, count):
        for i in range(count):
            name = f"{prefix}{i}"
            w, b = t[name + "_w"].data, t[name + "_b"].data
            z = x @ w + b if prefix == "hidden" else _kernels.conv1d_fwd(x, w, b)
            trunk.append((name, x, z))
            x = np.maximum(z, 0.0)
        return x

    x = relu_layers(a.reshape(batch + (2 * params.m, params.lags)), "asset_conv", convs[0])
    y = relu_layers(c, "ctx_conv", convs[1])
    feat = np.concatenate([x.reshape(batch + (-1,)), y.reshape(batch + (-1,))], axis=-1)
    feat = relu_layers(feat, "hidden", len(params.arch.hidden))
    z = feat @ t["weights_head_w"].data + t["weights_head_b"].data
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    z = feat @ t["leverage_head_w"].data + t["leverage_head_b"].data
    e = np.exp(-np.abs(z))  # a sigmoid that exponentiates no positive number
    gate = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    max_lev = params.arch.max_leverage

    def dense(name, x, g):
        w = t[name + "_w"]
        n, o = w.data.shape
        ad.accumulate(w, x.reshape(-1, n).T @ g.reshape(-1, o))
        ad.accumulate(t[name + "_b"], g.reshape(-1, o).sum(axis=0))
        return np.matmul(g, w.data.T)

    def conv_stack(layers, g):
        for i in range(len(layers) - 1, -1, -1):
            name, x, z = layers[i]
            # in z's memory layout, which conv1d_bwd's bias sum depends on and
            # which lets it read gz as (c_out, ..., L_out) without a copy
            gz = np.multiply(g, z > 0.0, out=np.empty_like(z))
            g, gk, gb = _kernels.conv1d_bwd(x, t[name + "_w"].data, gz, i > 0)
            ad.accumulate(t[name + "_w"], gk)
            ad.accumulate(t[name + "_b"], gb)

    def backward(g_weights: np.ndarray, g_leverage: np.ndarray) -> None:
        g = dense("leverage_head", feat, g_leverage[..., None] * max_lev * gate * (1.0 - gate))
        g = g + dense("weights_head", feat, weights * (
            g_weights - np.einsum("...i,...i->...", g_weights, weights)[..., None]))
        for name, x, z in reversed(trunk[sum(convs):]):
            g = dense(name, x, g * (z > 0.0))
        asset, context = trunk[:convs[0]], trunk[convs[0]:sum(convs)]
        split = math.prod(asset[-1][2].shape[-2:])
        conv_stack(context, g[..., split:].reshape(context[-1][2].shape))
        conv_stack(asset, g[..., :split].reshape(asset[-1][2].shape))

    leverage = (gate * max_lev)[..., 0]
    return Action(weights, float(leverage) if leverage.ndim == 0 else leverage, backward)


def l2_penalty(params: PolicyParameters) -> float:
    """l2_coeff times the squared norm of all weight tensors (biases excluded)."""
    total = sum(float((params.tensors[n].data ** 2).sum()) for n in params.weight_names())
    return params.arch.l2_coeff * total


def save_params(params: PolicyParameters, path: str) -> None:
    header = params.arch.to_json(params.m, params.lags, params.ctx_series, params.ctx_lags)
    ad.save_tensors(path, params.tensors, header=header)


def load_params(path: str) -> PolicyParameters:
    """Load a checkpoint; fails loudly if the stored architecture descriptor
    is malformed or the tensor names and shapes disagree with it."""
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
        dims = (meta["assets"], meta["lags"], meta["context_series"], meta["context_lags"])
        shapes = _network_shapes(arch, *dims)
    except (ValueError, KeyError, TypeError, OverflowError, DataError) as exc:
        raise DataError(f"bad checkpoint header ({type(exc).__name__}: {exc}): {path}") from None
    if set(shapes) != set(tensors):
        raise DataError(f"checkpoint tensor names do not match architecture: {path}")
    for name, shape in shapes.items():
        if tensors[name].data.shape != shape:
            raise DataError(
                f"checkpoint tensor {name} has shape {tensors[name].data.shape}, "
                f"architecture requires {shape}: {path}"
            )
    return PolicyParameters(tensors, arch, *dims)
