"""Minimal tape-based reverse-mode automatic differentiation over dense
numpy tensors: just the layers of the policy network. All data is float64;
convolutions are valid (no padding), stride 1, cross-correlation
orientation. The primitives accept leading batch axes, so one taped pass
covers a whole stack of observations. A caller with a closed-form gradient
(the trainer's episodic objective) records its own backward closure with
``Tape.record`` and feeds the network's outputs through ``accumulate``.
"""
from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import DataError


class Tensor:
    """A value node: float64 ndarray plus a gradient slot of the same shape."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on non-scalar tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def accumulate(t: Tensor, g) -> None:
    """Add g to t's gradient slot, allocating it at zero on first use."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    if np.shape(g) != t.grad.shape:
        # mixing () and (1,) scalars is fine; anything else is a bug upstream
        g = np.sum(g) if t.grad.shape == () else np.reshape(g, t.grad.shape)
    t.grad += g


class Tape:
    """Ordered record of primitive operations for one forward pass.

    Supports exactly one backward traversal; reuse raises.
    """

    def __init__(self):
        self._records: list = []
        self._consumed = False

    def record(self, backward_fn) -> None:
        self._records.append(backward_fn)

    def __len__(self) -> int:
        return len(self._records)


def backward(tape: Tape, out: Tensor) -> None:
    """Seed d(out)/d(out) = 1 and propagate through the tape in reverse,
    accumulating into every reached tensor's grad slot."""
    if out.data.size != 1:
        raise ValueError(f"backward requires a scalar output, got shape {out.data.shape}")
    if tape._consumed:
        raise ValueError("backward already ran for this tape")
    if not tape._records:
        raise ValueError("backward before forward: tape has no recorded operations")
    tape._consumed = True
    out.grad = np.ones_like(out.data)
    for fn in reversed(tape._records):
        fn()


# ---------------------------------------------------------------------------
# primitives
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


# ---------------------------------------------------------------------------
# named-tensor checkpoint container
# ---------------------------------------------------------------------------

_MAGIC = "portalloc-tensors v1"


def save_tensors(path: str, tensors: dict[str, Tensor], header: str = "") -> None:
    """Write named tensors to a deterministic text container.

    Layout: magic line; one JSON header line (caller-defined metadata);
    per tensor a ``tensor <name> <ndim> <dims...>`` line followed by one
    line of space-separated repr floats; closing ``end`` line.
    """
    from .market_data import atomic_write_text

    lines = [_MAGIC, header if header else "{}"]
    for name in sorted(tensors):
        data = tensors[name].data
        dims = " ".join(str(d) for d in data.shape)
        lines.append(f"tensor {name} {data.ndim} {dims}".rstrip())
        lines.append(" ".join(repr(float(v)) for v in data.reshape(-1)))
    lines.append("end")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_tensors(path: str) -> tuple[dict[str, Tensor], str]:
    """Read a checkpoint container; returns (tensors, header line)."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"tensor container is not text ({exc.reason} at byte {exc.start}): "
                        f"{path}") from None
    if not lines or lines[0] != _MAGIC:
        raise DataError(f"not a tensor container (bad magic): {path}")
    header = lines[1] if len(lines) > 1 else ""
    tensors: dict[str, Tensor] = {}
    i = 2
    while i < len(lines) and lines[i] != "end":
        parts = lines[i].split()
        if len(parts) < 3 or parts[0] != "tensor":
            raise DataError(f"corrupt tensor container at line {i + 1}: {path}")
        name = parts[1]
        if i + 1 >= len(lines):
            raise DataError(f"tensor {name} has no value line: {path}")
        try:
            ndim = int(parts[2])
            shape = tuple(int(d) for d in parts[3:])
            values = np.array(lines[i + 1].split(), dtype=float)
        except ValueError as exc:
            raise DataError(f"corrupt tensor {name} at line {i + 1} ({exc}): {path}") from None
        if len(shape) != ndim or min(shape, default=0) < 0:
            raise DataError(f"tensor {name} needs {ndim} non-negative dimensions, lists "
                            f"{list(shape)}: {path}")
        expected = int(np.prod(shape)) if shape else 1
        if values.size != expected:
            raise DataError(f"tensor {name} has {values.size} values, shape {shape}: {path}")
        if not np.all(np.isfinite(values)):
            raise DataError(f"tensor {name} has non-finite values: {path}")
        tensors[name] = Tensor(values.reshape(shape))
        i += 2
    if i >= len(lines):
        raise DataError(f"truncated tensor container (no end line): {path}")
    return tensors, header
