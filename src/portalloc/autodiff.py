"""Reverse-mode gradient bookkeeping over float64 numpy tensors, and the
named-tensor checkpoint container.

A ``Tape`` holds backward closures in the order of the forward pass and
``backward`` runs them in reverse. The trainer's episodic objective records
one closure: the closed-form gradient of its reward and L2 penalty, which
hands the reward's gradient to the policy's own batched backward (the one
``policy.forward`` returns with its ``Action``). Closures add into
``Tensor.grad`` slots through ``accumulate``.
"""
from __future__ import annotations

import numpy as np

from .errors import DataError


class Tensor:
    """A value node: float64 ndarray plus a gradient slot of the same shape."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on non-scalar tensor of shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])


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
