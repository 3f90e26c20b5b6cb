"""Reverse-mode gradient bookkeeping over float64 numpy tensors.

A ``Tape`` holds backward closures in the order of the forward pass and
``backward`` runs them in reverse. The trainer's episodic objective records
one closure: the closed-form gradient of its reward and L2 penalty, which
hands the reward's gradient to the policy's own batched backward (the one
``policy.forward`` returns with its ``Action``) and writes the gradients it
returns into the parameters' ``Tensor.grad`` slots.
"""
from __future__ import annotations

import numpy as np


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
    """Seed d(out)/d(out) = 1 and run the tape's closures in reverse; they
    fill the grad slots of the tensors they reach."""
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
