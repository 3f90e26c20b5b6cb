"""Valid (no-padding) 1-D cross-correlation passes in numpy.

Inputs may carry leading batch axes: x (..., c_in, L), gy (..., c_out, L_out).
"""
from __future__ import annotations

import numpy as np


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
