"""Valid (no-padding) 1-D cross-correlation passes in numpy.

Inputs may carry leading batch axes: x (..., c_in, L), k (c_out, c_in, kw),
gy (..., c_out, L_out) with L_out = L - kw + 1.

The forward pass and the kernel gradient are one np.dot each, with a column
matrix of every window of x filled by kw slice copies (one per tap): k as
(c_out, c_in*kw) times columns (c_in, kw, ..., L_out), and gy read as
(c_out, batch*L_out) times rows (..., L_out, c_in, kw). These are, value for
value and in memory order, the operands that np.tensordot of a sliding-window
view gathers and hands to np.dot, so the BLAS call and the bits are the same
(tests/oracles.py keeps that path as the reference). Where tensordot's
reshape would keep the window view instead of copying it, np.dot reads the
view's strides, so the kernels reshape that same view.

The input gradient is one np.matmul per tap over every step, added into the
tap's output slice in tap order. np.matmul copies the strided k[:, :, j].T
for every step's dgemm; a Fortran-ordered copy made once per tap gives the
same bits. For c_in = 1 or L_out = 1 numpy runs a strided tap through a plain
loop instead, so those shapes keep it strided.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _copied(x, kw):
    """Whether tensordot's reshape of x's window view surely copies it into C
    order: it does when the c_in and kw axes, both longer than 1, cannot
    merge."""
    return min(x.shape[-2], kw) > 1 and x.strides[-2] != kw * x.strides[-1]


def conv1d_fwd(x: np.ndarray, k: np.ndarray, b: np.ndarray) -> np.ndarray:
    c_out, c_in, kw = k.shape
    n_out = x.shape[-1] - kw + 1
    batch = x.shape[:-2]
    if _copied(x, kw):
        cols = np.empty((c_in, kw) + batch + (n_out,), dtype=x.dtype)
        for j in range(kw):
            cols[:, j] = np.moveaxis(x[..., j:j + n_out], -2, 0)
    else:
        windows = sliding_window_view(x, kw, axis=-1)  # (..., c_in, L_out, kw)
        cols = windows.transpose((-3, -1) + tuple(range(len(batch))) + (-2,))
    y = np.dot(k.reshape(c_out, -1), cols.reshape(c_in * kw, -1))
    return np.moveaxis(y.reshape((c_out,) + batch + (n_out,)), 0, -2) + b[:, None]


def conv1d_bwd(x, k, gy, input_grad: bool):
    """(gx, gk, gb); gx is None unless input_grad, because a constant input
    such as an observation needs none. gy read as (c_out, ..., L_out) is a
    view, not a copy, when gy has the memory order of conv1d_fwd's output."""
    c_out, c_in, kw = k.shape
    n_out = gy.shape[-1]
    batch = gy.shape[:-2]
    if _copied(x, kw):
        rows = np.empty(batch + (n_out, c_in, kw), dtype=x.dtype)
        for j in range(kw):
            rows[..., j] = np.swapaxes(x[..., j:j + n_out], -1, -2)
    else:
        rows = sliding_window_view(x, kw, axis=-1).swapaxes(-2, -3)
    g = np.moveaxis(gy, -2, 0).reshape(c_out, -1)
    gk = np.dot(g, rows.reshape(-1, c_in * kw)).reshape(c_out, c_in, kw)
    gb = gy.sum(axis=tuple(range(len(batch))) + (-1,))
    if not input_grad:
        return None, gk, gb
    taps = k.transpose(2, 0, 1)  # taps[j].T is k[:, :, j].T, Fortran-ordered once copied
    if min(c_in, n_out) > 1:
        taps = np.ascontiguousarray(taps)
    # batch axes innermost, so each tap's add runs over them in long strides
    gx = np.zeros((c_in, x.shape[-1]) + batch, dtype=x.dtype)
    for j in range(kw):
        gx[:, j:j + n_out] += np.moveaxis(np.matmul(taps[j].T, gy), (-2, -1), (0, 1))
    return np.moveaxis(gx, (0, 1), (-2, -1)), gk, gb
