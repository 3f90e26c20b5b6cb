"""The convolution kernels return the bits of the tensordot reference
(oracles.conv1d_fwd and oracles.conv1d_bwd) on every shape and memory layout
the policy hands them."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from portalloc import _kernels


def in_output_layout(a: np.ndarray) -> np.ndarray:
    """a's values in the memory order of conv1d_fwd's output, which the policy
    keeps for each conv pre-activation z, its relu and its gradient gz:
    (channel, ..., length) contiguous, viewed as (..., channel, length)."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -2, 0)), 0, -2)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(batch=st.lists(st.integers(1, 4), max_size=2).map(tuple),
       c_in=st.integers(1, 4), c_out=st.integers(1, 5), kw=st.integers(1, 4),
       n_out=st.integers(1, 5), x_layout=st.booleans(), gy_layout=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(batch=(), c_in=3, c_out=2, kw=3, n_out=4, x_layout=False, gy_layout=False, seed=0)
@example(batch=(5,), c_in=3, c_out=2, kw=3, n_out=4, x_layout=True, gy_layout=True, seed=1)
@example(batch=(2, 3), c_in=3, c_out=2, kw=3, n_out=4, x_layout=True, gy_layout=False, seed=2)
@example(batch=(6,), c_in=4, c_out=3, kw=1, n_out=5, x_layout=False, gy_layout=True, seed=3)
@example(batch=(6,), c_in=4, c_out=3, kw=3, n_out=1, x_layout=False, gy_layout=True, seed=4)
@example(batch=(6,), c_in=1, c_out=3, kw=3, n_out=4, x_layout=False, gy_layout=True, seed=5)
@example(batch=(3,), c_in=2, c_out=400, kw=2, n_out=2, x_layout=True, gy_layout=True, seed=6)
def test_kernels_equal_the_tensordot_reference(batch, c_in, c_out, kw, n_out, x_layout, gy_layout,
                                               seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=batch + (c_in, n_out + kw - 1))
    k, b = rng.normal(size=(c_out, c_in, kw)), rng.normal(size=c_out)
    gy = rng.normal(size=batch + (c_out, n_out))
    if x_layout:
        x = in_output_layout(x)
    if gy_layout:
        gy = in_output_layout(gy)
    assert np.array_equal(_kernels.conv1d_fwd(x, k, b), oracles.conv1d_fwd(x, k, b))
    for input_grad in (False, True):
        got = _kernels.conv1d_bwd(x, k, gy, input_grad)
        want = oracles.conv1d_bwd(x, k, gy, input_grad)
        assert (got[0] is None) == (want[0] is None) == (not input_grad)
        for g, w in zip(got, want):
            assert g is w or np.array_equal(g, w)
