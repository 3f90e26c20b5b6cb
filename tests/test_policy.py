import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import forward_tape
from portalloc.autodiff import Tape
from portalloc.errors import DataError
from portalloc.features import Observation
from portalloc.policy import (Action, NetworkArch, forward, init_network, l2_penalty,
                              load_params, save_params)

ARCH = NetworkArch()


def make_obs(rng, m=2, lags=7, ctx_series=3, ctx_lags=7, scale=0.02):
    asset = scale * rng.standard_normal((2, m, lags))
    asset[1] = np.abs(asset[1])
    return Observation(asset, scale * rng.standard_normal((ctx_series, ctx_lags)),
                       np.datetime64("2020-06-01"))


class TestInit:
    def test_deterministic(self):
        a = init_network(ARCH, 2, 7, 3, 7, seed=9)
        b = init_network(ARCH, 2, 7, 3, 7, seed=9)
        assert set(a.tensors) == set(b.tensors)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name].data, b.tensors[name].data)

    def test_seed_changes_trunk(self):
        a = init_network(ARCH, 2, 7, 3, 7, seed=1)
        b = init_network(ARCH, 2, 7, 3, 7, seed=2)
        assert not np.array_equal(a.tensors["asset_conv0_w"].data,
                                  b.tensors["asset_conv0_w"].data)

    def test_valid_lag_shrinkage(self):
        # 7 lags through two kernel-3 convolutions: 7 -> 5 -> 3
        params = init_network(ARCH, 3, 7, 3, 7, seed=0)
        assert params.tensors["asset_conv1_w"].data.shape == (10, 5, 3)
        assert params.tensors["weights_head_w"].data.shape == (10 * 3 + 3 * 5, 3)

    def test_kernel_too_large_rejected(self):
        arch = NetworkArch(asset_conv=((5, 5), (10, 4)))
        with pytest.raises(DataError, match="kernel too large"):
            init_network(arch, 2, 7, 3, 7, seed=0)


class TestForward:
    def test_zero_heads_give_uniform_and_mid_leverage(self, rng):
        for m in (2, 4):
            params = init_network(ARCH, m, 7, 3, 7, seed=3)
            action = forward(params, make_obs(rng, m=m))
            np.testing.assert_allclose(action.weights, np.full(m, 1.0 / m), atol=1e-12)
            np.testing.assert_allclose(action.leverage, 1.5, atol=1e-12)

    def test_action_invariants_for_random_params(self, rng):
        params = init_network(ARCH, 3, 7, 3, 7, seed=5)
        for name, t in params.tensors.items():
            t.data = t.data + rng.normal(scale=0.5, size=t.data.shape)
        for _ in range(25):
            action = forward(params, make_obs(rng, m=3, scale=1.0))
            assert isinstance(action, Action)
            np.testing.assert_allclose(action.weights.sum(), 1.0, atol=1e-8)
            assert np.all(action.weights > 0)
            assert 0.0 <= action.leverage <= ARCH.max_leverage

    @pytest.mark.parametrize("weights, leverage", [
        ([np.nan, 0.5], 1.0), ([0.5, 0.5], np.nan), ([np.nan, np.nan], np.nan),
    ])
    def test_action_rejects_nan(self, weights, leverage):
        with pytest.raises(DataError):
            Action(np.array(weights), leverage)

    def test_deterministic_inference(self, rng):
        params = init_network(ARCH, 2, 7, 3, 7, seed=7)
        obs = make_obs(rng)
        a = forward(params, obs)
        b = forward(params, obs)
        assert np.array_equal(a.weights, b.weights) and a.leverage == b.leverage

    def test_shape_mismatch_rejected(self, rng):
        params = init_network(ARCH, 2, 7, 3, 7, seed=0)
        with pytest.raises(DataError, match="asset tensor shape"):
            forward(params, make_obs(rng, m=3))

    def test_unused_lag_perturbation_is_ignored(self, rng):
        # the observation only carries the configured lags, so feature
        # selection happens upstream; equal observations => equal actions
        params = init_network(ARCH, 2, 7, 3, 7, seed=1)
        for t in params.tensors.values():
            t.data = t.data + rng.normal(scale=0.3, size=t.data.shape)
        obs = make_obs(rng)
        twin = Observation(obs.asset_tensor.copy(), obs.context_matrix.copy(),
                           obs.timestamp)
        a, b = forward(params, obs), forward(params, twin)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.leverage == b.leverage

    def test_stacked_observations_match_one_at_a_time(self, rng):
        params = init_network(ARCH, 3, 7, 3, 7, seed=4)
        for t in params.tensors.values():
            t.data = t.data + rng.normal(scale=0.5, size=t.data.shape)
        singles = [make_obs(rng, m=3, scale=1.0) for _ in range(6)]
        stack = Observation(np.stack([o.asset_tensor for o in singles]),
                            np.stack([o.context_matrix for o in singles]),
                            np.array([o.timestamp for o in singles]))
        batched = forward(params, stack)
        assert batched.weights.shape == (6, 3) and batched.leverage.shape == (6,)
        for i, obs in enumerate(singles):
            one = forward(params, obs)
            np.testing.assert_allclose(batched.weights[i], one.weights, rtol=1e-14, atol=0)
            np.testing.assert_allclose(batched.leverage[i], one.leverage, rtol=1e-14, atol=0)

    def test_tape_forward_matches_inference(self, rng, arch=ARCH):
        params = init_network(arch, 2, 7, 3, 7, seed=2)
        for t in params.tensors.values():
            t.data = t.data + rng.normal(scale=0.2, size=t.data.shape)
        obs = make_obs(rng)
        weights, lev = forward_tape(Tape(), params, obs)
        action = forward(params, obs)
        np.testing.assert_array_equal(weights.data, action.weights)
        assert float(lev.data[0]) == action.leverage

    @pytest.mark.parametrize("arch", [
        NetworkArch(asset_conv=((4, 2), (3, 2)), context_conv=((3, 2), (2, 1)), hidden=(4, 3)),
        NetworkArch(hidden=(1,)),
    ], ids=["two-layer-convs-two-hidden", "one-hidden-unit"])
    def test_tape_forward_matches_inference_through_deep_networks(self, rng, arch):
        self.test_tape_forward_matches_inference(rng, arch)


class TestL2Penalty:
    def test_zero_parameters(self):
        params = init_network(ARCH, 2, 7, 3, 7, seed=0)
        for t in params.tensors.values():
            t.data = np.zeros_like(t.data)
        assert l2_penalty(params) == 0.0

    def test_single_tensor_value(self):
        params = init_network(ARCH, 2, 7, 3, 7, seed=0)
        for t in params.tensors.values():
            t.data = np.zeros_like(t.data)
        params.tensors["weights_head_w"].data.flat[0] = 1.0
        params.tensors["weights_head_w"].data.flat[1] = 2.0
        np.testing.assert_allclose(l2_penalty(params), 1e-8 * 5.0, rtol=1e-12)

    def test_biases_excluded(self):
        params = init_network(ARCH, 2, 7, 3, 7, seed=0)
        for t in params.tensors.values():
            t.data = np.zeros_like(t.data)
        params.tensors["weights_head_b"].data[:] = 10.0
        assert l2_penalty(params) == 0.0

    def test_quadratic_homogeneity(self, rng):
        params = init_network(ARCH, 2, 7, 3, 7, seed=4)
        base = l2_penalty(params)
        for name in params.weight_names():
            params.tensors[name].data *= 2.0
        np.testing.assert_allclose(l2_penalty(params), 4.0 * base, rtol=1e-12)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        params = init_network(ARCH, 2, 7, 3, 7, seed=11)
        for t in params.tensors.values():
            t.data = t.data + rng.normal(scale=0.1, size=t.data.shape)
        path = str(tmp_path / "ckpt.txt")
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.arch == params.arch
        assert (loaded.m, loaded.lags, loaded.ctx_series, loaded.ctx_lags) == (2, 7, 3, 7)
        for name in params.tensors:
            assert np.array_equal(loaded.tensors[name].data, params.tensors[name].data)
        obs = make_obs(rng)
        a, b = forward(params, obs), forward(loaded, obs)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_shape_mismatch_fails_loudly(self, tmp_path):
        params = init_network(ARCH, 2, 7, 3, 7, seed=0)
        path = str(tmp_path / "ckpt.txt")
        save_params(params, path)
        text = open(path).read().replace('"assets":2', '"assets":3')
        (tmp_path / "bad.txt").write_text(text)
        with pytest.raises(DataError, match="checkpoint tensor"):
            load_params(str(tmp_path / "bad.txt"))

    @pytest.mark.parametrize("old, new", [
        ('"hidden":[1]', '"hidden":[1.7]'),
        ('"hidden":[1]', '"hidden":[true]'),
        ('"asset_conv":[[5,3]', '"asset_conv":[[5.5,3]'),
        ('"context_conv":[[3,3]]', '"context_conv":[[3,3.2]]'),
    ], ids=["hidden", "boolean", "filter", "kernel"])
    def test_non_integral_sizes_rejected(self, tmp_path, old, new):
        # each size truncates to the stored one, so only the header check can fail
        path = tmp_path / "ckpt.txt"
        save_params(init_network(NetworkArch(hidden=(1,)), 2, 7, 3, 7, seed=0), str(path))
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(DataError, match="network sizes must be integers"):
            load_params(str(path))


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def networks(draw):
    """A small random architecture with random finite parameter bits."""
    conv = st.tuples(st.integers(1, 4), st.integers(1, 3))
    arch = NetworkArch(asset_conv=tuple(draw(st.lists(conv, min_size=1, max_size=2))),
                       context_conv=tuple(draw(st.lists(conv, min_size=1, max_size=2))),
                       hidden=tuple(draw(st.lists(st.integers(1, 4), max_size=2))),
                       max_leverage=draw(st.floats(1e-3, 10.0)),
                       l2_coeff=draw(st.floats(0.0, 1.0)))
    m, ctx_series = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    params = init_network(arch, m, 6, ctx_series, 6, seed=0)
    values = st.floats(allow_nan=False, allow_infinity=False)
    for t in params.tensors.values():
        t.data = np.array(draw(st.lists(values, min_size=t.data.size, max_size=t.data.size)),
                          dtype=np.float64).reshape(t.data.shape)
    return params


class TestCheckpointProperties:
    @PROPERTY
    @given(params=networks())
    def test_round_trip_keeps_bits_and_header(self, tmp_path_factory, params):
        path = str(tmp_path_factory.mktemp("ckpt") / "ckpt.txt")
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.arch == params.arch
        dims = (params.m, params.lags, params.ctx_series, params.ctx_lags)
        assert (loaded.m, loaded.lags, loaded.ctx_series, loaded.ctx_lags) == dims
        assert set(loaded.tensors) == set(params.tensors)
        for name, t in params.tensors.items():
            assert loaded.tensors[name].data.shape == t.data.shape
            assert np.array_equal(loaded.tensors[name].data.view(np.uint64),
                                  t.data.view(np.uint64)), name
        again = path + ".again"
        save_params(loaded, again)
        assert open(again, "rb").read() == open(path, "rb").read()

    @PROPERTY
    @given(data=st.data())
    def test_single_byte_replacement_is_rejected_or_loads_a_valid_network(
            self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.txt"
        save_params(init_network(NetworkArch(hidden=(3,)), 2, 7, 3, 7, seed=4), str(path))
        text = path.read_bytes()
        # the magic and header lines are short, so half the draws land there
        header_end = text.index(b"\ntensor ")
        at = data.draw(st.one_of(st.integers(0, header_end), st.integers(0, len(text) - 1)))
        byte = data.draw(st.one_of(st.sampled_from(b'0123456789.-+e, :[]{}"\n\r'),
                                   st.integers(0, 255)))
        path.write_bytes(text[:at] + bytes([byte]) + text[at + 1:])
        try:
            loaded = load_params(str(path))
        except DataError:
            return
        reference = init_network(loaded.arch, loaded.m, loaded.lags, loaded.ctx_series,
                                 loaded.ctx_lags)
        assert set(loaded.tensors) == set(reference.tensors)
        for name, t in reference.tensors.items():
            assert loaded.tensors[name].data.shape == t.data.shape
            assert np.all(np.isfinite(loaded.tensors[name].data))
