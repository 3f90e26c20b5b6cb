import numpy as np
import pytest

import oracles
from conftest import make_price_frame
from oracles import build_observation
from portalloc import _kernels, trainer
from portalloc import autodiff as ad
from portalloc.autodiff import Tape
from portalloc.errors import DataError, NumericError
from portalloc.features import LagSet, build_context_series
from portalloc.market_data import compute_returns, rolling_volatility
from portalloc.policy import NetworkArch, init_network
from portalloc.trainer import (TrainConfig, adam_step, buffer_objective,
                               episode_objective, init_adam, make_window,
                               run_episode, train, training_log_csv)

SMALL_ARCH = NetworkArch(asset_conv=((5, 2), (10, 2)), context_conv=((3, 3),))
SMALL_LAGS = LagSet((0, 1, 2))
# two-layer convolutions on both branches and two hidden layers; one hidden unit
DEEP_ARCHS = (NetworkArch(asset_conv=((4, 2), (3, 2)), context_conv=((3, 2), (2, 1)),
                          hidden=(4, 3)),
              NetworkArch(asset_conv=((5, 2), (10, 2)), context_conv=((3, 3),), hidden=(1,)))
DEEP_IDS = ["two-layer-convs-two-hidden", "one-hidden-unit"]


def window_from_returns(returns, vol_window=3, lags=SMALL_LAGS, t_start=None, t_end=None):
    returns = np.asarray(returns, dtype=float)
    prices = 100.0 * np.cumprod(np.vstack([np.ones(returns.shape[1]), 1 + returns]), axis=0)
    rf = compute_returns(make_price_frame(prices))
    vf = rolling_volatility(rf, vol_window)
    ctx = build_context_series(rf, vf)
    lo = vol_window - 1 + lags.max_lag
    t_start = lo if t_start is None else t_start
    t_end = len(rf.dates) - 1 if t_end is None else t_end
    return make_window(rf, vf, ctx, lags, lags, t_start, t_end)


def perturbed_params(window, seed=0, scale=0.3, arch=SMALL_ARCH):
    obs = window.observations[0]
    params = init_network(arch, obs.asset_tensor.shape[1], obs.asset_tensor.shape[2],
                          obs.context_matrix.shape[0], obs.context_matrix.shape[1],
                          seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for t in params.tensors.values():
        t.data = t.data + rng.normal(scale=scale, size=t.data.shape)
    return params


def force_unit_leverage(params):
    params.tensors["leverage_head_w"].data[:] = 0.0
    # sigmoid(-ln 2) = 1/3, scaled by max_leverage 3 gives leverage 1
    params.tensors["leverage_head_b"].data[:] = -np.log(2.0)


class TestRunEpisode:
    def test_all_randomness_off_is_deterministic(self, rng):
        window = window_from_returns(0.01 * rng.standard_normal((40, 2)))
        params = perturbed_params(window)
        a = run_episode(params, window, 0.0, 1.0, np.random.default_rng(1))
        b = run_episode(params, window, 0.0, 1.0, np.random.default_rng(2))
        assert a.terminal_reward == b.terminal_reward
        assert np.array_equal(a.actions.weights, b.actions.weights)

    def test_zero_returns_zero_reward(self):
        window = window_from_returns(np.zeros((30, 2)))
        params = perturbed_params(window)
        buf = run_episode(params, window, 0.0, 1.0, np.random.default_rng(0))
        assert buf.terminal_reward == 0.0

    def test_single_asset_unit_leverage_compounds(self):
        # window arranged so exactly two steps remain, each with +1% returns
        returns = np.full((12, 1), 0.01)
        window = window_from_returns(returns, t_start=9, t_end=11)
        assert len(window) == 2
        params = perturbed_params(window)
        force_unit_leverage(params)
        buf = run_episode(params, window, 0.0, 1.0, np.random.default_rng(0))
        np.testing.assert_allclose(buf.terminal_reward, 1.01 ** 2 - 1.0, atol=1e-12)

    def test_noise_never_touches_realized_returns(self, rng):
        # zero-initialized heads give a constant policy, so noisy observations
        # change nothing about the reward path
        window = window_from_returns(0.01 * rng.standard_normal((40, 2)))
        obs = window.observations[0]
        params = init_network(SMALL_ARCH, 2, 3, obs.context_matrix.shape[0], 3, seed=0)
        clean = run_episode(params, window, 0.0, 1.0, np.random.default_rng(5))
        noisy = run_episode(params, window, 0.05, 1.0, np.random.default_rng(5))
        assert clean.terminal_reward == noisy.terminal_reward
        assert not np.array_equal(noisy.obs[1].asset_tensor, clean.obs[1].asset_tensor)

    def test_random_action_steps_marked(self, rng):
        window = window_from_returns(0.01 * rng.standard_normal((60, 2)))
        params = perturbed_params(window)
        buf = run_episode(params, window, 0.0, 0.5, np.random.default_rng(3))
        assert buf.is_policy.any() and not buf.is_policy.all()


class TestEpisodeObjective:
    def test_zero_returns_gives_minus_l2(self, rng):
        window = window_from_returns(np.zeros((30, 2)))
        params = perturbed_params(window)
        from portalloc.policy import l2_penalty

        value = episode_objective(params, window).item()
        np.testing.assert_allclose(value, -l2_penalty(params), atol=1e-15)

    def test_gradient_matches_finite_differences(self, rng):
        window = window_from_returns(0.02 * rng.standard_normal((24, 2)), t_start=5, t_end=13)
        assert len(window) == 8
        params = perturbed_params(window, scale=0.4)
        names = sorted(params.tensors)
        shapes = {n: params.tensors[n].data.shape for n in names}

        def set_flat(flat):
            i = 0
            for n in names:
                size = int(np.prod(shapes[n])) if shapes[n] else 1
                params.tensors[n].data = flat[i:i + size].reshape(shapes[n]).copy()
                i += size

        def get_flat():
            return np.concatenate([params.tensors[n].data.reshape(-1) for n in names])

        def objective(flat):
            set_flat(flat)
            return episode_objective(params, window).item()

        x0 = get_flat()
        set_flat(x0)
        params.zero_grads()
        tape = Tape()
        out = episode_objective(params, window, tape)
        ad.backward(tape, out)
        got = np.concatenate([
            (params.tensors[n].grad if params.tensors[n].grad is not None
             else np.zeros(shapes[n])).reshape(-1)
            for n in names
        ])
        want = oracles.central_difference(objective, x0, h=1e-5)
        errs = oracles.relative_errors(got, want, floor=1e-7)
        assert errs.max() < 1e-4, errs.max()

    def test_positive_returns_reward_higher_leverage(self):
        window = window_from_returns(np.full((30, 2), 0.005))
        params = perturbed_params(window)
        base = episode_objective(params, window).item()
        params.tensors["leverage_head_b"].data[:] += 0.5
        boosted = episode_objective(params, window).item()
        assert boosted > base

    def test_random_steps_excluded_from_gradient(self, rng):
        window = window_from_returns(0.01 * rng.standard_normal((40, 2)))
        params = perturbed_params(window)
        buf = run_episode(params, window, 0.0, 0.0, np.random.default_rng(0))
        assert not buf.is_policy.any()
        params.zero_grads()
        tape = Tape()
        out = buffer_objective(tape, params, buf)
        ad.backward(tape, out)
        # only the L2 term contributes gradient
        for name in params.weight_names():
            grad = params.tensors[name].grad
            expect = 2.0 * params.arch.l2_coeff * params.tensors[name].data
            np.testing.assert_allclose(-grad, expect, atol=1e-18)


def objective_and_grads(objective, params, buffer):
    params.zero_grads()
    tape = Tape()
    out = objective(tape, params, buffer)
    ad.backward(tape, out)
    return out.item(), {n: np.zeros_like(t.data) if t.grad is None else t.grad
                        for n, t in params.tensors.items()}


class TestBatchedEpisode:
    @pytest.mark.parametrize("policy_prob", [1.0, 0.5, 0.0])
    def test_matches_sequential_reference(self, rng, policy_prob):
        window = window_from_returns(0.02 * rng.standard_normal((30, 2)))
        params = perturbed_params(window, scale=0.4)
        buf = run_episode(params, window, 0.01, policy_prob, np.random.default_rng(7))
        if policy_prob == 0.5:
            assert buf.is_policy.any() and not buf.is_policy.all()
        value, got = objective_and_grads(buffer_objective, params, buf)
        ref, want = objective_and_grads(oracles.sequential_buffer_objective, params, buf)
        assert abs(value - ref) <= 1e-12 * abs(ref)
        for name in want:
            errs = oracles.relative_errors(got[name], want[name], floor=1e-300)
            assert errs.max() <= 1e-12, (name, errs.max())

    def test_step_at_minus_100_percent_keeps_gradient_finite(self):
        # at leverage 2 a -50% return loses everything: that step's factor is
        # exactly 0, the reward -1, and the gradient flows through the others
        returns = np.full((14, 1), 0.01)
        returns[11] = -0.5
        window = window_from_returns(returns, t_start=9, t_end=12)
        params = perturbed_params(window)
        params.tensors["leverage_head_w"].data[:] = 0.0
        # sigmoid(ln 2) = 2/3, scaled by max_leverage 3 gives leverage 2
        params.tensors["leverage_head_b"].data[:] = np.log(2.0)
        buf = run_episode(params, window, 0.0, 1.0, np.random.default_rng(0))
        assert buf.terminal_reward == -1.0
        value, got = objective_and_grads(buffer_objective, params, buf)
        ref, want = objective_and_grads(oracles.sequential_buffer_objective, params, buf)
        assert value == ref
        for name in want:
            assert np.all(np.isfinite(got[name]))
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-300)

    # numpy's sum is pairwise from 8 terms, so m of 8 and more tells a
    # sequential Dirichlet normaliser from a pairwise one
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 24])
    @pytest.mark.parametrize("policy_prob", [1.0, 0.5, 0.0])
    @pytest.mark.parametrize("noise_std", [0.0, 0.002])
    def test_rng_stream_matches_documented_draws(self, rng, policy_prob, noise_std, m):
        window = window_from_returns(0.01 * rng.standard_normal((30, m)))
        params = perturbed_params(window)
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        buf = run_episode(params, window, noise_std, policy_prob, ours)
        is_policy, random_actions, assets, contexts = oracles.episode_draws(
            theirs, window, m, params.arch.max_leverage, noise_std, policy_prob)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert np.array_equal(buf.is_policy, is_policy)
        assert np.array_equal(buf.obs.asset_tensor, assets)
        assert np.array_equal(buf.obs.context_matrix, contexts)
        for i, (weights, leverage) in random_actions.items():
            assert np.array_equal(buf.actions.weights[i], weights)
            assert buf.actions.leverage[i] == leverage


class TestClosedFormObjective:
    """buffer_objective equals today's composition of generic tape primitives
    (oracles.taped_buffer_objective) bit for bit: value and every gradient."""

    def assert_identical(self, params, buf):
        value, got = objective_and_grads(buffer_objective, params, buf)
        ref, want = objective_and_grads(oracles.taped_buffer_objective, params, buf)
        assert value == ref
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    @pytest.mark.parametrize("policy_prob", [1.0, 0.5, 0.0])
    @pytest.mark.parametrize("noise_std", [0.0, 0.01])
    def test_equals_the_taped_composition(self, policy_prob, noise_std, arch=SMALL_ARCH):
        for m in (1, 2, 3):
            rng = np.random.default_rng(m)
            window = window_from_returns(0.02 * rng.standard_normal((40, m)))
            params = perturbed_params(window, seed=m, scale=0.4, arch=arch)
            buf = run_episode(params, window, noise_std, policy_prob, np.random.default_rng(m))
            self.assert_identical(params, buf)

    @pytest.mark.parametrize("policy_prob", [1.0, 0.5])
    def test_equals_the_taped_composition_at_a_minus_100_percent_step(self, policy_prob,
                                                                       arch=SMALL_ARCH):
        # leverage 2 on a -50% return: that step's growth factor is exactly 0
        returns = np.full((40, 2), 0.01)
        returns[25] = -0.5
        window = window_from_returns(returns)
        params = perturbed_params(window, arch=arch)
        params.tensors["leverage_head_w"].data[:] = 0.0
        params.tensors["leverage_head_b"].data[:] = np.log(2.0)
        buf = run_episode(params, window, 0.0, policy_prob, np.random.default_rng(0))
        assert buf.terminal_reward == -1.0
        self.assert_identical(params, buf)

    @pytest.mark.parametrize("arch", DEEP_ARCHS, ids=DEEP_IDS)
    @pytest.mark.parametrize("policy_prob", [1.0, 0.5, 0.0])
    @pytest.mark.parametrize("noise_std", [0.0, 0.01])
    def test_equals_the_taped_composition_through_deep_networks(self, policy_prob, noise_std,
                                                                 arch):
        self.test_equals_the_taped_composition(policy_prob, noise_std, arch)

    @pytest.mark.parametrize("arch", DEEP_ARCHS, ids=DEEP_IDS)
    @pytest.mark.parametrize("policy_prob", [1.0, 0.5])
    def test_minus_100_percent_step_through_deep_networks(self, policy_prob, arch):
        self.test_equals_the_taped_composition_at_a_minus_100_percent_step(policy_prob, arch)

    @pytest.mark.parametrize("arch", (SMALL_ARCH,) + DEEP_ARCHS, ids=["small"] + DEEP_IDS)
    def test_policy_backward_returns_one_gradient_per_tensor(self, arch):
        rng = np.random.default_rng(9)
        window = window_from_returns(0.02 * rng.standard_normal((40, 3)))
        params = perturbed_params(window, scale=0.4, arch=arch)
        buf = run_episode(params, window, 0.01, 0.5, np.random.default_rng(9))
        g_weights = rng.standard_normal(buf.chosen.weights.shape)
        g_leverage = rng.standard_normal(buf.chosen.leverage.shape)
        grads = buf.chosen.backward(g_weights, g_leverage)
        assert set(grads) == set(params.tensors)
        for name, t in params.tensors.items():
            assert grads[name].shape == t.data.shape, name
        # the same gradients from the network composed of taped layers
        tape = Tape()
        weights, lev = oracles.forward_tape(tape, params, buf.obs[buf.is_policy])
        out = oracles.add(tape, oracles.dot_const(tape, oracles.flatten(tape, weights),
                                                  g_weights.reshape(-1)),
                          oracles.dot_const(tape, oracles.flatten(tape, lev), g_leverage))
        params.zero_grads()
        ad.backward(tape, out)
        for name, t in params.tensors.items():
            assert np.array_equal(grads[name], t.grad), name
        self.assert_identical(params, buf)

    def test_objective_is_one_tape_record(self):
        window = window_from_returns(0.02 * np.random.default_rng(5).standard_normal((40, 2)))
        params = perturbed_params(window, arch=DEEP_ARCHS[0])
        buf = run_episode(params, window, 0.01, 0.5, np.random.default_rng(5))
        tape = Tape()
        buffer_objective(tape, params, buf)
        assert len(tape) == 1


class TestAdam:
    def setup_method(self):
        self.window = window_from_returns(np.zeros((20, 2)))
        self.params = perturbed_params(self.window)
        self.state = init_adam(self.params)

    def test_zero_gradient_leaves_parameters(self):
        before = self.params.snapshot()
        grads = {n: np.zeros_like(t.data) for n, t in self.params.tensors.items()}
        adam_step(self.state, self.params, grads, 0.01)
        assert self.state.step == 1
        for n, t in self.params.tensors.items():
            assert np.array_equal(t.data, before[n])

    def test_first_step_is_signed_learning_rate(self, rng):
        grads = {n: rng.normal(size=t.data.shape) for n, t in self.params.tensors.items()}
        before = self.params.snapshot()
        adam_step(self.state, self.params, grads, 0.01)
        for n, t in self.params.tensors.items():
            step = t.data - before[n]
            np.testing.assert_allclose(step, 0.01 * np.sign(grads[n]), rtol=1e-3)

    def test_identical_calls_identical_results(self, rng):
        grads = {n: rng.normal(size=t.data.shape) for n, t in self.params.tensors.items()}
        twin_params = perturbed_params(self.window)
        twin_state = init_adam(twin_params)
        adam_step(self.state, self.params, grads, 0.01)
        adam_step(twin_state, twin_params, grads, 0.01)
        for n in self.params.tensors:
            assert np.array_equal(self.params.tensors[n].data, twin_params.tensors[n].data)


class TestTrain:
    def test_single_iteration(self, rng):
        window = window_from_returns(0.01 * rng.standard_normal((30, 2)))
        cfg = TrainConfig(max_iterations=1, seed=1)
        result = train(window, SMALL_ARCH, cfg)
        assert len(result.log) == 1
        assert result.log[0].iteration == 1

    def test_one_network_pass_per_iteration(self, rng, monkeypatch):
        # the objective runs the backward of the rollout's forward, so each
        # iteration convolves every conv layer once
        calls = []
        real_conv = _kernels.conv1d_fwd

        def counting_conv(*args, **kwargs):
            calls.append(1)
            return real_conv(*args, **kwargs)

        monkeypatch.setattr(_kernels, "conv1d_fwd", counting_conv)
        window = window_from_returns(0.01 * rng.standard_normal((30, 2)))
        cfg = TrainConfig(max_iterations=3, early_stop_patience=3, seed=1)
        result = train(window, SMALL_ARCH, cfg)
        assert len(result.log) == 3
        layers = len(SMALL_ARCH.asset_conv) + len(SMALL_ARCH.context_conv)
        assert len(calls) == 3 * layers

    def test_plateau_stops_after_patience(self):
        # zero returns: the reward is identically zero, so the best never
        # improves after iteration 1 and training stops at 1 + patience
        window = window_from_returns(np.zeros((20, 2)))
        cfg = TrainConfig(max_iterations=200, early_stop_patience=7, noise_std=0.0, seed=0)
        result = train(window, SMALL_ARCH, cfg)
        assert len(result.log) == 1 + 7
        assert result.best_iteration == 1

    def test_best_sequence_monotone(self, rng):
        window = window_from_returns(0.01 * rng.standard_normal((40, 2)))
        cfg = TrainConfig(max_iterations=25, seed=3)
        result = train(window, SMALL_ARCH, cfg)
        bests = [row.best_objective for row in result.log]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
        assert result.best_objective == max(row.objective for row in result.log)

    @pytest.mark.parametrize("kind", ["zero returns", "random returns"])
    def test_returns_the_parameters_its_best_episode_ran_with(self, monkeypatch, rng, kind):
        ran_with = []
        real_episode = trainer.run_episode

        def recording_episode(params, *args):
            ran_with.append(params.snapshot())
            return real_episode(params, *args)

        monkeypatch.setattr(trainer, "run_episode", recording_episode)
        returns = np.zeros((20, 2)) if kind == "zero returns" else 0.01 * rng.standard_normal((40, 2))
        cfg = TrainConfig(max_iterations=200, early_stop_patience=7, noise_std=0.0, seed=0)
        result = train(window_from_returns(returns), SMALL_ARCH, cfg)
        assert result.best_iteration < len(result.log) == len(ran_with)
        best, last = ran_with[result.best_iteration - 1], ran_with[-1]
        assert any(not np.array_equal(best[n], last[n]) for n in best)
        assert list(result.params.tensors) == list(best)
        for name, tensor in result.params.tensors.items():
            assert tensor.data.dtype == best[name].dtype and tensor.data.shape == best[name].shape
            assert tensor.data.tobytes() == best[name].tobytes()

    def test_deterministic_given_seed(self, rng):
        window = window_from_returns(0.01 * rng.standard_normal((30, 2)))
        cfg = TrainConfig(max_iterations=8, noise_std=0.0, policy_prob=1.0, seed=5)
        a = train(window, SMALL_ARCH, cfg)
        b = train(window, SMALL_ARCH, cfg)
        assert [r.objective for r in a.log] == [r.objective for r in b.log]
        for n in a.params.tensors:
            assert np.array_equal(a.params.tensors[n].data, b.params.tensors[n].data)

    def test_dominant_asset_gets_allocated(self):
        # one asset has a clearly higher drift at equal vol: the trained
        # policy should concentrate there
        rng = np.random.default_rng(2024)
        rets = np.column_stack([
            0.004 + 0.008 * rng.standard_normal(160),
            -0.002 + 0.008 * rng.standard_normal(160),
        ])
        window = window_from_returns(rets)
        cfg = TrainConfig(max_iterations=60, early_stop_patience=60, seed=7)
        result = train(window, SMALL_ARCH, cfg)
        weights = run_episode(result.params, window, 0.0, 1.0,
                              np.random.default_rng(0)).actions.weights[:, 0]
        assert np.mean(weights) > 0.6

    def test_non_finite_reward_aborts(self):
        # +500% per step for ~300 steps overflows the reward product
        window = window_from_returns(np.full((320, 1), 5.0))
        cfg = TrainConfig(max_iterations=5, seed=0)
        with pytest.raises(NumericError, match="non-finite"):
            with np.errstate(over="ignore"):
                train(window, SMALL_ARCH, cfg)

    def test_log_csv_layout(self, rng):
        window = window_from_returns(0.01 * rng.standard_normal((30, 2)))
        result = train(window, SMALL_ARCH, TrainConfig(max_iterations=3, seed=0))
        text = training_log_csv(result.log)
        lines = text.strip().splitlines()
        assert lines[0] == "iteration,objective,best_objective,gradient_norm"
        assert len(lines) == 4


class TestMakeWindow:
    def test_window_too_short(self, rng):
        rets = 0.01 * rng.standard_normal((20, 2))
        with pytest.raises(DataError, match="no decision steps"):
            window_from_returns(rets, t_start=10, t_end=10)

    def test_window_outside_the_data_rejected(self, rng):
        rets = 0.01 * rng.standard_normal((20, 2))
        with pytest.raises(DataError, match="window start 3 precedes first valid index 4"):
            window_from_returns(rets, t_start=3)
        with pytest.raises(DataError, match="window end 20 leaves no realized next-step return"):
            window_from_returns(rets, t_end=20)

    def test_stack_matches_per_step_observations(self, rng):
        returns = 0.01 * rng.standard_normal((40, 2))
        prices = 100.0 * np.cumprod(np.vstack([np.ones(2), 1 + returns]), axis=0)
        rf = compute_returns(make_price_frame(prices))
        vf = rolling_volatility(rf, 3)
        ctx = build_context_series(rf, vf)
        lags = LagSet((0, 2, 5))
        window = make_window(rf, vf, ctx, lags, SMALL_LAGS, 8, 30)
        for i, t in enumerate(range(8, 30)):
            one = build_observation(rf, vf, ctx, lags, SMALL_LAGS, t)
            assert np.array_equal(window.observations[i].asset_tensor, one.asset_tensor)
            assert np.array_equal(window.observations[i].context_matrix, one.context_matrix)

    def test_alignment_of_next_returns(self, rng):
        rets = 0.01 * rng.standard_normal((30, 2))
        window = window_from_returns(rets, t_start=6, t_end=12)
        np.testing.assert_allclose(window.next_returns, rets[7:13])
