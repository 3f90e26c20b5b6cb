from pathlib import Path

import numpy as np
import pytest

import oracles
from portalloc import autodiff as ad
from portalloc.autodiff import Tape, Tensor, backward
from portalloc.errors import DataError
from portalloc.policy import NetworkArch, init_network, load_params, save_params


def grad_of(build, x0):
    """Autodiff gradient of a scalar-valued builder over one flat input."""
    t = Tensor(x0)
    tape = Tape()
    out = build(tape, t)
    backward(tape, out)
    return t.grad.copy()


class TestConv1d:
    def test_unit_kernel_identity(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]))
        y = oracles.conv1d(Tape(), x, Tensor(np.ones((1, 1, 1))), Tensor(np.zeros(1)))
        np.testing.assert_allclose(y.data, [[1.0, 2.0, 3.0]])

    def test_sliding_dot_product(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]))
        k = Tensor(np.ones((1, 1, 2)))
        y = oracles.conv1d(Tape(), x, k, Tensor(np.zeros(1)))
        np.testing.assert_allclose(y.data, [[3.0, 5.0]])

    def test_kernel_too_long(self):
        x = Tensor(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="kernel length 5"):
            oracles.conv1d(Tape(), x, Tensor(np.zeros((1, 1, 5))), Tensor(np.zeros(1)))

    def test_linearity(self, rng):
        k = Tensor(rng.normal(size=(4, 2, 3)))
        b = Tensor(np.zeros(4))
        x1, x2 = rng.normal(size=(2, 2, 8))
        a_coef, b_coef = 1.7, -0.4
        lhs = oracles.conv1d(Tape(), Tensor(a_coef * x1 + b_coef * x2), k, b).data
        rhs = (a_coef * oracles.conv1d(Tape(), Tensor(x1), k, b).data
               + b_coef * oracles.conv1d(Tape(), Tensor(x2), k, b).data)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_constant_input_skips_only_the_input_gradient(self, rng):
        x0, k0, b0 = rng.normal(size=(3, 2, 8)), rng.normal(size=(4, 2, 3)), rng.normal(size=4)
        results = []
        for x in (Tensor(x0), x0):
            k, b = Tensor(k0), Tensor(b0)
            tape = Tape()
            out = oracles.conv1d(tape, x, k, b)
            backward(tape, oracles.sumsq(tape, out))
            results.append((out.data, k.grad, b.grad))
        for taped, constant in zip(*results):
            assert np.array_equal(taped, constant)


class TestActivations:
    def test_softmax_uniform_on_equal_logits(self):
        y = oracles.softmax(Tape(), Tensor(np.zeros(3)))
        np.testing.assert_allclose(y.data, np.full(3, 1 / 3), atol=1e-15)

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=5)
        a = oracles.softmax(Tape(), Tensor(x)).data
        b = oracles.softmax(Tape(), Tensor(x + 123.456)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_simplex_output(self, rng):
        for _ in range(20):
            y = oracles.softmax(Tape(), Tensor(rng.normal(scale=30, size=6))).data
            assert np.all(y > 0)
            np.testing.assert_allclose(y.sum(), 1.0, atol=1e-12)

    def test_relu_definition(self):
        y = oracles.relu(Tape(), Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(y.data, [0.0, 2.0])

    def test_sigmoid_bounds_and_midpoint(self, rng):
        y = oracles.sigmoid(Tape(), Tensor(np.array([0.0])))
        np.testing.assert_allclose(y.data, [0.5])
        z = oracles.sigmoid(Tape(), Tensor(rng.normal(scale=10, size=20))).data
        assert np.all((z > 0) & (z < 1))
        # saturated inputs stay inside [0, 1] at float precision
        extreme = oracles.sigmoid(Tape(), Tensor(np.array([-800.0, 800.0]))).data
        assert np.all((extreme >= 0) & (extreme <= 1))


class TestBackward:
    def test_square_at_three(self):
        g = grad_of(lambda tape, t: oracles.mul(tape, t, t), np.array(3.0))
        np.testing.assert_allclose(g, 6.0, atol=1e-12)

    def test_constant_has_zero_gradient(self):
        t = Tensor(np.array(2.0))
        tape = Tape()
        out = oracles.add_const(tape, oracles.scale(tape, Tensor(np.array(5.0)), 2.0), 1.0)
        backward(tape, out)
        assert t.grad is None

    def test_non_scalar_output_rejected(self):
        t = Tensor(np.zeros(3))
        tape = Tape()
        out = oracles.relu(tape, t)
        with pytest.raises(ValueError, match="scalar"):
            backward(tape, out)

    def test_backward_before_forward_rejected(self):
        with pytest.raises(ValueError, match="backward before forward"):
            backward(Tape(), Tensor(np.array(1.0)))

    def test_double_backward_rejected(self):
        t = Tensor(np.array(2.0))
        tape = Tape()
        out = oracles.mul(tape, t, t)
        backward(tape, out)
        with pytest.raises(ValueError, match="already ran"):
            backward(tape, out)

    def test_determinism(self, rng):
        x0 = rng.normal(size=(2, 7))
        k0 = rng.normal(size=(3, 2, 3))

        def run():
            x, k, b = Tensor(x0), Tensor(k0), Tensor(np.zeros(3))
            tape = Tape()
            out = oracles.sumsq(tape, oracles.relu(tape, oracles.conv1d(tape, x, k, b)))
            backward(tape, out)
            return out.data.copy(), k.grad.copy()

        (v1, g1), (v2, g2) = run(), run()
        assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


OPS = {
    "conv1d": (lambda rng: (rng.normal(size=(2, 8)), rng.normal(size=(3, 2, 3)), rng.normal(size=3)),
               lambda tape, ts: oracles.conv1d(tape, *ts)),
    "dense": (lambda rng: (rng.normal(size=4), rng.normal(size=(4, 3)), rng.normal(size=3)),
              lambda tape, ts: oracles.dense(tape, *ts)),
    "relu": (lambda rng: (rng.normal(size=7) + 0.05,),  # keep away from the kink
             lambda tape, ts: oracles.relu(tape, *ts)),
    "sigmoid": (lambda rng: (rng.normal(size=5),),
                lambda tape, ts: oracles.sigmoid(tape, *ts)),
    "softmax": (lambda rng: (rng.normal(size=5),),
                lambda tape, ts: oracles.softmax(tape, *ts)),
    "concat": (lambda rng: (rng.normal(size=3), rng.normal(size=4)),
               lambda tape, ts: oracles.concat(tape, *ts)),
    "mul": (lambda rng: (rng.normal(size=6), rng.normal(size=6)),
            lambda tape, ts: oracles.mul(tape, *ts)),
    "prod": (lambda rng: (rng.normal(size=6),),
             lambda tape, ts: oracles.prod(tape, *ts)),
    # leading batch axes
    "conv1d_batched": (lambda rng: (rng.normal(size=(3, 2, 8)), rng.normal(size=(3, 2, 3)),
                                    rng.normal(size=3)),
                       lambda tape, ts: oracles.conv1d(tape, *ts)),
    "dense_batched": (lambda rng: (rng.normal(size=(5, 4)), rng.normal(size=(4, 3)),
                                   rng.normal(size=3)),
                      lambda tape, ts: oracles.dense(tape, *ts)),
    "softmax_batched": (lambda rng: (rng.normal(size=(4, 5)),),
                        lambda tape, ts: oracles.softmax(tape, *ts)),
    "concat_batched": (lambda rng: (rng.normal(size=(3, 2, 2)), rng.normal(size=(3, 4))),
                       lambda tape, ts: oracles.concat(tape, *ts, batch_dims=1)),
    "dot_const_batched": (lambda rng: (rng.normal(size=(4, 5)),),
                          lambda tape, ts: oracles.dot_const(
                              tape, *ts, np.linspace(-1.0, 2.0, 20).reshape(4, 5))),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_gradient_matches_finite_differences(name, rng):
    make, apply_op = OPS[name]
    for trial in range(3):
        inputs = [np.asarray(x, dtype=float) for x in make(rng)]
        probe = rng.normal(size=apply_op(Tape(), [Tensor(x) for x in inputs]).data.shape)

        for arg in range(len(inputs)):
            def scalar_fn(flat):
                xs = [x.copy() for x in inputs]
                xs[arg] = flat.reshape(inputs[arg].shape)
                out = apply_op(Tape(), [Tensor(x) for x in xs])
                return float((out.data * probe).sum())

            tensors = [Tensor(x) for x in inputs]
            tape = Tape()
            out = apply_op(tape, tensors)
            weighted = oracles.dot_const(tape, oracles.flatten(tape, out), probe.reshape(-1))
            backward(tape, weighted)
            got = tensors[arg].grad.reshape(-1)
            want = oracles.central_difference(scalar_fn, inputs[arg].reshape(-1).copy())
            errs = oracles.relative_errors(got, want)
            assert errs.max() < 1e-4, (name, arg, errs.max())


class TestProd:
    def test_zero_factor_gradient_is_product_of_the_others(self):
        x = np.array([1.5, -2.0, 0.0, 0.5, 3.0])
        tape = Tape()
        t = Tensor(x)
        out = oracles.prod(tape, t)
        backward(tape, out)
        assert out.item() == 0.0
        assert np.all(np.isfinite(t.grad))
        np.testing.assert_array_equal(t.grad, [np.prod(np.delete(x, i)) for i in range(x.size)])

    def test_value_multiplies_in_order(self, rng):
        x = 1.0 + 0.01 * rng.normal(size=50)
        expect = 1.0
        for v in x:
            expect *= v
        assert oracles.prod(Tape(), Tensor(x)).item() == expect


class TestTensorContainer:
    def test_round_trip(self, tmp_path, rng):
        tensors = {
            "alpha_w": Tensor(rng.normal(size=(3, 2))),
            "beta_b": Tensor(rng.normal(size=4)),
            "gamma": Tensor(np.array(2.5)),
        }
        path = str(tmp_path / "ckpt.txt")
        ad.save_tensors(path, tensors, header='{"kind":"test"}')
        loaded, header = ad.load_tensors(path)
        assert header == '{"kind":"test"}'
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert np.array_equal(loaded[name].data, tensors[name].data)
            assert loaded[name].data.shape == tensors[name].data.shape

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\n")
        with pytest.raises(DataError, match="bad magic"):
            ad.load_tensors(str(path))

    def test_deterministic_bytes(self, tmp_path, rng):
        tensors = {"w_w": Tensor(rng.normal(size=(2, 2)))}
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        ad.save_tensors(p1, tensors)
        ad.save_tensors(p2, tensors)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


class TestCorruptCheckpoint:
    def checkpoint(self, tmp_path) -> str:
        path = str(tmp_path / "ckpt.txt")
        save_params(init_network(NetworkArch(), 2, 7, 3, 7, seed=0), path)
        return path

    def rewrite(self, path, edit) -> str:
        lines = Path(path).read_text().splitlines()
        edit(lines)
        bad = path + ".bad"
        Path(bad).write_text("\n".join(lines) + "\n")
        return bad

    def test_non_integer_dims(self, tmp_path):
        def edit(lines):
            lines[2] = lines[2].rsplit(" ", 1)[0] + " x"
        bad = self.rewrite(self.checkpoint(tmp_path), edit)
        with pytest.raises(DataError, match="corrupt tensor"):
            ad.load_tensors(bad)

    @pytest.mark.parametrize("line", ["tensor asset_conv0_w 9 5 4 3",
                                      "tensor asset_conv0_b 1 5 1",
                                      "tensor asset_conv0_b 2 -1 -5"])
    def test_dimension_count_must_equal_ndim(self, tmp_path, line):
        name = line.split()[1]

        def edit(lines):
            at = next(i for i, text in enumerate(lines) if text.startswith(f"tensor {name} "))
            lines[at] = line
        bad = self.rewrite(self.checkpoint(tmp_path), edit)
        with pytest.raises(DataError, match=f"tensor {name} needs"):
            ad.load_tensors(bad)

    def test_tensor_header_without_value_line(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text('portalloc-tensors v1\n{}\ntensor a_w 1 2')
        with pytest.raises(DataError, match="no value line"):
            ad.load_tensors(str(path))

    def test_bad_json_header(self, tmp_path):
        def edit(lines):
            lines[1] = lines[1][:-1]
        bad = self.rewrite(self.checkpoint(tmp_path), edit)
        with pytest.raises(DataError, match="bad checkpoint header"):
            load_params(bad)

    def test_missing_header_key(self, tmp_path):
        def edit(lines):
            lines[1] = lines[1].replace('"hidden"', '"hidden_sizes"')
        bad = self.rewrite(self.checkpoint(tmp_path), edit)
        with pytest.raises(DataError, match="hidden"):
            load_params(bad)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_value_rejected(self, tmp_path, cell):
        def edit(lines):
            lines[3] = " ".join([cell] + lines[3].split()[1:])
        bad = self.rewrite(self.checkpoint(tmp_path), edit)
        with pytest.raises(DataError, match="non-finite"):
            ad.load_tensors(bad)
