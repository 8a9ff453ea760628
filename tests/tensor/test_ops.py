"""Gradient and semantics tests for every op in repro.tensor.ops."""

import numpy as np
import pytest

from repro.tensor import ops
from repro.tensor.tensor import Tensor
from tests.gradcheck import check_grads


def randn(rng, *shape):
    return rng.standard_normal(shape)


class TestElementwiseGradients:
    def test_add_broadcast(self):
        rng = np.random.default_rng(0)
        check_grads(
            lambda t: (t["a"] + t["b"]).sum(),
            {"a": randn(rng, 2, 3), "b": randn(rng, 3)},
        )

    def test_sub(self):
        rng = np.random.default_rng(1)
        check_grads(
            lambda t: (t["a"] - t["b"]).sum(),
            {"a": randn(rng, 4), "b": randn(rng, 4)},
        )

    def test_mul_broadcast(self):
        rng = np.random.default_rng(2)
        check_grads(
            lambda t: (t["a"] * t["b"]).sum(),
            {"a": randn(rng, 2, 3), "b": randn(rng, 2, 1)},
        )

    def test_div(self):
        rng = np.random.default_rng(3)
        check_grads(
            lambda t: (t["a"] / (t["b"] + 5.0)).sum(),
            {"a": randn(rng, 3), "b": randn(rng, 3)},
        )

    def test_neg(self):
        rng = np.random.default_rng(4)
        check_grads(lambda t: (-t["x"]).sum(), {"x": randn(rng, 3)})

    def test_power_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            ops.power(Tensor([1.0]), Tensor([2.0]))

    def test_maximum_gradient_routing(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 2.0]), requires_grad=True)
        ops.maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])

    def test_maximum_tie_goes_to_first(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        ops.maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])
        np.testing.assert_allclose(b.grad, [0.0])

    def test_clip_values_and_grad(self):
        x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        y = ops.clip(x, 0.0, 1.0)
        np.testing.assert_allclose(y.data, [0.0, 0.5, 1.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_scalar_left_operands(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = 1.0 - x
        z = 6.0 / x
        np.testing.assert_allclose(y.data, [-1.0])
        np.testing.assert_allclose(z.data, [3.0])


class TestReductions:
    def test_sum_axis(self):
        rng = np.random.default_rng(5)
        check_grads(lambda t: t["x"].sum(axis=0).sum(), {"x": randn(rng, 3, 4)})

    def test_sum_keepdims_shape(self):
        x = Tensor(np.zeros((2, 3)))
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_grad_value(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, 0.25)

    def test_mean_axis(self):
        rng = np.random.default_rng(6)
        check_grads(lambda t: (t["x"].mean(axis=1) ** 2).sum(), {"x": randn(rng, 3, 4)})

    def test_negative_axis(self):
        x = Tensor(np.ones((2, 3)))
        assert x.sum(axis=-1).shape == (2,)


class TestReshapeOps:
    def test_reshape_round_trip_grad(self):
        rng = np.random.default_rng(7)
        check_grads(
            lambda t: (t["x"].reshape(6) ** 2).sum(),
            {"x": randn(rng, 2, 3)},
        )

    def test_reshape_varargs(self):
        x = Tensor(np.zeros((2, 3)))
        assert x.reshape(3, 2).shape == (3, 2)
        assert x.reshape((6,)).shape == (6,)

    def test_flatten_keeps_batch(self):
        x = Tensor(np.zeros((4, 2, 3, 5)))
        assert ops.flatten(x).shape == (4, 30)

    def test_transpose_grad(self):
        rng = np.random.default_rng(8)
        check_grads(
            lambda t: (ops.transpose(t["x"], (1, 0)) * ops.transpose(t["x"], (1, 0))).sum(),
            {"x": randn(rng, 2, 3)},
        )

    def test_transpose_default_reverses(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert ops.transpose(x).shape == (4, 3, 2)


class TestActivations:
    def test_leaky_relu_values(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        y = ops.leaky_relu(x, alpha=0.1)
        np.testing.assert_allclose(y.data, [-0.1, 0.0, 2.0], rtol=1e-6)

    def test_leaky_relu_grad(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        ops.leaky_relu(x, alpha=0.25).sum().backward()
        np.testing.assert_allclose(x.grad, [0.25, 1.0])

    def test_relu_is_leaky_zero(self):
        x = Tensor(np.array([-3.0, 3.0]))
        np.testing.assert_allclose(ops.relu(x).data, [0.0, 3.0])

    def test_sigmoid_grad(self):
        rng = np.random.default_rng(9)
        check_grads(lambda t: ops.sigmoid(t["x"]).sum(), {"x": randn(rng, 5)})

    def test_tanh_grad(self):
        rng = np.random.default_rng(10)
        check_grads(lambda t: ops.tanh(t["x"]).sum(), {"x": randn(rng, 5)})

    def test_leaky_relu_finite_diff(self):
        rng = np.random.default_rng(11)
        # keep values away from the kink for finite differences
        x = randn(rng, 6)
        x[np.abs(x) < 0.1] = 0.5
        check_grads(lambda t: (ops.leaky_relu(t["x"]) ** 2).sum(), {"x": x})


def _masked_leaky_relu(x, alpha):
    """The masked-multiply formula ``leaky_relu`` must reproduce bitwise."""
    scale = np.where(x > 0, np.array(1.0, dtype=x.dtype), np.array(alpha, dtype=x.dtype))
    return x * scale, scale


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestLeakyReluBitwise:
    @staticmethod
    def _edge_values(dtype):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(257).astype(dtype)
        tiny = np.finfo(dtype).smallest_subnormal
        specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 1.0, -1.0]
        return np.concatenate([x, np.array(specials, dtype=dtype)])

    @staticmethod
    def _assert_bitwise(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        uint = np.dtype(f"u{got.dtype.itemsize}")
        np.testing.assert_array_equal(got.view(uint), want.view(uint))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [0.0, 0.2, 1.0])
    def test_forward_and_backward_match_masked_formula(self, alpha, dtype):
        x = self._edge_values(dtype)
        want, scale = _masked_leaky_relu(x, alpha)
        t = Tensor(x.copy(), requires_grad=True)
        out = ops.leaky_relu(t, alpha=alpha)
        self._assert_bitwise(out.data, want)
        g = np.random.default_rng(13).standard_normal(x.shape).astype(dtype)
        out.backward(g)
        self._assert_bitwise(t.grad, g * scale)

    @pytest.mark.parametrize("alpha", [0.0, 0.2, 1.0])
    def test_untaped_forward_matches(self, alpha):
        from repro.tensor.tensor import no_grad

        x = self._edge_values(np.float32)
        with no_grad():
            out = ops.leaky_relu(Tensor(x, requires_grad=True), alpha=alpha)
        assert not out.requires_grad
        self._assert_bitwise(out.data, _masked_leaky_relu(x, alpha)[0])

    @pytest.mark.parametrize("alpha", [0.0, 0.2, 1.0])
    def test_blocked_zero_lanes_stay_positive_zero(self, alpha):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 5, 3, 3, 3)).astype(np.float32)
        b = ops.to_layout(Tensor(x), "nCdhw16c")
        out = ops.leaky_relu(b, alpha=alpha)
        self._assert_bitwise(out.data, _masked_leaky_relu(b.data, alpha)[0])
        lanes = out.data.reshape(-1, 16)[:, 5:]
        assert not np.signbit(lanes).any() and not lanes.any()


class TestDense:
    def test_matmul_grad(self):
        rng = np.random.default_rng(12)
        check_grads(
            lambda t: (t["a"] @ t["b"]).sum(),
            {"a": randn(rng, 3, 4), "b": randn(rng, 4, 2)},
        )

    def test_matmul_rejects_1d(self):
        with pytest.raises(ValueError):
            ops.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))

    def test_linear_grad_with_bias(self):
        rng = np.random.default_rng(13)
        check_grads(
            lambda t: (ops.linear(t["x"], t["w"], t["b"]) ** 2).sum(),
            {"x": randn(rng, 2, 3), "w": randn(rng, 3, 4), "b": randn(rng, 4)},
        )

    def test_linear_no_bias(self):
        rng = np.random.default_rng(14)
        check_grads(
            lambda t: ops.linear(t["x"], t["w"]).sum(),
            {"x": randn(rng, 2, 3), "w": randn(rng, 3, 4)},
        )

    def test_linear_shape_checks(self):
        with pytest.raises(ValueError):
            ops.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        with pytest.raises(ValueError):
            ops.linear(
                Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3))
            )


class TestConvPoolOps:
    def test_conv3d_grad_all_inputs(self):
        rng = np.random.default_rng(15)
        check_grads(
            lambda t: (ops.conv3d(t["x"], t["w"], t["b"]) ** 2).sum(),
            {
                "x": randn(rng, 1, 2, 4, 4, 4),
                "w": randn(rng, 2, 2, 3, 3, 3),
                "b": randn(rng, 2),
            },
            rtol=5e-4,
            atol=5e-5,
        )

    def test_conv3d_no_bias_grad(self):
        rng = np.random.default_rng(16)
        check_grads(
            lambda t: ops.conv3d(t["x"], t["w"], stride=2).sum(),
            {"x": randn(rng, 1, 1, 5, 5, 5), "w": randn(rng, 2, 1, 2, 2, 2)},
        )

    def test_conv3d_direct_impl_selection(self):
        rng = np.random.default_rng(17)
        x = Tensor(randn(rng, 1, 16, 5, 5, 5).astype(np.float32))
        w = Tensor(randn(rng, 16, 16, 3, 3, 3).astype(np.float32))
        a = ops.conv3d(x, w, impl="gemm")
        b = ops.conv3d(x, w, impl="direct")
        np.testing.assert_allclose(a.data, b.data, rtol=2e-4, atol=2e-4)

    def test_avg_pool3d_grad(self):
        rng = np.random.default_rng(18)
        check_grads(
            lambda t: (ops.avg_pool3d(t["x"], 2) ** 2).sum(),
            {"x": randn(rng, 1, 2, 5, 5, 5)},
        )

    def test_conv_then_pool_pipeline_grad(self):
        rng = np.random.default_rng(19)
        check_grads(
            lambda t: ops.avg_pool3d(ops.leaky_relu(ops.conv3d(t["x"], t["w"])), 2).sum(),
            {"x": randn(rng, 1, 1, 6, 6, 6), "w": randn(rng, 2, 1, 3, 3, 3)},
            rtol=5e-4,
            atol=5e-5,
        )


class TestLosses:
    def test_mse_value(self):
        p = Tensor(np.array([1.0, 2.0]))
        t = Tensor(np.array([0.0, 0.0]))
        assert ops.mse_loss(p, t).item() == pytest.approx(2.5)

    def test_mse_grad(self):
        rng = np.random.default_rng(20)
        check_grads(
            lambda t: ops.mse_loss(t["p"], t["t"]),
            {"p": randn(rng, 3, 2), "t": randn(rng, 3, 2)},
        )

    def test_mae_value(self):
        p = Tensor(np.array([1.0, -2.0]))
        t = Tensor(np.array([0.0, 0.0]))
        assert ops.mae_loss(p, t).item() == pytest.approx(1.5)

    def test_mae_grad_away_from_zero(self):
        rng = np.random.default_rng(21)
        p = randn(rng, 4) + 3.0
        t = np.zeros(4)
        check_grads(lambda d: ops.mae_loss(d["p"], d["t"]), {"p": p, "t": t})

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ops.mse_loss(Tensor(np.zeros(2)), Tensor(np.zeros(3)))
