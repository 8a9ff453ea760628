"""Tests for the GEMM-path 3D convolution kernels.

Correctness anchors:
* forward vs an independent scipy.ndimage/scipy.signal reference,
* backward-data and backward-weights vs numerical finite differences,
* all three passes vs the earlier one-GEMM-per-kernel-offset kernels
  (kept below as a test-only reference), at a tolerance, since the
  column GEMMs sum in a different order,
* shape arithmetic edge cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import correlate

from repro.primitives.conv3d import (
    _pad_input,
    _triple,
    conv3d_backward_data,
    conv3d_backward_weights,
    conv3d_forward,
    conv3d_forward_im2col,
    conv3d_output_shape,
)


def reference_conv3d(x, w, bias=None, stride=1, padding=0):
    """Independent reference: per-(n, oc, ic) scipy cross-correlation."""
    if np.isscalar(stride):
        stride = (stride,) * 3
    if np.isscalar(padding):
        padding = (padding,) * 3
    n, ic = x.shape[:2]
    oc = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))
    outs = []
    for b in range(n):
        per_oc = []
        for o in range(oc):
            acc = None
            for i in range(ic):
                r = correlate(xp[b, i], w[o, i], mode="valid")
                acc = r if acc is None else acc + r
            per_oc.append(acc[:: stride[0], :: stride[1], :: stride[2]])
        outs.append(np.stack(per_oc))
    out = np.stack(outs)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1, 1)
    return out


class TestOutputShape:
    @pytest.mark.parametrize(
        "inp,k,s,p,expect",
        [
            ((8, 8, 8), 3, 1, 0, (6, 6, 6)),
            ((128, 128, 128), 3, 1, 0, (126, 126, 126)),
            ((63, 63, 63), 4, 1, 0, (60, 60, 60)),
            ((8, 8, 8), 2, 2, 0, (4, 4, 4)),
            ((9, 9, 9), 2, 2, 0, (4, 4, 4)),  # floor semantics
            ((27, 27, 27), 2, 2, 0, (13, 13, 13)),
            ((6, 6, 6), 3, 1, 1, (6, 6, 6)),  # "same"-style pad
            ((5, 7, 9), (3, 3, 3), (1, 2, 3), 0, (3, 3, 3)),
        ],
    )
    def test_values(self, inp, k, s, p, expect):
        assert conv3d_output_shape(inp, k, s, p) == expect

    def test_kernel_too_large_raises(self):
        with pytest.raises(ValueError):
            conv3d_output_shape((2, 2, 2), 3, 1, 0)


class TestForward:
    @pytest.mark.parametrize(
        "n,ic,oc,size,k,stride,padding",
        [
            (1, 1, 1, 5, 3, 1, 0),
            (2, 3, 4, 6, 3, 1, 0),
            (1, 2, 2, 7, 4, 1, 0),
            (1, 2, 3, 8, 3, 2, 0),
            (1, 2, 3, 6, 3, 1, 1),
            (2, 1, 2, 6, 2, 2, 0),
        ],
    )
    def test_matches_scipy_reference(self, n, ic, oc, size, k, stride, padding):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((n, ic, size, size, size)).astype(np.float32)
        w = rng.standard_normal((oc, ic, k, k, k)).astype(np.float32)
        b = rng.standard_normal(oc).astype(np.float32)
        got = conv3d_forward(x, w, b, stride, padding)
        want = reference_conv3d(x, w, b, stride, padding)
        np.testing.assert_allclose(got, want, rtol=2e-4, atol=2e-4)

    def test_identity_kernel(self):
        """A 1x1x1 kernel with weight 1 copies the input channel."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 1, 4, 4, 4)).astype(np.float32)
        w = np.ones((1, 1, 1, 1, 1), dtype=np.float32)
        np.testing.assert_allclose(conv3d_forward(x, w), x)

    def test_anisotropic_stride(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 7, 9, 11)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3, 3)).astype(np.float32)
        got = conv3d_forward(x, w, stride=(1, 2, 3))
        want = reference_conv3d(x, w, stride=(1, 2, 3))
        assert got.shape == (1, 3, 5, 4, 3)
        np.testing.assert_allclose(got, want, rtol=2e-4, atol=2e-4)

    def test_dtype_preserved(self):
        x = np.zeros((1, 1, 4, 4, 4), dtype=np.float32)
        w = np.zeros((1, 1, 3, 3, 3), dtype=np.float32)
        assert conv3d_forward(x, w).dtype == np.float32

    def test_output_contiguous(self):
        x = np.zeros((1, 1, 4, 4, 4), dtype=np.float32)
        w = np.zeros((2, 1, 3, 3, 3), dtype=np.float32)
        assert conv3d_forward(x, w).flags["C_CONTIGUOUS"]

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            conv3d_forward(
                np.zeros((1, 2, 4, 4, 4), dtype=np.float32),
                np.zeros((1, 3, 3, 3, 3), dtype=np.float32),
            )

    def test_bad_rank_raises(self):
        with pytest.raises(ValueError):
            conv3d_forward(np.zeros((2, 4, 4, 4)), np.zeros((1, 2, 3, 3, 3)))
        with pytest.raises(ValueError):
            conv3d_forward(np.zeros((1, 2, 4, 4, 4)), np.zeros((2, 3, 3, 3)))

    def test_linearity(self):
        """conv(a*x1 + x2) == a*conv(x1) + conv(x2) (no bias)."""
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal((1, 2, 5, 5, 5)).astype(np.float32)
        x2 = rng.standard_normal((1, 2, 5, 5, 5)).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3, 3)).astype(np.float32)
        lhs = conv3d_forward(2.0 * x1 + x2, w)
        rhs = 2.0 * conv3d_forward(x1, w) + conv3d_forward(x2, w)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-4, atol=1e-4)


def numerical_grad(f, x, eps=1e-3):
    """Central-difference gradient of scalar f w.r.t. array x (float64)."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


class TestBackward:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (1, 1)])
    def test_backward_data_matches_numerical(self, stride, padding):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 2, 5, 5, 5)).astype(np.float64)
        w = rng.standard_normal((3, 2, 3, 3, 3)).astype(np.float64)
        out_shape = conv3d_output_shape(x.shape[2:], (3, 3, 3), stride, padding)
        g = rng.standard_normal((1, 3) + out_shape).astype(np.float64)

        def loss():
            return float(np.sum(conv3d_forward(x, w, None, stride, padding) * g))

        want = numerical_grad(loss, x)
        got = conv3d_backward_data(g, w, x.shape[2:], stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (1, 1)])
    def test_backward_weights_matches_numerical(self, stride, padding):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 2, 5, 5, 5)).astype(np.float64)
        w = rng.standard_normal((2, 2, 3, 3, 3)).astype(np.float64)
        out_shape = conv3d_output_shape(x.shape[2:], (3, 3, 3), stride, padding)
        g = rng.standard_normal((2, 2) + out_shape).astype(np.float64)

        def loss():
            return float(np.sum(conv3d_forward(x, w, None, stride, padding) * g))

        want = numerical_grad(loss, w)
        got = conv3d_backward_weights(x, g, (3, 3, 3), stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_backward_bias(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((2, 3, 4, 4, 4)).astype(np.float64)
        x = rng.standard_normal((2, 2, 6, 6, 6)).astype(np.float64)
        _, gb = conv3d_backward_weights(x, g, (3, 3, 3), with_bias=True)
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3, 4)))

    def test_backward_data_shape_validation(self):
        g = np.zeros((1, 2, 4, 4, 4))
        w = np.zeros((2, 1, 3, 3, 3))
        with pytest.raises(ValueError):
            conv3d_backward_data(g, w, (5, 5, 5))  # expects 3^3 output from 5^3

    def test_backward_weights_shape_validation(self):
        x = np.zeros((1, 1, 5, 5, 5))
        g = np.zeros((1, 2, 4, 4, 4))
        with pytest.raises(ValueError):
            conv3d_backward_weights(x, g, (3, 3, 3))

    def test_batch_mismatch_raises(self):
        x = np.zeros((2, 1, 5, 5, 5))
        g = np.zeros((1, 2, 3, 3, 3))
        with pytest.raises(ValueError):
            conv3d_backward_weights(x, g, (3, 3, 3))

    def test_grad_channel_mismatch_raises(self):
        g = np.zeros((1, 3, 3, 3, 3))
        w = np.zeros((2, 1, 3, 3, 3))
        with pytest.raises(ValueError):
            conv3d_backward_data(g, w, (5, 5, 5))


# ---------------------------------------------------------------------------
# Tolerance gate against the per-offset kernels the column GEMMs replaced
# ---------------------------------------------------------------------------


def _offset_windows(xp, kernel, stride, out_shape):
    """``((zd, zh, zw), strided view)`` for every kernel offset."""
    (od, oh, ow), (sd, sh, sw) = out_shape, stride
    for zd in range(kernel[0]):
        for zh in range(kernel[1]):
            for zw in range(kernel[2]):
                yield (zd, zh, zw), (
                    slice(zd, zd + sd * od, sd),
                    slice(zh, zh + sh * oh, sh),
                    slice(zw, zw + sw * ow, sw),
                )


def offset_forward(x, w, bias, stride, padding):
    """Forward as one ``tensordot`` per kernel offset."""
    stride, padding = _triple(stride), _triple(padding)
    out_shape = conv3d_output_shape(x.shape[2:], w.shape[2:], stride, padding)
    xp = _pad_input(x, padding)
    out = np.zeros((w.shape[0], x.shape[0]) + out_shape, dtype=x.dtype)
    for (zd, zh, zw), sl in _offset_windows(xp, w.shape[2:], stride, out_shape):
        out += np.tensordot(w[:, :, zd, zh, zw], xp[(slice(None), slice(None)) + sl], axes=([1], [1]))
    out = out.transpose(1, 0, 2, 3, 4) + bias.reshape(1, -1, 1, 1, 1)
    return np.ascontiguousarray(out)


def offset_backward_data(g, w, input_shape, stride, padding):
    """Backward-data as one ``tensordot`` and strided add per kernel offset."""
    stride, padding = _triple(stride), _triple(padding)
    padded = tuple(s + 2 * p for s, p in zip(input_shape, padding))
    grad_in = np.zeros(g.shape[:1] + (w.shape[1],) + padded, dtype=g.dtype)
    for (zd, zh, zw), sl in _offset_windows(grad_in, w.shape[2:], stride, g.shape[2:]):
        contrib = np.tensordot(w[:, :, zd, zh, zw], g, axes=([0], [1]))
        grad_in[(slice(None), slice(None)) + sl] += contrib.transpose(1, 0, 2, 3, 4)
    crop = tuple(slice(p, s - p) for s, p in zip(padded, padding))
    return grad_in[(slice(None), slice(None)) + crop]


def offset_backward_weights(x, g, kernel, stride, padding):
    """Backward-weights as one ``tensordot`` per kernel offset."""
    stride, padding = _triple(stride), _triple(padding)
    xp = _pad_input(x, padding)
    grad_w = np.empty((g.shape[1], x.shape[1]) + tuple(kernel), dtype=g.dtype)
    for (zd, zh, zw), sl in _offset_windows(xp, kernel, stride, g.shape[2:]):
        window = xp[(slice(None), slice(None)) + sl]
        grad_w[:, :, zd, zh, zw] = np.tensordot(g, window, axes=([0, 2, 3, 4], [0, 2, 3, 4]))
    return grad_w, g.sum(axis=(0, 2, 3, 4))


#: Normwise relative tolerance: each pass may differ from the per-offset
#: kernels by at most ``RTOL`` of the largest reference magnitude, since
#: a reordered fp32 sum moves near-cancelling entries by more than
#: ``RTOL`` of their own size.
RTOL = 1e-5


def _assert_close(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * float(np.abs(want).max()))


def _check_against_offset_kernels(n, ic, oc, size, kernel, stride, padding, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, ic) + tuple(size)).astype(np.float32)
    w = rng.standard_normal((oc, ic) + tuple(kernel)).astype(np.float32)
    b = rng.standard_normal(oc).astype(np.float32)
    want = offset_forward(x, w, b, stride, padding)
    _assert_close(conv3d_forward(x, w, b, stride, padding), want)
    g = rng.standard_normal(want.shape).astype(np.float32)
    _assert_close(
        conv3d_backward_data(g, w, x.shape[2:], stride, padding),
        offset_backward_data(g, w, x.shape[2:], stride, padding),
    )
    gw, gb = conv3d_backward_weights(x, g, kernel, stride, padding, with_bias=True)
    want_w, want_b = offset_backward_weights(x, g, kernel, stride, padding)
    _assert_close(gw, want_w)
    _assert_close(gb, want_b)


class TestMatchesOffsetKernels:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize(
        "layer,ic,oc,size,k",
        [
            ("conv1", 1, 16, 32, 3),
            ("conv2", 16, 32, 15, 4),
            ("conv3", 32, 64, 6, 3),
            ("conv4", 64, 64, 4, 3),
        ],
    )
    def test_scaled_32_layers(self, layer, ic, oc, size, k, n):
        _check_against_offset_kernels(n, ic, oc, (size,) * 3, (k,) * 3, 1, 0, seed=ic + n)

    @pytest.mark.parametrize(
        "stride,padding",
        [(1, 0), (1, 1), (2, 0), (2, 1), ((1, 2, 3), 0), ((2, 1, 3), (1, 0, 2))],
    )
    @pytest.mark.parametrize("n", [1, 3])
    def test_stride_and_padding(self, stride, padding, n):
        _check_against_offset_kernels(n, 5, 7, (9, 10, 11), (3, 2, 3), stride, padding, seed=n)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([1, 3]),
        ic=st.integers(1, 19),
        oc=st.integers(1, 19),
        kernel=st.tuples(*[st.integers(1, 4)] * 3),
        stride=st.tuples(*[st.integers(1, 3)] * 3),
        padding=st.tuples(*[st.integers(0, 1)] * 3),
        extra=st.tuples(*[st.integers(0, 5)] * 3),
        seed=st.integers(0, 2**16),
    )
    def test_shape_sweep(self, n, ic, oc, kernel, stride, padding, extra, seed):
        """Ragged channel counts, anisotropic kernels, strides and padding."""
        size = tuple(k + e for k, e in zip(kernel, extra))
        _check_against_offset_kernels(n, ic, oc, size, kernel, stride, padding, seed)

    def test_slabbed_columns_match(self, monkeypatch):
        """Volumes whose columns exceed the buffer budget run in depth slabs."""
        from repro.primitives import conv3d

        monkeypatch.setattr(conv3d, "_COLUMN_BUDGET", 500)
        _check_against_offset_kernels(2, 3, 4, (9, 8, 7), (3, 3, 2), 1, (1, 0, 1), seed=3)

    def test_im2col_name_is_the_gemm_forward(self):
        assert conv3d_forward_im2col is conv3d_forward
