"""Production 3D convolution kernels (forward / backward-data / backward-weights).

Layout is ``NCDHW`` for activations and ``(OC, IC, KD, KH, KW)`` for
weights, matching the framework layer above.  Convolution here is
*cross-correlation* (no kernel flip), as in every deep-learning
framework.

Implementation strategy
-----------------------
Every pass is a few large BLAS SGEMM calls over "im2col" columns.  The
column matrix of one sample stacks, for each of the ``IC*KD*KH*KW``
(input channel, kernel offset) pairs, the strided window of input
voxels that offset multiplies against: shape ``(IC*K^3, P)`` with
``P = OD*OH*OW``.  :func:`_windows` exposes it as a zero-copy strided
view; each kernel copies it into a buffer allocated per call (never
module-global state, since threaded ranks share this module), one
output-depth slab at a time so the buffer stays bounded on large
volumes.  Folding the kernel offsets into the reduction dimension this
way is the NumPy counterpart of the paper's MKL-DNN design point: each
layer makes a few large calls instead of ``K^3`` small ones.

* **Forward:** ``W(OC, IC*K^3) @ cols(IC*K^3, P)`` — one GEMM per
  sample and depth slab, written straight into the NCDHW output.
* **Backward-weights:** ``G(OC, P) @ cols^T`` accumulated over samples
  and slabs — the paper's duality: "the backward weights operator is
  equivalent to a forward convolution with large inputs and kernels".
* **Backward-data:** for each kernel-depth plane ``zd``,
  ``W^T[zd](KH*KW*IC, OC) @ G(OC, P)``, then a strided scatter-add
  ("col2im") of the ``KH*KW`` column blocks into the padded input
  gradient.

A scaled_32 training step at batch 1 therefore makes 48 BLAS calls
(17 forward, 17 backward-weights, 14 backward-data) where one call per
kernel offset made 381; a tiny_16 step makes 12 instead of 189.
NumPy's BLAS plays the role of the paper's JIT-generated AVX512
microkernels.

All kernels accept ``stride`` and symmetric zero ``padding``; CosmoFlow
uses stride 1 and valid (0) padding for convolutions.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "conv3d_output_shape",
    "conv3d_forward",
    "conv3d_forward_im2col",
    "conv3d_backward_data",
    "conv3d_backward_weights",
]

Shape3 = Tuple[int, int, int]

#: Upper bound, in elements, on one call's column buffer (1 MiB of
#: fp32) unless a single output-depth plane needs more.  Larger columns
#: run in output-depth slabs: the GEMMs stay large (>= one depth plane
#: of output voxels), the buffer stays cache-sized, and a scaled_32
#: training step allocates no more at its peak than one-GEMM-per-offset
#: kernels did (a 16x larger cap kept conv2's 7 MB columns whole and
#: raised the step's peak RSS by ~5%).
_COLUMN_BUDGET = 1 << 18


def _triple(v) -> Shape3:
    """Normalize an int or 3-sequence to a 3-tuple of ints."""
    if np.isscalar(v):
        return (int(v),) * 3
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ValueError(f"expected scalar or length-3 value, got {v!r}")
    return t


def conv3d_output_shape(
    input_shape: Shape3, kernel: Shape3, stride=1, padding=0
) -> Shape3:
    """Spatial output shape of a 3D convolution.

    ``out = floor((in + 2*pad - kernel) / stride) + 1`` per axis.
    """
    kernel = _triple(kernel)
    stride = _triple(stride)
    padding = _triple(padding)
    out = []
    for i, (size, k, s, p) in enumerate(zip(input_shape, kernel, stride, padding)):
        span = size + 2 * p - k
        if span < 0:
            raise ValueError(
                f"kernel {k} larger than padded input {size + 2 * p} on axis {i}"
            )
        out.append(span // s + 1)
    return tuple(out)


def _pad_input(x: np.ndarray, padding: Shape3) -> np.ndarray:
    """Zero-pad the three spatial axes of an NCDHW tensor."""
    pd, ph, pw = padding
    if pd == ph == pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))


def _windows(xp: np.ndarray, kernel: Shape3, stride: Shape3, out_shape: Shape3) -> np.ndarray:
    """Read-only im2col view ``(N, C, KD, KH, KW, OD, OH, OW)`` of padded ``xp``.

    Element ``[n, c, zd, zh, zw, d, h, w]`` is the input voxel that
    output voxel ``(d, h, w)`` multiplies against kernel offset
    ``(zd, zh, zw)``: ``xp[n, c, zd + sd*d, zh + sh*h, zw + sw*w]``.
    No data moves; reshaping a slice of it to ``(C*K^3, voxels)`` makes
    the column copy.
    """
    sn, sc, s_d, s_h, s_w = xp.strides
    sd, sh, sw = stride
    return as_strided(
        xp,
        shape=xp.shape[:2] + tuple(kernel) + tuple(out_shape),
        strides=(sn, sc, s_d, s_h, s_w, s_d * sd, s_h * sh, s_w * sw),
        writeable=False,
    )


def _slabs(n: int, rows: int, out_shape: Shape3) -> Iterator[Tuple[int, int, int]]:
    """``(sample, d0, d1)`` column slabs of at most ``_COLUMN_BUDGET`` elements."""
    od, oh, ow = out_shape
    slab = max(1, min(od, _COLUMN_BUDGET // max(1, rows * oh * ow)))
    for b in range(n):
        for d0 in range(0, od, slab):
            yield b, d0, min(d0 + slab, od)


def _column_slabs(
    xp: np.ndarray, kernel: Shape3, stride: Shape3, out_shape: Shape3
) -> Iterator[Tuple[int, int, int, np.ndarray]]:
    """``(sample, d0, d1, cols)`` for every column slab of padded ``xp``.

    ``cols`` is the ``(C*K^3, (d1-d0)*OH*OW)`` column matrix of output
    depths ``[d0, d1)``, copied into one buffer that this call allocates
    and reuses: it is overwritten by the next slab.
    """
    _, oh, ow = out_shape
    win = _windows(xp, kernel, stride, out_shape)
    rows = int(np.prod(win.shape[1:5]))
    buf = None
    for b, d0, d1 in _slabs(xp.shape[0], rows, out_shape):
        if buf is None:
            buf = np.empty(rows * (d1 - d0) * oh * ow, dtype=xp.dtype)
        cols = buf[: rows * (d1 - d0) * oh * ow].reshape(win.shape[1:5] + (d1 - d0, oh, ow))
        np.copyto(cols, win[b, ..., d0:d1, :, :])
        yield b, d0, d1, cols.reshape(rows, -1)


def conv3d_forward(
    x: np.ndarray,
    w: np.ndarray,
    bias: np.ndarray | None = None,
    stride=1,
    padding=0,
) -> np.ndarray:
    """Forward 3D convolution: one column GEMM per sample and depth slab.

    Parameters
    ----------
    x
        Input activations ``(N, IC, ID, IH, IW)``.
    w
        Weights ``(OC, IC, KD, KH, KW)``.
    bias
        Optional per-output-channel bias ``(OC,)``.
    stride, padding
        Int or 3-tuple, per spatial axis.

    Returns
    -------
    ``(N, OC, OD, OH, OW)`` output activations, same dtype as ``x``.
    """
    if x.ndim != 5:
        raise ValueError(f"expected NCDHW input, got shape {x.shape}")
    if w.ndim != 5:
        raise ValueError(f"expected (OC, IC, KD, KH, KW) weights, got shape {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"input channels {x.shape[1]} != weight channels {w.shape[1]}")
    stride = _triple(stride)
    padding = _triple(padding)
    out_shape = conv3d_output_shape(x.shape[2:], w.shape[2:], stride, padding)
    n, oc = x.shape[0], w.shape[0]
    plane = out_shape[1] * out_shape[2]
    w2 = w.reshape(oc, -1)
    out = np.empty((n, oc) + out_shape, dtype=np.result_type(x.dtype, w.dtype))
    out2 = out.reshape(n, oc, -1)
    for b, d0, d1, cols in _column_slabs(_pad_input(x, padding), w.shape[2:], stride, out_shape):
        np.matmul(w2, cols, out=out2[b, :, d0 * plane : d1 * plane])
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1, 1)
    return out.astype(x.dtype, copy=False)


#: The forward pass is the im2col GEMM for every shape; the old name
#: stays so ``--conv-impl im2col`` and the autotuner keep resolving.
conv3d_forward_im2col = conv3d_forward


def conv3d_backward_data(
    grad_out: np.ndarray,
    w: np.ndarray,
    input_shape: Shape3,
    stride=1,
    padding=0,
) -> np.ndarray:
    """Gradient of the convolution w.r.t. its input.

    One GEMM per sample, kernel-depth plane and depth slab produces the
    plane's ``(KH, KW, IC)`` column gradients, which a strided
    scatter-add (col2im) folds into the padded input gradient.

    Parameters
    ----------
    grad_out
        ``(N, OC, OD, OH, OW)`` gradient flowing back into the layer.
    w
        The layer's weights ``(OC, IC, KD, KH, KW)``.
    input_shape
        Spatial shape ``(ID, IH, IW)`` of the forward input (needed
        because stride can make it ambiguous).

    Returns
    -------
    ``(N, IC, ID, IH, IW)`` input gradient.
    """
    stride = _triple(stride)
    padding = _triple(padding)
    n, oc, od, oh, ow = grad_out.shape
    if oc != w.shape[0]:
        raise ValueError(f"grad channels {oc} != weight output channels {w.shape[0]}")
    expected = conv3d_output_shape(input_shape, w.shape[2:], stride, padding)
    if expected != (od, oh, ow):
        raise ValueError(
            f"grad spatial shape {(od, oh, ow)} inconsistent with input {input_shape} "
            f"(expected {expected})"
        )
    ic = w.shape[1]
    kd, kh, kw = w.shape[2:]
    sd, sh, sw = stride
    pd, ph, pw = padding
    padded = tuple(s + 2 * p for s, p in zip(input_shape, padding))
    plane = oh * ow
    rows = kh * kw * ic
    # (KD, KH*KW*IC, OC): one transposed weight plane per kernel depth.
    wt = np.ascontiguousarray(w.transpose(2, 3, 4, 1, 0)).reshape(kd, rows, oc)
    g2 = grad_out.reshape(n, oc, -1)
    grad_in = np.zeros((n, ic) + padded, dtype=grad_out.dtype)
    buf = None
    for b, d0, d1 in _slabs(n, rows, (od, oh, ow)):
        if buf is None:
            buf = np.empty(rows * (d1 - d0) * plane, dtype=np.result_type(w.dtype, grad_out.dtype))
        cols = buf[: rows * (d1 - d0) * plane].reshape(rows, -1)
        blocks = cols.reshape(kh, kw, ic, d1 - d0, oh, ow)
        for zd in range(kd):
            np.matmul(wt[zd], g2[b, :, d0 * plane : d1 * plane], out=cols)
            lo = zd + sd * d0
            for zh in range(kh):
                for zw in range(kw):
                    grad_in[
                        b,
                        :,
                        lo : lo + sd * (d1 - d0) : sd,
                        zh : zh + sh * oh : sh,
                        zw : zw + sw * ow : sw,
                    ] += blocks[zh, zw]
    if (pd, ph, pw) != (0, 0, 0):
        grad_in = np.ascontiguousarray(
            grad_in[
                :,
                :,
                pd : padded[0] - pd,
                ph : padded[1] - ph,
                pw : padded[2] - pw,
            ]
        )
    return grad_in


def conv3d_backward_weights(
    x: np.ndarray,
    grad_out: np.ndarray,
    kernel: Shape3,
    stride=1,
    padding=0,
    with_bias: bool = False,
):
    """Gradient of the convolution w.r.t. weights (and optionally bias).

    ``G(OC, P) @ cols(IC*K^3, P)^T`` per sample and depth slab, summed.

    Parameters
    ----------
    x
        Forward input ``(N, IC, ID, IH, IW)``.
    grad_out
        ``(N, OC, OD, OH, OW)`` output gradient.
    kernel
        Kernel spatial shape ``(KD, KH, KW)``.

    Returns
    -------
    ``grad_w`` of shape ``(OC, IC, KD, KH, KW)``; if ``with_bias``, a
    ``(grad_w, grad_b)`` tuple with ``grad_b`` of shape ``(OC,)``.
    """
    kernel = _triple(kernel)
    stride = _triple(stride)
    padding = _triple(padding)
    n, oc, od, oh, ow = grad_out.shape
    if x.shape[0] != n:
        raise ValueError(f"batch mismatch: input {x.shape[0]} vs grad {n}")
    expected = conv3d_output_shape(x.shape[2:], kernel, stride, padding)
    if expected != (od, oh, ow):
        raise ValueError(
            f"grad spatial shape {(od, oh, ow)} inconsistent with input {x.shape[2:]} "
            f"(expected {expected})"
        )
    ic = x.shape[1]
    plane = oh * ow
    g2 = grad_out.reshape(n, oc, -1)
    grad_w = np.zeros((oc, ic) + kernel, dtype=np.result_type(x.dtype, grad_out.dtype))
    acc = grad_w.reshape(oc, -1)
    for b, d0, d1, cols in _column_slabs(_pad_input(x, padding), kernel, stride, (od, oh, ow)):
        acc += g2[b, :, d0 * plane : d1 * plane] @ cols.T
    grad_w = grad_w.astype(grad_out.dtype, copy=False)
    if with_bias:
        grad_b = grad_out.sum(axis=(0, 2, 3, 4))
        return grad_w, grad_b
    return grad_w
