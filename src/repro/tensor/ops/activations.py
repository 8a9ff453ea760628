"""Activation functions.

CosmoFlow uses leaky ReLU on every convolution and FC layer.  The
paper implements its forward/backward "by calling two Relu and
ReluGrad operations" in TensorFlow; here it is a single fused masked
multiply, which is both simpler and what the authors' OpenMP threading
of element-wise ops approximates.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["leaky_relu", "relu", "sigmoid", "tanh"]

#: TensorFlow's default leaky-ReLU slope (tf.nn.leaky_relu alpha), which
#: the paper's r1.5 code path uses.
DEFAULT_LEAKY_ALPHA = 0.2


def leaky_relu(a, alpha: float = DEFAULT_LEAKY_ALPHA) -> Tensor:
    """``x if x > 0 else alpha * x`` elementwise.

    Layout-transparent: elementwise with ``f(0) == 0``, so a blocked
    input keeps its layout tag (and its zero padding lanes) bitwise.
    """
    a = a if isinstance(a, Tensor) else Tensor(a)
    x = a.data
    slope = np.array(alpha, dtype=a.dtype)
    # For a slope in (0, 1], max(x, alpha*x) is bitwise-equal to the
    # masked multiply (±0, ±inf and NaN included) at a fraction of its
    # cost.  alpha == 0 differs on +inf (0*inf is NaN), so it and any
    # other slope keep the masked form.
    branch_free = 0 < alpha <= 1
    if branch_free:
        out = np.maximum(x, slope * x)
    else:
        scale = np.where(x > 0, np.array(1.0, dtype=a.dtype), slope)
        out = x * scale

    def backward(g):
        return (g * scale,)

    result = Tensor._make(out, (a,), backward, "leaky_relu")
    if branch_free and result.requires_grad:
        scale = (x > 0).astype(a.dtype)
        np.maximum(scale, slope, out=scale)
    result.layout = a.layout
    result.channels = a.channels
    return result


def relu(a) -> Tensor:
    return leaky_relu(a, alpha=0.0)


def sigmoid(a) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    if a.layout is not None and a.layout.is_blocked:
        # sigmoid(0) = 0.5 would break the zero-padding-lane invariant
        # blocked arrays rely on; convert explicitly first.
        raise ValueError(
            "sigmoid on a blocked-layout tensor; insert ops.to_layout(a, 'ncdhw') first"
        )
    out = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        return (g * out * (1.0 - out),)

    return Tensor._make(out.astype(a.dtype, copy=False), (a,), backward, "sigmoid")


def tanh(a) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    out = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out * out),)

    result = Tensor._make(out, (a,), backward, "tanh")
    # tanh(0) == 0: zero lanes survive, the layout tag can propagate.
    result.layout = a.layout
    result.channels = a.channels
    return result
