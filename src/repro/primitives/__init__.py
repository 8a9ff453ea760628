"""3D convolution and pooling primitives (MKL-DNN substitute).

The paper's Section III-C describes hand-optimized MKL-DNN kernels for
3D convolution (forward, backward-data, backward-weights) and average
pooling, built around a 16-channel blocked memory layout, SIMD
vectorization over the channel block, and loop-level threading
(Algorithm 1).

This subpackage provides interchangeable implementations, verified
against each other in the test suite:

* :mod:`repro.primitives.conv3d` — the production plain-layout path.
  Kernel offsets are folded into the GEMM reduction dimension over
  per-call "im2col" column buffers, so each pass is a few large BLAS
  SGEMM calls (48 per scaled_32 training step at batch 1, against ~380
  for one call per kernel offset) — the same "convolution as matrix
  multiply" engine MKL-DNN ultimately drives, with NumPy's BLAS
  standing in for the AVX512 JIT kernels.
* :mod:`repro.primitives.direct` — a structurally faithful port of the
  paper's Algorithm 1: channel-blocked layouts (``nCdhw16c``), explicit
  loops over output/input channel blocks and kernel offsets, and a
  vectorized 16x16 inner block product — repacking layouts per call.
* :mod:`repro.primitives.blocked` — the same Algorithm-1 loop nests
  operating **natively** on blocked arrays, so whole network segments
  run blocked end-to-end with zero interior reorders (bitwise-equal to
  ``direct``).

Layouts are first-class (:mod:`repro.primitives.layout`): ``Layout``
descriptors, one counted :func:`~repro.primitives.layout.reorder` entry
point, and a content-addressed :class:`~repro.primitives.layout.ReorderCache`
so weights reorder once per distinct value, not once per step.  Kernel
selection goes through :mod:`repro.primitives.registry` (including the
shape-keyed autotuned ``"auto"`` policy from
:mod:`repro.primitives.autotune`).

Average pooling (:mod:`repro.primitives.pool3d`) is implemented as the
constant-weight special case of convolution, exactly as the paper
describes; :mod:`repro.primitives.blocked` carries its blocked-native
variant.
"""

from repro.primitives.conv3d import (
    conv3d_forward,
    conv3d_forward_im2col,
    conv3d_backward_data,
    conv3d_backward_weights,
    conv3d_output_shape,
)
from repro.primitives.pool3d import (
    avg_pool3d_forward,
    avg_pool3d_backward,
    pool3d_output_shape,
)
from repro.primitives.layout import (
    Layout,
    get_layout,
    register_layout,
    available_layouts,
    to_blocked,
    from_blocked,
    to_blocked_batch,
    from_blocked_batch,
    to_blocked_weights,
    from_blocked_weights,
    to_blocked_bias,
    from_blocked_bias,
    reorder,
    reorder_cached,
    ReorderCache,
    default_reorder_cache,
    clear_reorder_cache,
    BLOCK,
    PLAIN_NCDHW,
    BLOCKED_NCDHW16C,
    PLAIN_OIDHW,
    BLOCKED_OIDHW16I16O,
    PLAIN_BIAS,
    BLOCKED_BIAS16,
)
from repro.primitives.direct import (
    conv3d_forward_direct,
    conv3d_backward_data_direct,
    conv3d_backward_weights_direct,
)
from repro.primitives.blocked import (
    conv3d_forward_blocked,
    conv3d_backward_data_blocked,
    conv3d_backward_weights_blocked,
    avg_pool3d_forward_blocked,
    avg_pool3d_backward_blocked,
)
from repro.primitives.registry import (
    ConvImpl,
    get_impl,
    register_impl,
    set_default_impl,
    get_default_impl,
    available_impls,
    set_auto_quantized,
    auto_quantized_enabled,
)
from repro.primitives.quantized import (
    QuantizedWeights,
    quantize_groupwise,
    dequantize_groupwise,
    pack_int4,
    unpack_int4,
    quantized_matmul,
    conv3d_forward_int8,
    conv3d_forward_int4,
    QuantCache,
    default_quant_cache,
    clear_quant_cache,
    DEFAULT_GROUP_SIZE,
)
from repro.primitives.autotune import (
    Autotuner,
    TuningCache,
    conv_shape_key,
    get_tuner,
    reset_tuner,
)

__all__ = [
    "conv3d_forward",
    "conv3d_forward_im2col",
    "conv3d_backward_data",
    "conv3d_backward_weights",
    "conv3d_output_shape",
    "avg_pool3d_forward",
    "avg_pool3d_backward",
    "pool3d_output_shape",
    "Layout",
    "get_layout",
    "register_layout",
    "available_layouts",
    "to_blocked",
    "from_blocked",
    "to_blocked_batch",
    "from_blocked_batch",
    "to_blocked_weights",
    "from_blocked_weights",
    "to_blocked_bias",
    "from_blocked_bias",
    "reorder",
    "reorder_cached",
    "ReorderCache",
    "default_reorder_cache",
    "clear_reorder_cache",
    "BLOCK",
    "PLAIN_NCDHW",
    "BLOCKED_NCDHW16C",
    "PLAIN_OIDHW",
    "BLOCKED_OIDHW16I16O",
    "PLAIN_BIAS",
    "BLOCKED_BIAS16",
    "conv3d_forward_direct",
    "conv3d_backward_data_direct",
    "conv3d_backward_weights_direct",
    "conv3d_forward_blocked",
    "conv3d_backward_data_blocked",
    "conv3d_backward_weights_blocked",
    "avg_pool3d_forward_blocked",
    "avg_pool3d_backward_blocked",
    "ConvImpl",
    "get_impl",
    "register_impl",
    "set_default_impl",
    "get_default_impl",
    "available_impls",
    "set_auto_quantized",
    "auto_quantized_enabled",
    "QuantizedWeights",
    "quantize_groupwise",
    "dequantize_groupwise",
    "pack_int4",
    "unpack_int4",
    "quantized_matmul",
    "conv3d_forward_int8",
    "conv3d_forward_int4",
    "QuantCache",
    "default_quant_cache",
    "clear_quant_cache",
    "DEFAULT_GROUP_SIZE",
    "Autotuner",
    "TuningCache",
    "conv_shape_key",
    "get_tuner",
    "reset_tuner",
]
