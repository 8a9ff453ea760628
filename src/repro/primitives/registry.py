"""Implementation registry for the convolution primitives.

The framework layer (:mod:`repro.tensor.ops.conv`) calls through this
registry so the kernel implementation can be switched globally — used
by the A1 ablation benchmark to compare the GEMM path against the
Algorithm-1 direct and blocked-native paths, mirroring how TensorFlow
dispatches to MKL-DNN when built with ``--config=mkl``.

Registered implementations (see :func:`register_impl` for adding more):

* ``"gemm"``    — production column-GEMM ("im2col") kernels (plain
  layout): a few large BLAS calls per pass, see
  :mod:`repro.primitives.conv3d`.
* ``"im2col"``  — the same kernels under their formulation's name, kept
  so ``--conv-impl im2col`` and tuning caches that name it still resolve.
* ``"direct"``  — Algorithm-1 faithful port, per-call repack into the
  blocked layout.  Padded backward passes fall back to gemm; the
  fallback is **counted** (``primitives.conv3d.<op>.fallbacks``) so A1
  attribution stays honest.
* ``"blocked"`` — blocked-native kernels behind plain-array wrappers
  with content-cached weight reorders.
* ``"auto"``    — shape-keyed autotuned dispatch
  (:mod:`repro.primitives.autotune`): first encounter of a
  ``(op, shape, stride, padding, layout)`` key times the candidates and
  persists the winner; warm-cache calls dispatch deterministically.

Optional accounting: :func:`set_metrics` attaches a
:class:`~repro.obs.metrics.MetricsRegistry`, after which every kernel
call increments ``primitives.conv3d.<op>.{calls,flops,bytes}``
counters (the Section-III "portion of the computational cost" numbers),
and the layout module's reorder/cache counters come alive too.  With no
registry attached — the default — :func:`get_impl` hands back the raw
kernels, so the accounting costs nothing when off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.primitives import blocked as _blocked
from repro.primitives import conv3d as _gemm
from repro.primitives import direct as _direct

__all__ = [
    "ConvImpl",
    "get_impl",
    "register_impl",
    "set_default_impl",
    "get_default_impl",
    "available_impls",
    "set_metrics",
    "get_metrics",
    "record_conv_call",
    "set_auto_quantized",
    "auto_quantized_enabled",
    "AUTO_IMPL",
]

#: Name of the autotuned dispatch policy (not a kernel implementation).
AUTO_IMPL = "auto"


@dataclass(frozen=True)
class ConvImpl:
    """A triple of convolution kernels sharing one calling convention.

    ``native_layout`` names the activation layout the kernels are most
    at home in (``"ncdhw"`` or ``"nCdhw16c"``); the tensor layer uses it
    to decide where the genuine layout boundaries are.
    """

    name: str
    forward: Callable
    backward_data: Callable
    backward_weights: Callable
    native_layout: str = "ncdhw"


_default = "gemm"

#: When set (via :func:`set_metrics`), kernel calls are counted here.
_metrics = None

#: Instrumented wrappers, built lazily per registered implementation.
#: Invalidated whenever the metrics registry or an impl is swapped.
_instrumented: Dict[str, ConvImpl] = {}


def set_metrics(registry) -> None:
    """Attach a metrics registry for per-call FLOP/byte accounting.

    Pass ``None`` to detach; subsequent :func:`get_impl` calls return
    the raw, uncounted kernels again.  Always invalidates the cached
    instrumented wrappers so counters never land on a previously
    attached registry.
    """
    global _metrics
    _metrics = registry
    _instrumented.clear()


def get_metrics():
    """The currently attached metrics registry (``None`` when off)."""
    return _metrics


def _conv_flops(n: int, oc: int, ic: int, out_spatial, kernel) -> int:
    """Multiply-add FLOPs of one conv pass (2 per MAC).

    All three passes (forward, backward-data, backward-weights) perform
    the same MAC count ``N*OC*IC*OD*OH*OW*KD*KH*KW``, just contracted
    over different axes.
    """
    od, oh, ow = (int(v) for v in out_spatial)
    kd, kh, kw = (int(v) for v in kernel)
    return 2 * int(n) * int(oc) * int(ic) * od * oh * ow * kd * kh * kw


def record_conv_call(
    op: str, n: int, oc: int, ic: int, out_spatial, kernel, nbytes: int
) -> None:
    """Count one conv kernel call on the attached metrics registry.

    Public so the tensor layer's blocked-native path (which bypasses the
    plain-convention wrappers) reports the same accounting as the
    instrumented registry kernels.  No-op with metrics detached.
    """
    m = _metrics
    if m is None:
        return
    m.counter(f"primitives.conv3d.{op}.calls").add(1)
    m.counter(f"primitives.conv3d.{op}.flops").add(_conv_flops(n, oc, ic, out_spatial, kernel))
    m.counter(f"primitives.conv3d.{op}.bytes").add(nbytes)


def _count_fallback(impl_name: str, op: str) -> None:
    """Count a silent impl substitution (e.g. direct -> gemm on padding)."""
    m = _metrics
    if m is None:
        return
    m.counter("primitives.conv3d.fallbacks").add(1)
    m.counter(f"primitives.conv3d.{impl_name}.{op}.fallbacks").add(1)


def _direct_backward_data(grad_out, w, input_shape, stride=1, padding=0):
    """Direct backward-data; counted fallback to gemm for padded passes
    (the faithful Algorithm-1 kernel is valid-convolution only)."""
    if padding in (0, (0, 0, 0)):
        return _direct.conv3d_backward_data_direct(grad_out, w, input_shape, stride)
    _count_fallback("direct", "backward_data")
    return _gemm.conv3d_backward_data(grad_out, w, input_shape, stride, padding)


def _direct_backward_weights(x, grad_out, kernel, stride=1, padding=0, with_bias=False):
    """Direct backward-weights; counted fallback to gemm for padded passes."""
    if padding in (0, (0, 0, 0)):
        return _direct.conv3d_backward_weights_direct(x, grad_out, kernel, stride, with_bias)
    _count_fallback("direct", "backward_weights")
    return _gemm.conv3d_backward_weights(x, grad_out, kernel, stride, padding, with_bias)


_IMPLS: Dict[str, ConvImpl] = {
    "gemm": ConvImpl(
        name="gemm",
        forward=_gemm.conv3d_forward,
        backward_data=_gemm.conv3d_backward_data,
        backward_weights=_gemm.conv3d_backward_weights,
    ),
    "im2col": ConvImpl(
        name="im2col",
        forward=_gemm.conv3d_forward_im2col,
        # gemm is the im2col formulation in every pass (not a fallback,
        # not counted).
        backward_data=_gemm.conv3d_backward_data,
        backward_weights=_gemm.conv3d_backward_weights,
    ),
    "direct": ConvImpl(
        name="direct",
        forward=_direct.conv3d_forward_direct,
        backward_data=_direct_backward_data,
        backward_weights=_direct_backward_weights,
    ),
    "blocked": ConvImpl(
        name="blocked",
        forward=_blocked.conv3d_forward_via_blocked,
        backward_data=_blocked.conv3d_backward_data_via_blocked,
        backward_weights=_blocked.conv3d_backward_weights_via_blocked,
        native_layout="nCdhw16c",
    ),
}


def register_impl(impl: ConvImpl, default: bool = False) -> ConvImpl:
    """Register (or replace) a convolution implementation.

    The instrumented-wrapper cache is invalidated so a re-registered
    impl cannot be shadowed by a stale wrapper around its predecessor.
    """
    if not isinstance(impl, ConvImpl):
        raise TypeError(f"expected ConvImpl, got {type(impl).__name__}")
    if impl.name == AUTO_IMPL:
        raise ValueError(f"{AUTO_IMPL!r} is the autotuned dispatch policy, not a registrable impl")
    _IMPLS[impl.name] = impl
    _instrumented.clear()
    if default:
        set_default_impl(impl.name)
    return impl


def _instrument(impl: ConvImpl) -> ConvImpl:
    """Wrap an implementation's kernels with FLOP/byte accounting."""

    def forward(x, w, bias=None, stride=1, padding=0):
        out = impl.forward(x, w, bias, stride=stride, padding=padding)
        n, oc, ic = x.shape[0], w.shape[0], w.shape[1]
        record_conv_call("forward", n, oc, ic, out.shape[2:], w.shape[2:],
                         x.nbytes + w.nbytes + out.nbytes)
        return out

    def backward_data(grad_out, w, input_shape, stride=1, padding=0):
        gx = impl.backward_data(grad_out, w, input_shape, stride=stride, padding=padding)
        n, oc, ic = grad_out.shape[0], w.shape[0], w.shape[1]
        record_conv_call("backward_data", n, oc, ic, grad_out.shape[2:], w.shape[2:],
                         grad_out.nbytes + w.nbytes + gx.nbytes)
        return gx

    def backward_weights(x, grad_out, kernel, stride=1, padding=0, with_bias=False):
        gw = impl.backward_weights(
            x, grad_out, kernel, stride=stride, padding=padding, with_bias=with_bias
        )
        gw_arr = gw[0] if isinstance(gw, tuple) else gw
        n, oc, ic = x.shape[0], grad_out.shape[1], x.shape[1]
        record_conv_call("backward_weights", n, oc, ic, grad_out.shape[2:], kernel,
                         x.nbytes + grad_out.nbytes + gw_arr.nbytes)
        return gw

    return ConvImpl(
        name=impl.name,
        forward=forward,
        backward_data=backward_data,
        backward_weights=backward_weights,
        native_layout=impl.native_layout,
    )


# ---------------------------------------------------------------------------
# The "auto" dispatch policy
# ---------------------------------------------------------------------------


#: Whether the ``auto`` policy may race the approximate quantized
#: kernels.  Off by default: the tuner assumes its candidates are
#: interchangeable (bitwise-equal), which int8/int4 are not.
_auto_quantized = False


def set_auto_quantized(enabled: bool) -> None:
    """Opt the quantized forward kernels in/out of ``auto`` racing.

    With this on, ``auto`` forward tuning may pick ``int8``/``int4`` on
    shapes where they win — trading exactness for speed explicitly.
    Backward passes always race exact kernels only (the quantized
    backwards are gemm fallbacks anyway).
    """
    global _auto_quantized
    _auto_quantized = bool(enabled)


def auto_quantized_enabled() -> bool:
    return _auto_quantized


def auto_candidates(op: str) -> list[str]:
    """Implementation names the autotuner races for ``op``.

    ``im2col`` runs the same kernels as ``gemm``.  It stays in the
    forward race, where earlier tuning caches name it, and is excluded
    from backward tuning (racing two identical kernels would just
    double the one-time tuning cost).  The approximate ``int8`` /
    ``int4`` kernels join the forward race only after an explicit
    :func:`set_auto_quantized` opt-in.
    """
    names = [n for n in ("gemm", "im2col", "direct", "blocked") if n in _IMPLS]
    if op != "forward" and "im2col" in names:
        names.remove("im2col")
    if op == "forward" and _auto_quantized:
        names.extend(n for n in ("int8", "int4") if n in _IMPLS)
    return names


def _count_auto_dispatch(op: str, choice: str) -> None:
    m = _metrics
    if m is None:
        return
    m.counter(f"primitives.conv3d.auto.{op}.{choice}").add(1)


def _auto_forward(x, w, bias=None, stride=1, padding=0):
    from repro.primitives import autotune

    tuner = autotune.get_tuner()
    key = autotune.conv_shape_key("forward", x.shape, w.shape, stride, padding)
    choice = tuner.cached_choice(key)
    if choice is None or choice not in _IMPLS:
        choice, out = tuner.tune(
            key,
            auto_candidates("forward"),
            lambda name: get_impl(name).forward(x, w, bias, stride=stride, padding=padding),
        )
        _count_auto_dispatch("forward", choice)
        return out
    _count_auto_dispatch("forward", choice)
    return get_impl(choice).forward(x, w, bias, stride=stride, padding=padding)


def _auto_backward_data(grad_out, w, input_shape, stride=1, padding=0):
    from repro.primitives import autotune

    tuner = autotune.get_tuner()
    key = autotune.conv_shape_key("backward_data", grad_out.shape, w.shape, stride, padding)
    choice = tuner.cached_choice(key)
    if choice is None or choice not in _IMPLS:
        choice, out = tuner.tune(
            key,
            auto_candidates("backward_data"),
            lambda name: get_impl(name).backward_data(
                grad_out, w, input_shape, stride=stride, padding=padding
            ),
        )
        _count_auto_dispatch("backward_data", choice)
        return out
    _count_auto_dispatch("backward_data", choice)
    return get_impl(choice).backward_data(grad_out, w, input_shape, stride=stride, padding=padding)


def _auto_backward_weights(x, grad_out, kernel, stride=1, padding=0, with_bias=False):
    from repro.primitives import autotune

    tuner = autotune.get_tuner()
    key = autotune.conv_shape_key("backward_weights", x.shape, grad_out.shape, stride, padding)
    choice = tuner.cached_choice(key)
    if choice is None or choice not in _IMPLS:
        choice, out = tuner.tune(
            key,
            auto_candidates("backward_weights"),
            lambda name: get_impl(name).backward_weights(
                x, grad_out, kernel, stride=stride, padding=padding, with_bias=with_bias
            ),
        )
        _count_auto_dispatch("backward_weights", choice)
        return out
    _count_auto_dispatch("backward_weights", choice)
    return get_impl(choice).backward_weights(
        x, grad_out, kernel, stride=stride, padding=padding, with_bias=with_bias
    )


#: The autotuned policy.  Its kernels call :func:`get_impl` internally,
#: so accounting happens on the *chosen* impl — :func:`get_impl` must
#: never wrap "auto" itself or every call would be counted twice.
_AUTO = ConvImpl(
    name=AUTO_IMPL,
    forward=_auto_forward,
    backward_data=_auto_backward_data,
    backward_weights=_auto_backward_weights,
)
_IMPLS[AUTO_IMPL] = _AUTO


def available_impls() -> list[str]:
    """Names of the registered convolution implementations."""
    return sorted(_IMPLS)


def get_impl(name: str | None = None) -> ConvImpl:
    """Look up an implementation by name (``None`` -> current default).

    With a metrics registry attached the returned kernels also count
    calls/FLOPs/bytes; otherwise they are the raw implementations.
    """
    key = _default if name is None else name
    try:
        impl = _IMPLS[key]
    except KeyError:
        raise KeyError(
            f"unknown conv3d implementation {key!r}; available: {available_impls()}"
        ) from None
    if _metrics is None or key == AUTO_IMPL:
        return impl
    wrapped = _instrumented.get(key)
    if wrapped is None:
        wrapped = _instrumented[key] = _instrument(impl)
    return wrapped


def set_default_impl(name: str) -> None:
    """Set the implementation used when callers do not name one."""
    global _default
    if name not in _IMPLS:
        raise KeyError(
            f"unknown conv3d implementation {name!r}; available: {available_impls()}"
        )
    _default = name


def get_default_impl() -> str:
    """Name of the implementation used when callers do not name one."""
    return _default
