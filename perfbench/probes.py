"""Benchmark-side tracing: spans around the public entry points of each layer.

Nothing in ``src/`` is modified.  While a :class:`Probe` is installed it
wraps, from the outside:

* ``Layer.__call__`` (repro.tensor) — one span per layer forward;
* ``Tensor._make`` — every taped op's backward closure, attributed to the
  layer that created it;
* ``Tensor.backward`` — the autograd walk (its self time is the tape
  overhead);
* ``repro.tensor.ops.conv3d`` — the conv op boundary, so forward numbers
  survive a change of default kernel implementation;
* every registered conv kernel (``registry.register_impl``) and
  ``numpy.tensordot`` (a call counter);
* ``CosmoFlowModel.forward``, ``CosmoFlowOptimizer.step`` and
  ``MLPlugin.gradients`` (repro.core / repro.comm);
* ``RecordDataset.batches`` and ``RecordReader.samples`` (repro.io).

Rank communicators are wrapped per rank by :class:`TimedComm`.  Spans stay
in memory: each thread aggregates total time, self time (span minus its
children), call count and work (bytes) per span name, and the
first ``max_events`` spans also go to a :class:`repro.obs.tracer.Tracer`
for export.  Conv flop and byte counts are not kept here: ``run.py``
attaches a metrics registry (``registry.set_metrics``) for those.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack, contextmanager
from typing import Dict, List

import numpy as np

from repro.comm.communicator import Communicator, ReduceOp
from repro.comm.plugin import MLPlugin
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer
from repro.io.dataset import RecordDataset
from repro.io.records import RecordReader
from repro.primitives import registry
from repro.tensor import ops
from repro.tensor.layers import Layer
from repro.tensor.tensor import Tensor

#: Counters that must repeat exactly from step to step and across seeds
#: of equal shape.  (Conv flops and bytes come from the registry's own
#: counters; ``run.py`` checks those.)
EXACT_COUNTS = ("tensordot", "comm.calls", "comm.bytes")


class _ThreadState:
    __slots__ = ("rank", "stack", "layers", "stats", "counts")

    def __init__(self, rank: int):
        self.rank = rank
        #: Open spans: ``[t0, time covered by child spans]``.
        self.stack: List[list] = []
        #: Names of the layers whose forward or backward is running.
        self.layers: List[str] = []
        #: span name -> ``[total_s, self_s, calls, work]``; work is the
        #: bytes a file load read or an allreduce sent.
        self.stats: Dict[str, list] = {}
        self.counts: Dict[str, int] = {}


class Mark:
    """The calling thread's aggregates at one step boundary."""

    __slots__ = ("t", "stats", "counts", "extra")

    def __init__(self, t, stats, counts, extra):
        self.t = t
        self.stats = stats
        self.counts = counts
        self.extra = extra


class Probe:
    def __init__(self, tracer, max_events: int = 20000):
        self.tracer = tracer
        self.max_events = max_events
        self._events = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        #: rank -> one list per communicator the rank was given (one per
        #: engine run) of its allreduce entry times, in order.
        self.allreduce_entries: Dict[int, List[List[float]]] = {}
        #: Rank-0 step-boundary marks, one list per engine run.
        self.segments: List[List[Mark]] = []

    # -- per-thread state ------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState(0)
        return st

    def bind_rank(self, rank: int) -> None:
        """Attribute the calling thread's spans to ``rank``, starting afresh."""
        self._local.state = _ThreadState(rank)

    def count(self, name: str, n: int = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def new_segment(self) -> None:
        """Start a new list of marks (a new engine run, possibly new threads)."""
        self.segments.append([])

    def mark(self, extra=None) -> None:
        """Snapshot the calling thread's aggregates (one step boundary)."""
        st = self._state()
        if not self.segments:
            self.new_segment()
        self.segments[-1].append(
            Mark(
                time.perf_counter(),
                {k: tuple(v) for k, v in st.stats.items()},
                dict(st.counts),
                extra,
            )
        )

    # -- spans -----------------------------------------------------------------

    def _enter(self):
        st = self._state()
        frame = [time.perf_counter(), 0.0]
        st.stack.append(frame)
        return st, frame

    def _exit(self, st, frame, name: str, cat: str, work: int = 0) -> None:
        t0, children = frame
        dur = time.perf_counter() - t0
        st.stack.pop()
        if st.stack:
            st.stack[-1][1] += dur
        self_s = dur - children
        rec = st.stats.get(name)
        if rec is None:
            rec = st.stats[name] = [0.0, 0.0, 0, 0]
        rec[0] += dur
        rec[1] += self_s
        rec[2] += 1
        rec[3] += work
        if self._events < self.max_events:
            with self._lock:
                self._events += 1
            self.tracer.complete(name, t0, dur, cat=cat, track=st.rank, self_ms=self_s * 1e3)

    def layer_name(self, st) -> str:
        return st.layers[-1] if st.layers else "-"

    def timed(self, fn, name: str, cat: str):
        """``fn`` wrapped in a span called ``name``."""

        def wrapper(*args, **kwargs):
            st, frame = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(st, frame, name, cat)

        return wrapper

    # -- installation ------------------------------------------------------------

    @contextmanager
    def installed(self, metrics=None):
        """Install every wrapper; restore the originals on exit.

        ``metrics``, when given, is attached to the conv registry
        (``registry.set_metrics``) for its flop and byte counters.
        """
        with ExitStack() as stack:
            self._patch(stack, Layer, "__call__", self._wrap_layer_call(Layer.__call__))
            self._patch(
                stack, Tensor, "_make", staticmethod(self._wrap_make(Tensor.__dict__["_make"].__func__))
            )
            self._patch(stack, Tensor, "backward", self.timed(Tensor.backward, "backward", "tensor"))
            self._patch(stack, ops, "conv3d", self._wrap_conv_op(ops.conv3d))
            self._patch(stack, np, "tensordot", self._wrap_tensordot(np.tensordot))
            self._patch(
                stack, CosmoFlowModel, "forward", self.timed(CosmoFlowModel.forward, "model.forward", "core")
            )
            self._patch(
                stack, CosmoFlowOptimizer, "step", self.timed(CosmoFlowOptimizer.step, "optimizer.step", "core")
            )
            self._patch(
                stack, MLPlugin, "gradients", self.timed(MLPlugin.gradients, "plugin.gradients", "comm")
            )
            self._patch(stack, RecordDataset, "batches", self._wrap_batches(RecordDataset.batches))
            self._patch(stack, RecordReader, "samples", self._wrap_samples(RecordReader.samples))
            self._install_kernels(stack)
            if metrics is not None:
                registry.set_metrics(metrics)
                stack.callback(registry.set_metrics, None)
            yield self

    @staticmethod
    def _patch(stack: ExitStack, owner, attr: str, new) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        stack.callback(setattr, owner, attr, old)

    def _install_kernels(self, stack: ExitStack) -> None:
        """Re-register every conv implementation with timed kernels."""
        for name in registry.available_impls():
            if name == registry.AUTO_IMPL:
                continue
            raw = registry.get_impl(name)
            registry.register_impl(self._timed_impl(raw))
            stack.callback(registry.register_impl, raw)

    # -- wrappers -----------------------------------------------------------------

    def _wrap_layer_call(self, orig):
        probe = self

        def __call__(layer, x):
            st, frame = probe._enter()
            st.layers.append(layer.name)
            try:
                return orig(layer, x)
            finally:
                st.layers.pop()
                probe._exit(st, frame, f"layer:{layer.name}", "tensor")

        return __call__

    def _wrap_make(self, orig):
        probe = self

        def _make(data, parents, backward, op_name="op"):
            layer = probe.layer_name(probe._state())
            name = f"bwd.{op_name}:{layer}"

            def timed_backward(g):
                st, frame = probe._enter()
                st.layers.append(layer)
                try:
                    return backward(g)
                finally:
                    st.layers.pop()
                    probe._exit(st, frame, name, "tensor")

            return orig(data, parents, timed_backward, op_name)

        return _make

    def _wrap_conv_op(self, orig):
        probe = self

        def conv3d(x, w, bias=None, stride=1, padding=0, impl=None):
            st, frame = probe._enter()
            try:
                return orig(x, w, bias, stride, padding, impl=impl)
            finally:
                probe._exit(st, frame, f"conv3d:{probe.layer_name(st)}", "tensor")

        return conv3d

    def _wrap_tensordot(self, orig):
        probe = self

        def tensordot(*args, **kwargs):
            probe.count("tensordot")
            return orig(*args, **kwargs)

        return tensordot

    def _timed_impl(self, impl: registry.ConvImpl) -> registry.ConvImpl:
        probe = self

        def timed_kernel(op, fn):
            def kernel(*args, **kwargs):
                st, frame = probe._enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    probe._exit(st, frame, f"kernel.{op}:{probe.layer_name(st)}", "primitives")

            return kernel

        return registry.ConvImpl(
            name=impl.name,
            forward=timed_kernel("forward", impl.forward),
            backward_data=timed_kernel("backward_data", impl.backward_data),
            backward_weights=timed_kernel("backward_weights", impl.backward_weights),
            native_layout=impl.native_layout,
        )

    def _wrap_batches(self, orig):
        probe = self

        def batches(dataset, *args, **kwargs):
            it = orig(dataset, *args, **kwargs)

            def fetch():
                while True:
                    st, frame = probe._enter()
                    try:
                        item = next(it, None)
                    finally:
                        probe._exit(st, frame, "io.fetch", "io")
                    if item is None:
                        return
                    yield item

            return fetch()

        return batches

    def _wrap_samples(self, orig):
        probe = self

        def samples(reader):
            st, frame = probe._enter()
            items = []
            try:
                items = list(orig(reader))
                return iter(items)
            finally:
                nbytes = reader.path.stat().st_size
                probe.count("io.records", len(items))
                probe._exit(st, frame, "io.file_load", "io", nbytes)

        return samples

    def wrap_comm(self, comm: Communicator) -> "TimedComm":
        """Bind the calling thread to ``comm.rank`` and time its collectives."""
        self.bind_rank(comm.rank)
        entries: List[float] = []
        with self._lock:
            self.allreduce_entries.setdefault(comm.rank, []).append(entries)
        return TimedComm(comm, self, entries)


class TimedComm(Communicator):
    """A rank communicator whose collectives record spans, bytes and entry times."""

    def __init__(self, inner: Communicator, probe: Probe, entries: List[float]):
        self.inner = inner
        self.probe = probe
        self._entries = entries

    @property
    def rank(self) -> int:
        return self.inner.rank

    @property
    def size(self) -> int:
        return self.inner.size

    def allreduce(self, array, op: ReduceOp = ReduceOp.SUM):
        probe = self.probe
        nbytes = int(np.asarray(array).nbytes)
        probe.count("comm.calls")
        probe.count("comm.bytes", nbytes)
        st, frame = probe._enter()
        self._entries.append(frame[0])
        try:
            return self.inner.allreduce(array, op)
        finally:
            probe._exit(st, frame, "comm.allreduce", "comm", nbytes)

    def bcast(self, array, root: int = 0):
        return self.probe.timed(self.inner.bcast, "comm.bcast", "comm")(array, root)

    def barrier(self) -> None:
        return self.probe.timed(self.inner.barrier, "comm.barrier", "comm")()

    def gather(self, array, root: int = 0):
        return self.probe.timed(self.inner.gather, "comm.gather", "comm")(array, root)


def allreduce_wait_s(probe: Probe, t_start: float, t_end: float, rank: int = 0) -> float:
    """Time ``rank`` spent in allreduces before the last rank entered them.

    Collectives are matched by communicator generation (every rank gets a
    new communicator per engine run) and by their order within it; only
    those that ``rank`` entered inside ``[t_start, t_end]`` count.
    """
    entries = probe.allreduce_entries
    total = 0.0
    for gen, mine in enumerate(entries.get(rank, [])):
        peers = [lists[gen] for lists in entries.values() if gen < len(lists)]
        for k, t in enumerate(mine):
            if t_start <= t <= t_end:
                total += max(p[k] for p in peers if k < len(p)) - t
    return total
