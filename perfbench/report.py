"""The arithmetic that turns measurements into metrics.

Metric names and units are declared in ``BENCHMARK.json``; ``run.py``
checks that the names emitted here are exactly those.
"""

from __future__ import annotations

import resource
from typing import Dict, List, Tuple

import numpy as np

from probes import allreduce_wait_s

#: The per-layer metrics report layers by the scaled_32 names; tiny_16 has
#: fewer, and a layer a workload lacks reports 0.
CONV_LAYERS = ("conv1", "conv2", "conv3", "conv4")
POOL_LAYERS = ("pool1", "pool2")
CONV_PASSES = ("fwd", "bwd_data", "bwd_weights")
#: Which span measures each conv pass: the op boundary for the forward, the
#: registry kernels for the two backward passes.
PASS_SPAN = {"fwd": "conv3d", "bwd_data": "kernel.backward_data", "bwd_weights": "kernel.backward_weights"}


def conv_pass_flops(config, batch: int) -> Dict[Tuple[str, str], float]:
    """``(layer, pass) -> flops`` of one step of ``batch`` samples, from the
    program's analytic count (:func:`repro.core.flops.network_costs`)."""
    from repro.core.flops import network_costs

    out = {}
    for cost in network_costs(config):
        if cost.kind == "conv":
            out[(cost.name, "fwd")] = cost.fwd_flops * batch
            out[(cost.name, "bwd_data")] = cost.bwd_data_flops * batch
            out[(cost.name, "bwd_weights")] = cost.bwd_weight_flops * batch
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(measured, setup_times: List[float]) -> Dict[str, float]:
    return {
        "samples_per_s": measured.samples / measured.elapsed_s,
        "step_ms_p50": float(np.percentile(measured.step_s, 50)) * 1e3,
        "setup_s": float(np.median(setup_times)),
        "peak_rss_mb": peak_rss_mb(),
    }


class Window:
    """Per-step differences between the first and last mark of each segment.

    A segment is one engine run; its marks come from one rank-0 thread, so
    their aggregates are cumulative within it but not across segments.
    """

    def __init__(self, segments):
        self.segments = [seg for seg in segments if len(seg) >= 2]
        self.steps = sum(len(seg) - 1 for seg in self.segments)
        if not self.steps:
            raise ValueError("need at least two step marks in one segment")
        self.wall_s = sum(seg[-1].t - seg[0].t for seg in self.segments)
        self.last = self.segments[-1][-1]

    def _stat(self, name: str, field: int) -> float:
        zero = (0.0, 0.0, 0, 0)
        return sum(
            seg[-1].stats.get(name, zero)[field] - seg[0].stats.get(name, zero)[field]
            for seg in self.segments
        )

    def ms(self, name: str) -> float:
        return self._stat(name, 0) / self.steps * 1e3

    def self_ms(self, name: str) -> float:
        return self._stat(name, 1) / self.steps * 1e3

    def work(self, name: str) -> float:
        return self._stat(name, 3) / self.steps

    def ms_matching(self, prefix: str, layers) -> float:
        """Summed per-step ms of spans ``<prefix>...:<layer>`` for ``layers``."""
        names = {n for seg in self.segments for n in seg[-1].stats}
        layers = set(layers)
        return float(
            sum(self.ms(n) for n in names if n.startswith(prefix) and n.rsplit(":", 1)[-1] in layers)
        )

    def count(self, name: str) -> float:
        return sum(self.per_step_counts(name)) / self.steps

    def per_step_counts(self, name: str) -> List[int]:
        return [
            b.counts.get(name, 0) - a.counts.get(name, 0)
            for seg in self.segments
            for a, b in zip(seg, seg[1:])
        ]

    def stage_ms(self, stage: str) -> float:
        total = sum(
            (seg[-1].extra or {}).get(stage, 0.0) - (seg[0].extra or {}).get(stage, 0.0)
            for seg in self.segments
        )
        return total / self.steps * 1e3

    def wait_ms(self, probe) -> float:
        total = sum(allreduce_wait_s(probe, seg[0].t, seg[-1].t) for seg in self.segments)
        return total / self.steps * 1e3


def per_layer(
    window: Window,
    probe,
    layer_types: Dict[str, str],
    sgemm_gflops: float,
    pass_flops: Dict[Tuple[str, str], float],
    registry_per_step: Tuple[float, float],
) -> Dict[str, float]:
    """Every per-layer metric from one traced run's step window.

    ``pass_flops`` is :func:`conv_pass_flops` of the workload; a conv
    pass of a layer the workload lacks reports 0.
    """
    out: Dict[str, float] = {"host.sgemm_gflops": sgemm_gflops}
    for conv in CONV_LAYERS:
        for p in CONV_PASSES:
            if conv == "conv1" and p == "bwd_data":
                continue  # the input volume needs no gradient
            ms = window.ms(f"{PASS_SPAN[p]}:{conv}")
            gflops = pass_flops.get((conv, p), 0.0) / (ms * 1e-3) / 1e9 if ms > 0 else 0.0
            out[f"primitives.{conv}.{p}_ms"] = ms
            out[f"primitives.{conv}.{p}_gflops"] = gflops
            out[f"primitives.{conv}.{p}_ceiling_frac"] = gflops / sgemm_gflops
        out[f"primitives.{conv}.bwd_ms"] = window.ms_matching("bwd.", [conv])
    for pool in POOL_LAYERS:
        out[f"primitives.{pool}.fwd_ms"] = window.ms(f"layer:{pool}")
        out[f"primitives.{pool}.bwd_ms"] = window.ms_matching("bwd.", [pool])
    out["primitives.conv.tensordot_calls"] = window.count("tensordot")
    out["primitives.conv.flops"], out["primitives.conv.bytes"] = registry_per_step

    relus = [n for n, t in layer_types.items() if t == "LeakyReLU"]
    denses = [n for n, t in layer_types.items() if t == "Dense"]
    out["tensor.leaky_relu.fwd_ms"] = float(sum(window.ms(f"layer:{n}") for n in relus))
    out["tensor.leaky_relu.bwd_ms"] = window.ms_matching("bwd.", relus)
    out["tensor.dense.fwd_ms"] = float(sum(window.ms(f"layer:{n}") for n in denses))
    out["tensor.dense.bwd_ms"] = window.ms_matching("bwd.", denses)
    out["tensor.autograd_self_ms"] = window.self_ms("backward")

    stage_sum = 0.0
    for stage in ("io", "compute", "comm", "optimizer"):
        ms = window.stage_ms(stage)
        out[f"core.engine.{stage}_ms"] = ms
        stage_sum += ms
    # Inference has no engine, so no stages to subtract from.
    step_ms = window.wall_s / window.steps * 1e3
    out["core.engine.other_ms"] = 0.0 if window.last.extra is None else step_ms - stage_sum
    out["core.optimizer.step_ms"] = window.ms("optimizer.step")
    out["core.model.forward_ms"] = window.ms("model.forward")
    out["core.model.backward_ms"] = window.ms("backward")
    total, _, calls, _ = window.last.stats.get("checkpoint.load", (0.0, 0.0, 0, 0))
    out["core.checkpoint.load_ms"] = total / calls * 1e3 if calls else 0.0

    out["comm.allreduce_ms"] = window.ms("comm.allreduce")
    out["comm.allreduce_calls"] = window.count("comm.calls")
    out["comm.bytes"] = window.count("comm.bytes")
    out["comm.wait_ms"] = window.wait_ms(probe)

    out["io.fetch_ms"] = window.ms("io.fetch")
    out["io.file_load_ms"] = window.ms("io.file_load")
    out["io.records_read"] = window.count("io.records")
    out["io.bytes_read"] = window.work("io.file_load")
    return out
