"""The benchmark's three workloads, driven through the public training and
inference APIs on seeded synthetic volumes.

Each workload has ``setup(seed, workdir, probe)`` (everything up to the first
timed step), ``measure(state, seconds, probe)`` (the timed part) and
``reference(workdir, seed, probe)``: one fixed-size run (one epoch, or one
batch) whose leading losses or predictions ``run.py`` compares with
``reference.json``.  ``probe`` is a :class:`probes.Probe` in traced runs and
``None`` otherwise.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.comm.plugin import MLPlugin
from repro.comm.serial import SerialCommunicator
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.engine import (
    Callback,
    EngineConfig,
    LocalBackend,
    ThreadedBackend,
    TrainingEngine,
)
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
from repro.core.topology import PRESETS
from repro.core.trainer import InMemoryData
from repro.io.dataset import RecordDataset, write_dataset

#: Fixed so the learning-rate schedule, and with it every loss, does not
#: depend on how many steps fit into ``--seconds``.
OPTIMIZER = OptimizerConfig(decay_steps=1000)
ENGINE_STAGES = ("io", "compute", "comm", "optimizer")


def synth(seed: int, n: int, size: int):
    """``n`` lognormal density-like volumes and uniform normalized targets."""
    rng = np.random.default_rng(seed)
    x = rng.lognormal(0.0, 0.5, size=(n, 1, size, size, size)).astype(np.float32)
    y = rng.random((n, 3), dtype=np.float32)
    return x, y


class StepLog(Callback):
    """Rank-0 step-end timestamps and losses; every rank's step count.

    Timestamps are kept in segments of contiguous steps, so that no step
    interval spans the start-up of a new engine run.  With a probe, each
    rank-0 step end is also a probe mark carrying the engine's stage totals.
    """

    def __init__(self, probe=None):
        self.probe = probe
        self.segments: List[List[float]] = []
        self.losses: List[float] = []
        self.steps_per_rank: Dict[int, int] = {}

    def new_segment(self) -> None:
        self.segments.append([])
        if self.probe is not None:
            self.probe.new_segment()

    def on_step_end(self, rc):
        self.steps_per_rank[rc.rank] = self.steps_per_rank.get(rc.rank, 0) + 1
        if rc.rank != 0:
            return
        if not self.segments:
            self.new_segment()
        self.segments[-1].append(time.perf_counter())
        self.losses.append(rc.last_loss)
        if self.probe is not None:
            stages = rc.timer.stages
            self.probe.mark({s: stages[s].total for s in ENGINE_STAGES if s in stages})


@dataclass
class Measured:
    """What one timed run (or reference run) produced."""

    step_s: List[float]
    samples: int
    elapsed_s: float
    #: Operations (steps or batches) run and how many failed their output check.
    ops: int
    failed: int
    #: Steps of every rank (training) or predict batches (inference) run
    #: inside ``measure``.
    all_steps: int
    values: List = field(default_factory=list)
    loss_final: Optional[float] = None
    notes: List[str] = field(default_factory=list)


def _timeline(log: StepLog, samples_per_step: int) -> Measured:
    step_s = [float(d) for seg in log.segments for d in np.diff(seg)]
    losses = log.losses
    bad = sum(1 for v in losses if not math.isfinite(v))
    return Measured(
        step_s=step_s,
        samples=len(step_s) * samples_per_step,
        elapsed_s=sum(seg[-1] - seg[0] for seg in log.segments if seg),
        ops=len(losses),
        failed=bad,
        all_steps=sum(log.steps_per_rank.values()),
        values=list(losses),
    )


def combine(parts: List[Measured]) -> Measured:
    """One :class:`Measured` of several timed chunks, in order.

    Values and ``loss_final`` are the first chunk's: they are fixed by the
    seed, not by how the run was split.
    """
    first = parts[0]
    return Measured(
        step_s=[t for m in parts for t in m.step_s],
        samples=sum(m.samples for m in parts),
        elapsed_s=sum(m.elapsed_s for m in parts),
        ops=sum(m.ops for m in parts),
        failed=sum(m.failed for m in parts),
        all_steps=sum(m.all_steps for m in parts),
        values=first.values,
        loss_final=first.loss_final,
        notes=[n for m in parts for n in m.notes],
    )


class Workload:
    """``setup`` and ``measure`` come from each workload; the reference run is shared."""

    name: str
    preset: str
    #: Rank threads, and samples per rank per step (or per predict batch).
    n_ranks = 1
    batch = 1

    def reference(self, workdir: Path, seed: int, probe=None) -> Measured:
        return self.measure(self.setup(seed, workdir, probe), None, probe)


class TrainScaled32(Workload):
    """Single-rank scaled_32 training at batch 1 with the single-rank MLPlugin."""

    name = "train-scaled32"
    preset = "scaled_32"
    n_samples = 16
    warmup_samples = 2

    def setup(self, seed: int, workdir: Path, probe=None):
        cfg = PRESETS[self.preset]()
        x, y = synth(seed, self.n_samples, cfg.input_size)
        model = CosmoFlowModel(cfg, seed=seed)
        optimizer = CosmoFlowOptimizer(model.parameter_arrays(), OPTIMIZER)
        comm = SerialCommunicator()
        if probe is not None:
            comm = probe.wrap_comm(comm)
        plugin = MLPlugin(comm).init()
        config = EngineConfig(epochs=1, batch_size=self.batch, seed=seed, validate=False)
        w = self.warmup_samples
        warm = LocalBackend(model, optimizer, InMemoryData(x[:w], y[:w]), aggregator=plugin)
        TrainingEngine(warm, config).run()
        log = StepLog(probe)
        backend = LocalBackend(model, optimizer, InMemoryData(x, y), aggregator=plugin)
        tracer = probe.tracer if probe is not None else None
        engine = TrainingEngine(backend, config, callbacks=[log], tracer=tracer)
        return engine, log

    def measure(self, state, seconds: Optional[float], probe=None) -> Measured:
        """Train whole epochs until ``seconds`` have passed (one epoch if ``None``)."""
        engine, log = state
        deadline = time.perf_counter() + (seconds or 0.0)
        engine.run()
        while time.perf_counter() < deadline:
            engine.run()
        out = _timeline(log, self.n_ranks * self.batch)
        out.loss_final = engine.history.train_loss[0]
        return out


class TrainTiny16DP2(Workload):
    """2-rank threaded synchronous data-parallel tiny_16 training from record files."""

    name = "train-tiny16-dp2"
    preset = "tiny_16"
    n_ranks = 2
    n_samples = 64
    samples_per_file = 8
    #: Epochs per engine run.  A timed chunk is a sequence of such runs, each
    #: ending in the engine's divergence check, so it stops within one run
    #: (~1 s) of its share of ``--seconds``.
    run_epochs = 2

    def setup(self, seed: int, workdir: Path, probe=None):
        cfg = PRESETS[self.preset]()
        x, y = synth(seed, self.n_samples, cfg.input_size)
        directory = Path(tempfile.mkdtemp(prefix="records-", dir=workdir))
        paths = write_dataset(directory, x, y, samples_per_file=self.samples_per_file)
        dataset = RecordDataset(paths)
        # Warm-up: one epoch over one file per rank.
        self._engine(cfg, RecordDataset(paths[: self.n_ranks]), seed, 1, StepLog(), probe).run()
        return cfg, dataset, seed

    def _engine(self, cfg, dataset, seed, epochs, log, probe) -> TrainingEngine:
        factory = None
        if probe is not None:
            def factory(comm):
                return MLPlugin(probe.wrap_comm(comm)).init()

        backend = ThreadedBackend(
            cfg, dataset, n_ranks=self.n_ranks, optimizer_config=OPTIMIZER, aggregator_factory=factory
        )
        config = EngineConfig(epochs=epochs, batch_size=self.batch, seed=seed, validate=False)
        tracer = probe.tracer if probe is not None else None
        return TrainingEngine(backend, config, callbacks=[log], tracer=tracer)

    def measure(self, state, seconds: Optional[float], probe=None) -> Measured:
        """Engine runs of ``run_epochs`` epochs from the same initial model
        until ``seconds`` have passed (one run of one epoch if ``None``)."""
        cfg, dataset, seed = state
        epochs = 1 if seconds is None else self.run_epochs
        deadline = time.perf_counter() + (seconds or 0.0)
        log = StepLog(probe)
        runs, failed, notes, loss_final = 0, 0, [], None
        while True:
            log.new_segment()
            engine = self._engine(cfg, dataset, seed, epochs, log, probe)
            runs += 1
            try:
                engine.run()
            except RuntimeError as exc:
                # The engine's cross-rank divergence check (or a failed rank).
                failed += 1
                notes.append(f"{self.name}: training failed: {exc}")
                break
            if loss_final is None:
                loss_final = engine.history.train_loss[0]
            if time.perf_counter() >= deadline:
                break
        out = _timeline(log, self.n_ranks * self.batch)
        out.ops += runs
        out.failed += failed
        out.notes += notes
        out.loss_final = loss_final
        return out


class InferScaled32B8(Workload):
    """scaled_32 checkpoint load, then tape-free predict on batches of 8."""

    name = "infer-scaled32-b8"
    preset = "scaled_32"
    batch = 8
    n_samples = 64

    def setup(self, seed: int, workdir: Path, probe=None):
        cfg = PRESETS[self.preset]()
        x, _ = synth(seed, self.n_samples, cfg.input_size)
        directory = Path(tempfile.mkdtemp(prefix="ckpt-", dir=workdir))
        path = save_checkpoint(directory / "scaled_32.npz", CosmoFlowModel(cfg, seed=seed))
        model = CosmoFlowModel(cfg, seed=seed + 1)
        load = load_checkpoint if probe is None else probe.timed(load_checkpoint, "checkpoint.load", "core")
        load(path, model)
        model.predict(x[: self.batch])
        return model, x

    def measure(self, state, seconds: Optional[float], probe=None) -> Measured:
        """Predict batches round-robin until ``seconds`` have passed (one batch if ``None``)."""
        model, x = state
        b = self.batch
        n_batches = len(x) // b
        step_s, failed, first = [], 0, None
        if probe is not None:
            probe.new_segment()
            probe.mark()
        deadline = time.perf_counter() + (seconds or 0.0)
        t_start = time.perf_counter()
        while True:
            i = len(step_s) % n_batches
            t0 = time.perf_counter()
            pred = model.predict(x[i * b : (i + 1) * b])
            step_s.append(time.perf_counter() - t0)
            if probe is not None:
                probe.mark()
            if not np.all(np.isfinite(pred)):
                failed += 1
            if first is None:
                first = pred
            if time.perf_counter() >= deadline:
                break
        elapsed = time.perf_counter() - t_start
        out = Measured(
            step_s=step_s,
            samples=len(step_s) * b,
            elapsed_s=elapsed,
            ops=len(step_s),
            failed=failed,
            all_steps=len(step_s) + 1,
            values=first.tolist(),
        )
        # Predicting the first batch again must give the same answer.
        again = model.predict(x[:b])
        out.ops += 1
        if not np.allclose(again, first, rtol=1e-6, atol=0.0):
            out.failed += 1
            out.notes.append(f"{self.name}: repeated predict differs from the first")
        return out


WORKLOADS = {w.name: w for w in (TrainScaled32(), TrainTiny16DP2(), InferScaled32B8())}
