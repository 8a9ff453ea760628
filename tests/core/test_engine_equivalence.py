"""Cross-mode and before/after-refactor bitwise equivalence.

Two guarantees, both *bitwise* (``np.array_equal`` / ``==`` on float
lists, never ``approx``):

1. **Cross-mode** — through the new engine, local (k=1), stepped,
   threaded, and fault-free elastic execution produce identical final
   parameters and train-loss curves at a fixed seed.  Every backend
   draws per-rank batches from ``default_rng([seed, rank])`` and
   reduces in rank order, so the execution mechanism must not leak into
   the numerics.

2. **Before/after** — ``tests/golden/engine_golden.npz`` holds final
   parameters and loss curves captured from the PRE-refactor trainers
   (commit 20df40d, generated by
   ``tests/golden/generate_engine_golden.py``, and regenerated once for
   the column-GEMM conv kernels).  The compatibility shims must still
   reproduce those bits exactly.

The golden fixtures are host-generated: a different BLAS/NumPy build
may legitimately produce different bits, so the golden test skips (with
a loud reason) if the host fingerprint — a seeded NumPy SGEMM and
reduction, no ``repro`` code — doesn't match, rather than failing on an
unrelated machine.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.elastic import ElasticConfig
from repro.core.engine import (
    ElasticBackend,
    EngineConfig,
    LocalBackend,
    SteppedBackend,
    ThreadedBackend,
    TrainingEngine,
)
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData
from repro.faults import FaultInjector

GOLDEN = Path(__file__).parent.parent / "golden" / "engine_golden.npz"
OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)
EPOCHS = 3
SEED = 0


def make_dataset(n, seed=0, size=16):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, size, size, size)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


def make_backend(mode, n_ranks, n_samples=9, seed=SEED):
    train = make_dataset(n_samples)
    val = make_dataset(6, seed=7)
    if mode == "local":
        assert n_ranks == 1
        model = CosmoFlowModel(tiny_16(), seed=seed)
        optimizer = CosmoFlowOptimizer(model.parameter_arrays(), OPT)
        backend = LocalBackend(model, optimizer, train, val_data=val)
    elif mode == "stepped":
        backend = SteppedBackend(
            tiny_16(), train, val_data=val, optimizer_config=OPT, n_ranks=n_ranks
        )
    elif mode == "threaded":
        backend = ThreadedBackend(
            tiny_16(), train, val_data=val, optimizer_config=OPT, n_ranks=n_ranks
        )
    else:
        backend = ElasticBackend(
            tiny_16(),
            train,
            val_data=val,
            optimizer_config=OPT,
            n_ranks=n_ranks,
            elastic=ElasticConfig(timeout_s=10.0),
            injector=FaultInjector(),
        )
    return backend


def run_engine(mode, n_ranks, n_samples=9, epochs=EPOCHS, seed=SEED, metrics=None):
    """Train through the engine with the given backend; return
    (flat_params, train_loss, val_loss)."""
    backend = make_backend(mode, n_ranks, n_samples=n_samples, seed=seed)
    engine = TrainingEngine(
        backend, config=EngineConfig(epochs=epochs, seed=seed), metrics=metrics
    )
    hist = engine.run()
    return (
        engine.final_model.get_flat_parameters(),
        list(hist.train_loss),
        list(hist.val_loss),
    )


class TestCrossModeBitwise:
    """Satellite: local(k=1) == stepped == threaded == elastic, bitwise."""

    @pytest.fixture(scope="class")
    def reference_k1(self):
        return run_engine("local", 1)

    @pytest.mark.parametrize("mode", ["stepped", "threaded", "elastic"])
    def test_k1_matches_local(self, mode, reference_k1):
        ref_params, ref_train, ref_val = reference_k1
        params, train, val = run_engine(mode, 1)
        np.testing.assert_array_equal(params, ref_params)
        assert train == ref_train  # bitwise, not approx
        assert val == ref_val

    @pytest.fixture(scope="class")
    def reference_k3(self):
        return run_engine("stepped", 3)

    @pytest.mark.parametrize("mode", ["threaded", "elastic"])
    def test_k3_matches_stepped(self, mode, reference_k3):
        ref_params, ref_train, ref_val = reference_k3
        params, train, val = run_engine(mode, 3)
        np.testing.assert_array_equal(params, ref_params)
        assert train == ref_train
        assert val == ref_val


class TestMetricsConsistency:
    """Satellite: observability counters are mode-invariant.

    The :class:`~repro.obs.TraceCallback` counts *global* quantities
    (synchronized optimizer steps, records consumed, epochs), so the
    same workload must report identical totals whichever execution
    backend ran it.  ``engine.rank_steps`` is deliberately excluded —
    it counts per-executing-rank work and scales with the rank count.
    """

    GLOBAL_KEYS = ("engine.steps", "engine.records", "engine.epochs")

    @staticmethod
    def collect(mode, n_ranks):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        run_engine(mode, n_ranks, metrics=metrics)
        return metrics

    @pytest.fixture(scope="class")
    def k1(self):
        return {
            mode: self.collect(mode, 1)
            for mode in ("local", "stepped", "threaded", "elastic")
        }

    @pytest.fixture(scope="class")
    def k3(self):
        return {mode: self.collect(mode, 3) for mode in ("stepped", "threaded", "elastic")}

    @pytest.mark.parametrize("key", GLOBAL_KEYS)
    def test_k1_counters_identical_across_modes(self, k1, key):
        values = {mode: reg.value(key) for mode, reg in k1.items()}
        assert len(set(values.values())) == 1, values

    @pytest.mark.parametrize("key", GLOBAL_KEYS)
    def test_k3_counters_identical_across_modes(self, k3, key):
        values = {mode: reg.value(key) for mode, reg in k3.items()}
        assert len(set(values.values())) == 1, values

    def test_global_records_independent_of_rank_count(self, k1, k3):
        # Records count samples consumed across ALL ranks, so the total
        # is a property of the workload (9 samples x 3 epochs), not of
        # how it was sharded.
        for reg in list(k1.values()) + list(k3.values()):
            assert reg.value("engine.records") == 9 * EPOCHS
            assert reg.value("engine.epochs") == EPOCHS

    def test_aggregation_rounds_match_steps_across_distributed_modes(self, k3):
        # Every synchronized step performs exactly one gradient
        # aggregation in every distributed mode.
        values = {m: reg.value("comm.step_aggregations") for m, reg in k3.items()}
        assert len(set(values.values())) == 1, values
        for mode, reg in k3.items():
            assert values[mode] == reg.value("engine.steps")


class TestGoldenPreRefactor:
    """Acceptance criterion: the refactor changed no numerics — the
    shims reproduce fixtures captured from the pre-engine trainers."""

    @pytest.fixture(scope="class")
    def golden(self):
        if not GOLDEN.exists():
            pytest.skip("golden fixture not generated on this host")
        return np.load(GOLDEN)

    def _check_host(self, golden):
        # Portability guard that runs no repro code (raw NumPy SGEMM),
        # so a numerics change in the engine or the kernels still
        # FAILS — only a different BLAS/NumPy build skips.
        from tests.golden.generate_engine_golden import host_fingerprint

        if "host_fingerprint" in golden and not np.array_equal(
            host_fingerprint(), golden["host_fingerprint"]
        ):
            pytest.skip(
                "golden fixture was generated with a different BLAS/NumPy "
                "build; regenerate tests/golden/engine_golden.npz here"
            )

    def test_local_trainer_matches_pre_refactor(self, golden):
        self._check_host(golden)
        from repro.core.trainer import Trainer, TrainerConfig

        model = CosmoFlowModel(tiny_16(), seed=0)
        trainer = Trainer(
            model,
            make_dataset(8),
            val_data=make_dataset(4, seed=7),
            optimizer_config=OPT,
            config=TrainerConfig(epochs=EPOCHS, seed=9),
        )
        hist = trainer.run()
        np.testing.assert_array_equal(
            model.get_flat_parameters(), golden["local_params"]
        )
        np.testing.assert_array_equal(hist.train_loss, golden["local_train_loss"])
        np.testing.assert_array_equal(hist.val_loss, golden["local_val_loss"])

    @pytest.mark.parametrize("mode", ["stepped", "threaded", "elastic"])
    def test_distributed_matches_pre_refactor(self, golden, mode):
        self._check_host(golden)
        from repro.core.distributed import DistributedConfig, DistributedTrainer
        from repro.core.elastic import ElasticTrainer

        cls = ElasticTrainer if mode == "elastic" else DistributedTrainer
        kwargs = {"elastic": ElasticConfig(timeout_s=10.0)} if mode == "elastic" else {}
        trainer = cls(
            tiny_16(),
            make_dataset(9),
            val_data=make_dataset(6, seed=7),
            config=DistributedConfig(n_ranks=3, epochs=EPOCHS, mode=mode, seed=0),
            optimizer_config=OPT,
            **kwargs,
        )
        hist = trainer.run()
        np.testing.assert_array_equal(
            trainer.final_model.get_flat_parameters(), golden[f"{mode}_params"]
        )
        np.testing.assert_array_equal(hist.train_loss, golden[f"{mode}_train_loss"])
        np.testing.assert_array_equal(hist.val_loss, golden[f"{mode}_val_loss"])
