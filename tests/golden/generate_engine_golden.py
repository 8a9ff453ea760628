"""Generate the golden fixtures for the training-engine equivalence test.

    PYTHONPATH=src python tests/golden/generate_engine_golden.py

``tests/core/test_engine_equivalence.py`` asserts that the local,
stepped, threaded and elastic trainers reproduce these parameters and
loss curves *bitwise*.  The fixtures were first captured from the
pre-engine trainers (commit 20df40d) to prove that the engine refactor
changed no numerics.  They were regenerated once since, when the conv
kernels moved from one GEMM per kernel offset to column GEMMs (a new
floating-point reduction order, checked against the old kernels at a
tolerance in ``tests/primitives/test_conv3d.py``).

The fixtures are host-generated: regenerating on a machine with a
different BLAS/NumPy build may produce different (equally valid) bits.
Regenerate and re-verify on one machine.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.distributed import DistributedConfig, DistributedTrainer
from repro.core.elastic import ElasticConfig, ElasticTrainer
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import OptimizerConfig
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData, Trainer, TrainerConfig

OUT = Path(__file__).parent / "engine_golden.npz"

OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)
N_RANKS = 3
EPOCHS = 3


def make_dataset(n, seed=0, size=16):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, size, size, size)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


def run_local():
    model = CosmoFlowModel(tiny_16(), seed=0)
    trainer = Trainer(
        model,
        make_dataset(8),
        val_data=make_dataset(4, seed=7),
        optimizer_config=OPT,
        config=TrainerConfig(epochs=EPOCHS, seed=9),
    )
    hist = trainer.run()
    return model.get_flat_parameters(), hist


def run_distributed(mode):
    cls = ElasticTrainer if mode == "elastic" else DistributedTrainer
    kwargs = {"elastic": ElasticConfig(timeout_s=10.0)} if mode == "elastic" else {}
    trainer = cls(
        tiny_16(),
        make_dataset(9),
        val_data=make_dataset(6, seed=7),
        config=DistributedConfig(
            n_ranks=N_RANKS, epochs=EPOCHS, mode=mode, seed=0
        ),
        optimizer_config=OPT,
        **kwargs,
    )
    hist = trainer.run()
    return trainer.final_model.get_flat_parameters(), hist


def host_fingerprint():
    """BLAS/NumPy-build fingerprint that runs no ``repro`` code.

    A seeded fp32 SGEMM plus a float32 reduction of its result: the two
    kinds of arithmetic whose bits depend on the BLAS kernels and NumPy's
    SIMD build.  Because no ``repro`` kernel runs here, a change to the
    conv kernels or the engine that alters the numerics makes the golden
    test FAIL; only a different numerical build makes it skip.
    """
    rng = np.random.default_rng(20)
    a = rng.standard_normal((64, 432)).astype(np.float32)
    b = rng.standard_normal((432, 343)).astype(np.float32)
    c = a @ b
    return np.concatenate([c.ravel()[:32], [c.sum(dtype=np.float32)]]).astype(np.float64)


def main():
    payload = {"host_fingerprint": host_fingerprint()}
    params, hist = run_local()
    payload["local_params"] = params
    payload["local_train_loss"] = np.asarray(hist.train_loss)
    payload["local_val_loss"] = np.asarray(hist.val_loss)
    for mode in ("stepped", "threaded", "elastic"):
        params, hist = run_distributed(mode)
        payload[f"{mode}_params"] = params
        payload[f"{mode}_train_loss"] = np.asarray(hist.train_loss)
        payload[f"{mode}_val_loss"] = np.asarray(hist.val_loss)
    np.savez(OUT, **payload)
    print(f"wrote {OUT}")
    for key in sorted(payload):
        arr = payload[key]
        print(f"  {key}: shape={arr.shape} sum={float(np.sum(arr)):.10g}")


if __name__ == "__main__":
    main()
