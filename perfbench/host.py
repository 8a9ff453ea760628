"""Host fingerprint and the measured SGEMM ceiling every result carries."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np


def _openblas():
    """The OpenBLAS library numpy loaded, or ``None`` if it cannot be found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


def blas_threads_in_use():
    """The thread count OpenBLAS reports, or ``None`` when it is not queryable."""
    lib = _openblas()
    if lib is None:
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def sgemm_ceiling_gflops(n: int = 1024, repeats: int = 15) -> float:
    """Best-of-``repeats`` fp32 ``n x n`` matmul rate in GF/s on this process's BLAS threads."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    c = a @ b
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.matmul(a, b, out=c)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def fingerprint(rank_threads: int, blas_threads: int, sgemm_gflops: float) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_requested": blas_threads,
        "blas_threads_in_use": blas_threads_in_use(),
        "rank_threads": rank_threads,
        "sgemm_gflops": sgemm_gflops,
    }
