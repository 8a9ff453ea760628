"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-scaled32 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced chunks of the run and reports the per-layer metrics.
Every run also checks its outputs: losses finite, the engine's cross-rank
divergence check, repeatable predictions, and a fixed-size run on the
reference seed compared with ``reference.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SPEC_PATH = HERE / "spec.json"
REFERENCE_PATH = HERE / "reference.json"
#: Set-ups per ``--trace 0`` run, each followed by an equal share of the
#: timed run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: Untraced/traced chunk pairs per ``--trace 1`` run.
TRACE_ROUNDS = 3


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(workloads), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_blas_threads(n: int) -> None:
    """Fix the BLAS thread count; only effective before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was set")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"perfbench: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))


class Checks:
    """Named output checks; each counts as one attempted operation."""

    def __init__(self):
        self.results = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def check_reference(checks: Checks, wl_name: str, ref_run, stored: dict) -> None:
    """Compare the reference-seed run's leading ``count`` losses or predictions.

    Training on this data is chaotic after ~8 steps (a reordered fp32
    reduction moves later losses by O(1)), so only the leading steps are
    compared.  The tolerances sit ~5x above the largest deviation a
    reordered reduction (im2col vs gemm forward, fp64 accumulation)
    produced, and ~10x below that of a conv forward off by 0.1%.
    """
    import numpy as np

    tol = stored["tolerance"][wl_name]
    expected = np.asarray(stored["values"][wl_name], dtype=np.float64)
    got = np.asarray(ref_run.values[: tol["count"]], dtype=np.float64)
    ok = got.shape == expected.shape and bool(np.allclose(got, expected, rtol=tol["rtol"], atol=tol["atol"]))
    err = float(np.max(np.abs(got - expected) / np.abs(expected))) if got.shape == expected.shape else float("inf")
    checks.add(f"reference seed {stored['seed']} matches reference.json", ok, f"max rel diff {err:.3g}")


def registry_conv_totals(reg):
    flops = sum(reg.value(n, 0) for n in reg.names() if n.startswith("primitives.conv3d.") and n.endswith(".flops"))
    nbytes = sum(reg.value(n, 0) for n in reg.names() if n.startswith("primitives.conv3d.") and n.endswith(".bytes"))
    return flops, nbytes


def run_untraced(wl, args, workdir: Path):
    from report import end_to_end
    from workloads import combine

    # Set-ups alternate with the timed chunks, so that host drift during
    # the run moves setup_s and the step times alike.
    setup_times, parts, state = [], [], None
    for _ in range(SETUP_REPEATS):
        # Free the previous set-up, reference cycles included, so that
        # peak_rss_mb does not grow with the number of set-ups.
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        parts.append(wl.measure(state, args.seconds / SETUP_REPEATS))
    measured = combine(parts)
    return measured, setup_times, end_to_end(measured, setup_times)


def run_traced(wl, args, workdir: Path, ref_seed: int, sgemm_gflops: float, checks: Checks):
    import numpy as np

    from probes import EXACT_COUNTS, Probe
    from repro.core.model import CosmoFlowModel
    from repro.core.topology import PRESETS
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.summarize import load_trace, summarize_trace
    from repro.obs.tracer import Tracer
    from report import Window, conv_pass_flops, per_layer

    def traced_measure(state, seconds):
        """``wl.measure`` with the registry's conv flops and bytes per step."""
        before = registry_conv_totals(registry_metrics)
        measured = wl.measure(state, seconds, probe)
        after = registry_conv_totals(registry_metrics)
        return measured, [a - b for a, b in zip(after, before)]

    # Untraced and traced chunks alternate, so that host drift during the
    # run moves both sides of trace_overhead_frac alike.
    chunk = args.seconds / (2 * TRACE_ROUNDS)
    tracer, registry_metrics = Tracer(), MetricsRegistry()
    probe = Probe(tracer)
    untraced, traced, delta = [], [], [0, 0]
    for _ in range(TRACE_ROUNDS):
        untraced.append(wl.measure(wl.setup(args.seed, workdir), chunk))
        with probe.installed(metrics=registry_metrics):
            measured, work = traced_measure(wl.setup(args.seed, workdir, probe), chunk)
        traced.append(measured)
        delta = [d + w for d, w in zip(delta, work)]
    window = Window(probe.segments)
    steps = sum(t.all_steps for t in traced)
    per_step = tuple(d / steps for d in delta)
    cfg = PRESETS[wl.preset]()
    layer_types = {layer.name: type(layer).__name__ for layer in CosmoFlowModel(cfg, seed=0).network.layers}
    metrics = per_layer(window, probe, layer_types, sgemm_gflops, conv_pass_flops(cfg, wl.batch), per_step)
    probe.segments = []
    with probe.installed(metrics=registry_metrics):
        reference, ref_work = traced_measure(wl.setup(ref_seed, workdir, probe), None)
    ref_window = Window(probe.segments)
    for name in EXACT_COUNTS:
        seen = set(window.per_step_counts(name)) | set(ref_window.per_step_counts(name))
        checks.add(f"per-step count {name} repeats exactly across steps and seeds", len(seen) == 1, str(sorted(seen)))
    ref_per_step = tuple(w / reference.all_steps for w in ref_work)
    checks.add(
        "registry conv flops and bytes per step repeat exactly across steps and seeds",
        all(d % steps == 0 for d in delta) and per_step == ref_per_step,
        f"{per_step} per step over {steps} steps; reference seed {ref_per_step}",
    )
    p50_untraced = float(np.median([t for m in untraced for t in m.step_s]))
    p50_traced = float(np.median([t for m in traced for t in m.step_s]))
    metrics["trace_overhead_frac"] = p50_traced / p50_untraced - 1.0
    trace_path = tracer.export(OUT / f"trace-{wl.name}-seed{args.seed}.json")
    summary = summarize_trace(load_trace(trace_path))
    checks.add("trace loads in `repro trace summarize`", summary.n_events > 0, f"{trace_path.name}: {summary.n_events} events")
    return untraced + traced, reference, metrics


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    args = parse_args(argv, spec["workloads"])
    blas_threads = spec["workloads"][args.workload]["blas_threads"]
    pin_blas_threads(blas_threads)
    import_program()

    import numpy as np

    import host
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    stored = json.loads(REFERENCE_PATH.read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sgemm = host.sgemm_ceiling_gflops()
    fingerprint = host.fingerprint(wl.n_ranks, blas_threads, sgemm)
    print("host " + json.dumps(fingerprint))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    checks = Checks()
    setup_times = []
    try:
        if args.trace:
            runs, reference, metrics = run_traced(wl, args, workdir, stored["seed"], sgemm, checks)
            section = "per_layer"
        else:
            measured, setup_times, metrics = run_untraced(wl, args, workdir)
            runs = [measured]
            reference = wl.reference(workdir, stored["seed"])
            section = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_reference(checks, wl.name, reference, stored)

    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: emitted {section} metrics differ from BENCHMARK.json")
    attempted = sum(r.ops for r in runs) + reference.ops + len(checks.results)
    failed = sum(r.failed for r in runs) + reference.failed + checks.failed
    for note in [n for r in runs + [reference] for n in r.notes]:
        print("note: " + note)
    for name, ok, detail in checks.results:
        print(f"check {'ok  ' if ok else 'FAIL'} {name} ({detail})")
    unbounded = {}
    if not args.trace:
        # Printed and recorded, but not among the bounded metrics: both vary
        # from run to run more than any allowed bound (see README.md).
        timed = runs[0]
        unbounded = dict(
            timed_steps=len(timed.step_s),
            step_ms_p95=float(np.percentile(timed.step_s, 95)) * 1e3,
            loss_final=timed.loss_final,
        )
        print(f"timed steps = {unbounded['timed_steps']}; step_ms_p95 = {unbounded['step_ms_p95']:.6g} ms (not bounded)")
        print(f"set-ups = {len(setup_times)}, {min(setup_times):.4g} to {max(setup_times):.4g} s")
        if timed.loss_final is not None:
            print(f"loss_final = {timed.loss_final:.6g} mse (mean training loss of the first epoch; not bounded)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  host=fingerprint, checks=checks.results, setup_s_each=setup_times, **unbounded)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
