"""logitgates benchmark: one workload per run, end-to-end or traced per-layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mnist_il --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout and touched only from
outside. A run is a closed loop with one caller: each operation starts after
the previous one finished, until ``--seconds`` have passed. The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of one extra traced operation with ``--trace 1``. End-to-end times are
in reference seconds, scaled for the host's current speed (see calibrate.py).
The exit code is 0 only when every correctness check passed.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads its thread count when numpy is first loaded, and the modules
# below load numpy: set it before that. One thread, below the CPUs this process
# may use: with more, idle OpenBLAS workers spin between calls, a run burns two
# cores for one core of work, and its times follow the other load on the host.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})

import numpy as np  # noqa: E402
from calibrate import REFERENCE_S, calibrate  # noqa: E402
from layers import TABLE_ELEMS, gate_table, install_layers, install_phases, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HARNESS_VERSION = "2"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MODULES = ("activations", "cli", "data", "ensemble", "experiments", "network",
           "numerics", "train", "verify", "tensor")
IMPORT_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "grad_pass_s": "s", "value_pass_s": "s", "peak_rss_mb": "MB"}
# Per-layer units by the last part of the metric name; the rest are ms.
LAYER_UNITS = {"elems": "count", "calls": "count", "spans": "count", "bytes": "bytes",
               "bytes_copied": "bytes", "s": "s", "samples_per_s": "1/s",
               "value_ns_per_elem": "ns/elem", "grad_ns_per_elem": "ns/elem",
               "overhead_ratio": "ratio", "step_coverage": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import logitgates and its modules from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    lg = importlib.import_module("logitgates")
    if Path(lg.__file__).resolve().parent != SRC / "logitgates":
        raise ImportError(f"logitgates imported from {lg.__file__}, not from {SRC}")
    for name in MODULES:
        try:
            importlib.import_module(f"logitgates.{name}")
        except ModuleNotFoundError:
            pass  # a module removed from the package; its metrics read 0
    return lg


def calibrated(fn, kind, calibrations):
    """Run fn between two calibrations of this kind, appended to calibrations."""
    calibrations.append(calibrate(kind))
    result = fn()
    calibrations.append(calibrate(kind))
    return result


def import_seconds(kind, calibrations):
    """Median wall time of importing the package in a fresh interpreter.

    The interpreter times the import itself: timed from the parent, the
    polling wait of subprocess.run with a timeout rounds up by up to 50 ms.
    """
    code = ("import sys, time; start = time.perf_counter(); "
            f"sys.path.insert(0, {str(SRC)!r}); import logitgates; "
            "print(time.perf_counter() - start)")

    def once():
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120,
                             capture_output=True, text=True).stdout
        return float(out.split()[-1])

    return statistics.median(calibrated(once, kind, calibrations) for _ in range(IMPORT_REPEATS))


def blas_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads()}


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the requested one."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_record(args):
    return {"harness_version": HARNESS_VERSION, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "nproc": NPROC,
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, **blas_record(), "git_commit": git_commit()}


def run_loop(workload, lg, seconds, calibrations):
    """One warm-up operation, then a closed loop of timed ones until the deadline.

    Returns (warm-up result, timed results); at least one operation is timed.
    Each timed operation is bracketed by calibrations.
    """
    tracer = Tracer()
    install_phases(tracer, lg)
    results = []
    try:
        tracer.op = 0
        warmup = workload.run_op(tracer)
        calibrate(workload.calibration)  # its warm-up
        deadline = time.perf_counter() + seconds
        while True:
            tracer.op = len(results) + 1
            results.append(calibrated(lambda: workload.run_op(tracer), workload.calibration,
                                      calibrations))
            if time.perf_counter() >= deadline:
                break
    finally:
        tracer.restore()
    return warmup, results


def traced_op(workload, lg, path, calibrations):
    """One operation with every layer wrapped; the spans go to path."""
    tracer = Tracer()
    install_layers(tracer, lg)
    tracer.op = 0
    try:
        result = calibrated(lambda: workload.run_op(tracer), workload.calibration, calibrations)
    finally:
        tracer.restore()
    tracer.write(path)
    return (result, *layer_metrics(tracer, 0))


def _median(values):
    """Median, or 0.0 when every operation failed before it was timed."""
    return statistics.median(values) if values else 0.0


def _ratio(a, b):
    return a / b if b > 0 else 0.0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "logitgates" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'logitgates'}", file=sys.stderr)
        return 2
    try:
        lg = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import logitgates from {SRC}: {exc}", file=sys.stderr)
        return 2
    env = env_record(args)
    calibrations = []
    kind = WORKLOADS[args.workload].calibration
    import_s = import_seconds(kind, calibrations)
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        workload = WORKLOADS[args.workload](lg, args.seed, scratch)
        warmup, results = run_loop(workload, lg, args.seconds, calibrations)
        traced = None
        if args.trace:
            stem = f"{args.workload}-seed{args.seed}"
            traced_calibrations = []
            traced, per_layer, steps = traced_op(workload, lg, OUT / f"spans-{stem}.jsonl.gz",
                                                 traced_calibrations)
            per_layer.update(gate_table(lg))

    everything = [warmup] + results + ([traced] if traced else [])
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    errors = [e for r in everything for e in r.errors]
    losses = {r.val_loss for r in everything if r.val_loss is not None}
    if len(losses) > 1:
        failed += 1
        errors.append(f"same-seed val_loss differs between runs: {sorted(losses)}")

    # Medians of the wall times, then scaled to reference seconds by the
    # run's median calibration (see calibrate.py).
    wall = {
        "setup_s": import_s + _median([r.setup_s for r in results]),
        "grad_pass_s": _median([t for r in results for t in r.grad_s]),
        "value_pass_s": _median([t for r in results for t in r.value_s]),
    }
    host_speed = REFERENCE_S[kind] / statistics.median(calibrations)
    end_to_end = {name: t * host_speed for name, t in wall.items()}
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    grad_s, value_s = end_to_end["grad_pass_s"], end_to_end["value_pass_s"]
    # The same numbers under the names a user of each workload reads.
    named = {"setup_s": (end_to_end["setup_s"], "s")}
    if hasattr(workload, "train_samples"):
        named["train_samples_per_s"] = (_ratio(workload.train_samples, grad_s), "1/s")
        named["infer_samples_per_s"] = (_ratio(workload.n_val, value_s), "1/s")
        named["val_loss"] = (min(losses) if losses else float("nan"), "loss")
    else:
        named["verify_s"] = (grad_s + value_s, "s")
    named["peak_rss_mb"] = (end_to_end["peak_rss_mb"], "MB")
    named["failed_frac"] = (failed / max(attempted, 1), "1")

    if args.trace:
        traced_speed = REFERENCE_S[kind] / statistics.median(traced_calibrations)
        per_layer["trace.overhead_ratio"] = _ratio(grad_s, _median(traced.grad_s) * traced_speed)
        metrics = {k: {"value": v, "unit": LAYER_UNITS.get(k.rsplit(".", 1)[-1], "ms")}
                   for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    correct = failed == 0
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} ops={len(results)}")
    for name, (value, unit) in named.items():
        print(f"  {name:<22} {value:.6g} {unit}")
    print("  wall (unscaled): " + ", ".join(f"{k} {v:.6g} s" for k, v in wall.items())
          + f"; host speed {host_speed:.4g} (reference {REFERENCE_S[kind]} s / median of "
          f"{len(calibrations)} {kind!r} calibrations)")
    if args.trace:
        print(f"  traced operation: {steps} training steps; gate table on "
              f"{TABLE_ELEMS} elements per operand")
    for message in errors:
        print(f"  FAILED: {message}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"env": env, **result}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
