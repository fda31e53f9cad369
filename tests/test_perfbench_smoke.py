"""The benchmark harness: a short run of each workload must finish correct, and the
library names it traces must exist."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from logitgates import network

ROOT = Path(__file__).resolve().parent.parent


def test_mnist_il_benchmark_run_is_correct():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "mnist_il", "--seed", "1",
           "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


def test_nested_xnor8_ail_benchmark_run_is_correct():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "nested_xnor8_ail", "--seed", "1",
           "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


def test_traced_layer_classes_exist():
    # The tracer skips a name the library no longer has, so a renamed layer
    # class or method would read 0 in every network.* metric without a failure.
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.NETWORK_LAYERS
    for cls_name in layers.NETWORK_LAYERS.values():
        cls = getattr(network, cls_name)
        assert callable(cls.forward) and callable(cls.backward), cls_name


def test_verify_suite_benchmark_run_is_correct():
    # The workload runs the verify CLI with the benchmark's own arguments.
    cmd = [sys.executable, "perfbench/run.py", "--workload", "verify_suite", "--seed", "1",
           "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
