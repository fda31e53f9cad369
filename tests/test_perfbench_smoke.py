"""The benchmark harness: a short run of each workload must finish correct, and the
library names it traces must exist."""

import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

from logitgates import data, network, train

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
    # The tracer skips a name the library no longer has, so a renamed function,
    # layer class or method would read 0 in its metrics without a failure.
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.NETWORK_LAYERS and layers.DATA_FUNCS and layers.VERIFY_FUNCS
    for cls_name in layers.NETWORK_LAYERS.values():
        cls = getattr(network, cls_name)
        assert callable(cls.forward) and callable(cls.backward), cls_name
    # Every name install_layers, gate_table and workloads.py read off a module.
    used = {
        "experiments": ("task_datasets", "build_network", "fit", "run_experiment",
                        "resolve_config", "ExperimentConfig"),
        "activations": ("apply", "gradient", *layers.NUMERICS),
        "ensemble": ("forward", "backward"),
        "verify": ("apply", "gradient", "all_activation_variants", *layers.VERIFY_FUNCS),
        "train": ("adam_step", "sgd_step", "evaluate", "NaNLossError", "TrainConfig"),
        "data": (*layers.DATA_FUNCS, "write_idx_images", "write_idx_labels", "Dataset"),
        "cli": ("main",),
    }
    # What ROADMAP item 1a drops from the harness, which the library no longer
    # has; so are TENSOR_FUNCS, whose whole module is gone.
    retired = {*(f"activations.{name}" for name in layers.NUMERICS), "ensemble.forward",
               "ensemble.backward", "train.sgd_step", "verify.mc_constants"}
    for module, names in used.items():
        lib = importlib.import_module(f"logitgates.{module}")
        for name in names:
            if f"{module}.{name}" not in retired:
                assert callable(getattr(lib, name, None)), f"{module}.{name}"
    assert callable(network.Network.forward) and train._LOSSES
    # data.read_idx_images.bytes is the size of the file its first argument names.
    assert list(inspect.signature(data.read_idx_images).parameters) == ["path"]


def test_verify_suite_benchmark_run_is_correct():
    # The workload runs the verify CLI with the benchmark's own arguments.
    cmd = [sys.executable, "perfbench/run.py", "--workload", "verify_suite", "--seed", "1",
           "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
