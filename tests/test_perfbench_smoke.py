"""Smoke runs of the benchmark harness: a short run of each workload must finish correct."""

import json
import subprocess
import sys
from pathlib import Path

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


def test_verify_suite_benchmark_run_is_correct():
    # The workload runs the verify CLI with the benchmark's own arguments.
    cmd = [sys.executable, "perfbench/run.py", "--workload", "verify_suite", "--seed", "1",
           "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
