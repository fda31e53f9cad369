"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values. Criteria 3a and 6a are strict xfails: the stated
thresholds are not attainable (see the repository notes); the tests assert
them anyway and the suite records the failure as expected. Every criterion
that trains runs configs bundled with the package, overriding only the seed,
so an edited shipped config is certified again.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import logitgates
from logitgates.activations import (
    GATE_KINDS,
    Activation,
    NORMALIZATION_TABLE,
    OR_AIL_MEAN,
    OR_AIL_STD,
    XNOR_AIL_STD,
    and_ail,
    and_il,
    or_ail,
    or_il,
    relu,
    xnor_ail,
    xnor_il,
)
from logitgates.data import write_idx_images, write_idx_labels
from logitgates.ensemble import parse_spec
from logitgates.experiments import (
    bundled_config_path,
    build_network,
    equal_param_relu_widths,
    mnist_available,
    resolve_config,
    run_experiment,
)
from logitgates.network import Affine, Network
from logitgates.numerics import sigmoid
from logitgates.verify import (
    all_activation_variants,
    gradcheck_activation,
    gradcheck_network,
    grid_compare,
    normal_moments,
)

SEEDS = range(5)


def report(line: str):
    print(f"\n[acceptance] {line}")


def run_bundled(name: str, seed: int):
    """The report of bundled config `name` trained with train.seed set to seed,
    as `logitgates train name --seed seed` runs it."""
    cfg = resolve_config(name)
    report_obj, _ = run_experiment(replace(cfg, train=replace(cfg.train, seed=seed)))
    return report_obj


def test_criterion_1_parity_learnability():
    t0 = time.time()
    correct = [run_bundled("parity4_xnor_ail", seed).extras["lattice_correct"] for seed in SEEDS]
    elapsed = time.time() - t0
    solved = sum(c == 16 for c in correct)
    report(f"criterion 1 (parity-4 with xnor_ail): lattice correct per seed {correct}, "
           f"{solved}/5 at 16/16, {elapsed:.1f}s -> "
           f"{'PASS' if solved >= 4 and elapsed < 10 else 'FAIL'}")
    assert solved >= 4
    assert elapsed < 10


def test_criterion_2_parity_relu_deficit():
    t0 = time.time()
    correct = [run_bundled("parity4_relu", seed).extras["lattice_correct"] for seed in SEEDS]
    elapsed = time.time() - t0
    below = sum(c < 16 for c in correct)
    median = float(np.median(correct))
    ok = below >= 4 and median <= 12 and elapsed < 10
    report(f"criterion 2 (parity-4 with relu): lattice correct per seed {correct}, "
           f"median {median}, {elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}")
    assert below >= 4
    assert median <= 12
    assert elapsed < 10


@pytest.mark.xfail(
    strict=True,
    reason="the tiny gate network cannot recover the sign-parity structure by "
    "gradient descent at desk scale: ~50 configurations and a 10x step budget "
    "all plateau near the best-constant RMSE (see decisions notes); the "
    "labelling function is exactly expressible by this network and that "
    "solution is a stable attractor, so this is an optimization barrier, not "
    "an implementation gap",
)
def test_criterion_3a_nested_xnor_net():
    t0 = time.time()
    rmses = [run_bundled("nested_xnor8_xnor_ail", seed).final["val_rmse"] for seed in SEEDS]
    elapsed = time.time() - t0
    good = sum(r <= 0.05 for r in rmses)
    report(f"criterion 3a (nested regression, xnor_ail): val RMSE per seed "
           f"{[round(r, 4) for r in rmses]}, {good}/5 at <= 0.05, {elapsed:.1f}s -> "
           f"{'PASS' if good >= 3 else 'FAIL (expected, see notes)'}")
    assert good >= 3


def test_criterion_3b_nested_relu_deficit():
    t0 = time.time()
    rmses = [run_bundled("nested_xnor8_relu", seed).final["val_rmse"] for seed in SEEDS]
    elapsed = time.time() - t0
    stuck = sum(r >= 0.15 for r in rmses)
    ok = stuck >= 4 and elapsed < 60
    report(f"criterion 3b (nested regression, relu): val RMSE per seed "
           f"{[round(r, 4) for r in rmses]}, {stuck}/5 at >= 0.15, {elapsed:.1f}s -> "
           f"{'PASS' if ok else 'FAIL'}")
    assert stuck >= 4
    assert elapsed < 60


def test_criterion_4_xor_single_hidden_layer():
    t0 = time.time()
    solved = 0
    per_seed = []
    for seed in SEEDS:
        per_seed.append(run_bundled("xor2_xnor_nail", seed).extras["train_points_correct"])
        solved += per_seed[-1] == 4
    elapsed = time.time() - t0
    ok = solved >= 4 and elapsed < 5
    report(f"criterion 4 (xor with xnor_nail): points correct per seed {per_seed}, "
           f"{elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}")
    assert solved >= 4
    assert elapsed < 5


def test_criterion_5_normalization_constants():
    t0 = time.time()
    lines = []
    rows = sorted(NORMALIZATION_TABLE.items())
    moments = normal_moments([Activation(kind, family) for (kind, family), _ in rows])
    for (kind, family), (mean_ref, std_ref) in rows:
        mean, std = moments[f"{kind}_{family}"]
        mean_dev = abs(mean - mean_ref)
        std_dev = abs(std - std_ref)
        lines.append(f"{kind}_{family}: |dmean|={mean_dev:.2e} |dstd|={std_dev:.2e}")
        # ail rows are closed forms; il rows are published 5-digit data
        bound = 1e-12 if family == "ail" else 5e-5
        assert mean_dev <= bound, (kind, family)
        assert std_dev <= bound, (kind, family)
    # closed forms against the published table, to 5e-5
    assert abs(OR_AIL_MEAN - 0.68104) <= 5e-5
    assert abs(OR_AIL_STD - 0.97229) <= 5e-5
    assert abs(XNOR_AIL_STD - 0.60281) <= 5e-5
    elapsed = time.time() - t0
    report(f"criterion 5 (normalization constants, quadrature): ail rows within 1e-12, "
           f"il rows within 5e-5; closed forms within 5e-5; {elapsed:.1f}s -> "
           f"{'PASS' if elapsed < 60 else 'FAIL'}\n  " + "\n  ".join(lines))
    assert elapsed < 60


_GRID_REPORTS = {}


def _grid(kind):
    # One walk of the grid verify --diff-bound checks serves all three kinds.
    if not _GRID_REPORTS:
        _GRID_REPORTS.update((rep.kind, rep) for rep in grid_compare(GATE_KINDS, 10.0, 0.01))
    return _GRID_REPORTS[kind]


def test_criterion_6_xnor_bound_and_strict_reporting():
    t0 = time.time()
    rep = _grid("xnor")
    lines = [f"xnor: off-boundary max {rep.masked_max_abs_diff:.6f}, "
             f"strict max {rep.max_abs_diff:.6f}"]
    assert rep.masked_max_abs_diff <= 1.0 + 1e-9
    for kind in ("and", "or"):
        g = _grid(kind)
        lines.append(f"{kind}: off-boundary max {g.masked_max_abs_diff:.6f}, "
                     f"strict max {g.max_abs_diff:.6f}")
    elapsed = time.time() - t0
    report(f"criterion 6 (difference bound, eps=0.02): xnor PASS; and/or exceed "
           f"the stated bound (expected, see notes); {elapsed:.1f}s\n  "
           + "\n  ".join(lines))
    assert elapsed < 30


@pytest.mark.xfail(
    strict=True,
    reason="|and_ail - and_il| reaches 1.0755 on the 0.01 grid even outside the "
    "0.02 exclusion bands (the >1 region is a blob of radius ~0.1 around the "
    "origin, strict sup log 3); the claimed bound of 1 holds only for the wider "
    "0.1 exclusion (see README.md, section 'Install and test')",
)
def test_criterion_6a_and_or_bound_as_stated():
    for kind in ("and", "or"):
        assert _grid(kind).masked_max_abs_diff <= 1.0 + 1e-9, kind


def test_criterion_7_gradient_correctness():
    t0 = time.time()
    worst_act = 0.0
    # seeds 49, 286 and 349 put xnor_il points near x = 0, where a value
    # computed as logit(p) from a rounded p cancels and the difference
    # quotient misses the 1e-5 tolerance
    for seed in (0, 49, 286, 349):
        for rep in gradcheck_activation(all_activation_variants(), seed=seed):
            worst_act = max(worst_act, rep.value)
            assert rep.passed, f"{rep.name} seed {seed}: {rep.value:.2e}"

    worst_net = 0.0
    rng = np.random.default_rng(0)
    for family in ("il", "ail", "nil", "nail"):
        for strategy in ("p", "d"):
            spec_text = f"{family}:or+and+xnor:{strategy}"
            spec = parse_spec(spec_text)
            net = Network([Affine(6, 12), spec,
                           Affine(spec.out_channels(12), 2)], seed=31)
            x = rng.uniform(-2, 2, (12, 6))
            err = gradcheck_network(net, x, seed=31)
            worst_net = max(worst_net, err)
            assert err < 1e-4, f"{spec_text}: {err:.2e}"
    for kind in ("and", "or", "xnor"):
        for family in ("il", "ail"):
            for suffix in ("", "n"):
                name = f"{kind}_{suffix}{family}"
                net = Network([Affine(4, 4), parse_spec(name),
                               Affine(2, 2), parse_spec(name),
                               Affine(1, 1)], seed=37)
                x = rng.uniform(-2, 2, (16, 4))
                err = gradcheck_network(net, x, seed=37)
                worst_net = max(worst_net, err)
                assert err < 1e-4, f"{name}: {err:.2e}"
    elapsed = time.time() - t0
    ok = elapsed < 30
    report(f"criterion 7 (gradients): activations worst rel err {worst_act:.2e} "
           f"(< 1e-5), end-to-end worst {worst_net:.2e} (< 1e-4), {elapsed:.1f}s -> "
           f"{'PASS' if ok else 'FAIL'}")
    assert elapsed < 30


def test_criterion_8_algebraic_identities():
    rng = np.random.default_rng(8)
    n = 10_000
    x = rng.uniform(-20, 20, n)
    y = rng.uniform(-20, 20, n)
    assert np.array_equal(and_ail(x, y), -or_ail(-x, -y))
    assert np.array_equal(and_il(x, y), -or_il(-x, -y))
    assert np.array_equal(or_ail(x, np.zeros(n)), relu(x))
    err_and = np.abs(sigmoid(and_il(x, y)) - sigmoid(x) * sigmoid(y)).max()
    err_or = np.abs(sigmoid(or_il(x, y)) - (1 - sigmoid(-x) * sigmoid(-y))).max()
    assert err_and < 1e-12 and err_or < 1e-12
    odd_ail = np.abs(xnor_ail(-x, y) + xnor_ail(x, y)).max()
    odd_il = np.abs(xnor_il(-x, y) + xnor_il(x, y)).max()
    assert odd_ail < 1e-9 and odd_il < 1e-9
    report(f"criterion 8 (identities over 1e4 points): duality exact, "
           f"or_ail(x,0)=relu(x) exact, probability identities {max(err_and, err_or):.1e}, "
           f"odd symmetry {max(odd_ail, odd_il):.1e} -> PASS")


def test_criterion_9_relu_baseline_is_parameter_matched():
    # Criterion 9's ReLU run is the ensemble's recipe at the hidden width that
    # matches its parameter count; the bundled pair is checked without MNIST.
    ail = resolve_config("mnist_ail_ensemble")
    relu = resolve_config("mnist_relu")
    net = build_network(ail.task, ail.widths, ail.activation, ail.train.seed, ail.batch_norm)
    matched = equal_param_relu_widths(net, ail.task, len(ail.widths), ail.batch_norm)
    widths = list(relu.widths)  # the config holds a tuple, the scan gives a list
    report(f"criterion 9 (mnist relu baseline): bundled widths {widths}, "
           f"parameter-matched {matched} -> {'PASS' if widths == matched else 'FAIL'}")
    assert widths == matched
    assert (relu.task, relu.batch_norm, relu.train) == (ail.task, ail.batch_norm, ail.train)


def test_criterion_9_mnist_desk_scale():
    if not mnist_available():
        report("criterion 9 (mnist): SKIPPED - MNIST IDX files not found "
               "(set LOGITGATES_MNIST_DIR or place files under data/mnist)")
        pytest.skip("MNIST IDX files absent; criterion skipped with warning")
    t0 = time.time()
    ail_report = run_bundled("mnist_ail_ensemble", seed=0)
    relu_report = run_bundled("mnist_relu", seed=0)
    elapsed = time.time() - t0
    acc = ail_report.final["val_accuracy"]
    relu_acc = relu_report.final["val_accuracy"]
    ok = acc >= 0.96 and acc >= relu_acc - 0.005 and elapsed < 600
    relu_width = relu_report.extras["widths"][0]
    report(f"criterion 9 (mnist): ensemble acc {acc:.4f}, relu ({relu_width} wide) "
           f"acc {relu_acc:.4f}, {elapsed:.0f}s -> {'PASS' if ok else 'FAIL'}")
    assert acc >= 0.96
    assert acc >= relu_acc - 0.005
    assert elapsed < 600


def test_criterion_10_determinism():
    first = run_bundled("parity4_xnor_ail", seed=0)
    second = run_bundled("parity4_xnor_ail", seed=0)
    identical = first.to_json().encode() == second.to_json().encode()
    report(f"criterion 10 (determinism): byte-identical reports -> "
           f"{'PASS' if identical else 'FAIL'}")
    assert identical


def test_criterion_10_determinism_per_blas_thread_count(tmp_path):
    # The BLAS blocks its products by thread count, so an MNIST-sized run
    # repeats its bytes only at a fixed count. Train the bundled
    # mnist_ail_ensemble for 2 steps on random IDX files, twice at each count,
    # each run in its own interpreter.
    rng = np.random.default_rng(0)
    for prefix, n in (("train", 512), ("t10k", 64)):
        write_idx_images(tmp_path / f"{prefix}-images-idx3-ubyte",
                         rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8))
        write_idx_labels(tmp_path / f"{prefix}-labels-idx1-ubyte", rng.integers(0, 10, size=n))
    raw = json.loads(bundled_config_path("mnist_ail_ensemble").read_text())
    raw["train"]["epochs"] = 1
    raw["mnist_dir"] = str(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(raw))
    src = str(Path(logitgates.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs = [tmp_path / f"t{threads}_{i}" for i in range(2)]
        procs = [subprocess.Popen([sys.executable, "-m", "logitgates.cli", "train",
                                   str(tmp_path / "config.json"), "--out-dir", str(out)],
                                  env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                 for out in outs]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        runs[threads] = [(out / "model.bin").read_bytes() for out in outs]
    repeated = {t: first == second for t, (first, second) in runs.items()}
    report(f"criterion 10 (determinism) at 784-wide products: model.bin repeated per "
           f"BLAS thread count {repeated}, 1 vs 2 threads equal: "
           f"{runs['1'][0] == runs['2'][0]} -> {'PASS' if all(repeated.values()) else 'FAIL'}")
    assert all(repeated.values())
