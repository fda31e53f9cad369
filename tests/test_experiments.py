import json
import re
import sys
from dataclasses import fields

import numpy as np
import pytest

from logitgates import data, train
from logitgates.cli import main
from logitgates.experiments import (
    ConfigError,
    ExperimentConfig,
    bundled_config_path,
    build_network,
    config_from_dict,
    equal_param_relu_widths,
    mnist_available,
    resolve_config,
    run_experiment,
    task_datasets,
)
from logitgates.network import Affine, BatchNorm
from logitgates.train import TrainConfig


def test_build_network_shapes():
    net = build_network("parity4", [4, 2], "xnor_ail", seed=0)
    assert [type(s).__name__ for s in net.specs] == [
        "Affine", "EnsembleSpec", "Affine", "EnsembleSpec", "Affine"]
    assert net.input_width == 4 and net.output_width == 1

    net = build_network("mnist", [256, 256], "ail:or+and+xnor:d", seed=0, batch_norm=True)
    assert net.input_width == 784 and net.output_width == 10
    # duplication triples the pair count: 256 -> 384
    assert net.specs[3] == Affine(384, 256)
    assert net.flat_params.size == 304_394


def test_equal_param_relu_matches_count():
    ref = build_network("mnist", [256, 256], "ail:or+and+xnor:d", seed=0, batch_norm=True)
    widths = equal_param_relu_widths(ref, "mnist", 2, batch_norm=True)
    relu_net = build_network("mnist", widths, "relu", seed=0, batch_norm=True)
    assert abs(relu_net.flat_params.size - ref.flat_params.size) < 1500


def test_bundled_configs_parse():
    for name in ("parity4_xnor_ail", "parity4_relu", "xor2_xnor_nail",
                 "nested_xnor8_xnor_ail", "nested_xnor8_relu",
                 "mnist_ail_ensemble", "mnist_relu"):
        cfg = resolve_config(name)
        assert isinstance(cfg, ExperimentConfig)
        assert isinstance(cfg.train, TrainConfig)


def test_unknown_bundled_config():
    with pytest.raises(FileNotFoundError):
        bundled_config_path("nope")


def test_config_defaults_loss_by_task():
    cfg = config_from_dict({"task": "nested_xnor8", "activation": "relu",
                            "widths": [8], "train": {"epochs": 1, "batch_size": 8}})
    assert cfg.train.loss == "mse"


def test_config_rejects_unknown_task():
    with pytest.raises(ValueError):
        config_from_dict({"task": "cifar", "activation": "relu", "widths": [8],
                          "train": {"epochs": 1, "batch_size": 8}})


def test_config_errors_name_the_key():
    good = {"task": "parity4", "activation": "relu", "widths": [4],
            "train": {"epochs": 1, "batch_size": 8}}
    for raw, key in [(good | {"bogus": 1}, "bogus"),
                     (good | {"train": {"epochs": 1, "batch_size": 8, "lrr": 0.1}}, "lrr"),
                     (good | {"train": [1]}, "train"),
                     (good | {"train": {"epochs": 0, "batch_size": 8}}, "epochs"),
                     (good | {"widths": [4, 0]}, "widths"),
                     (good | {"n_train": -1}, "n_train"),
                     (good | {"n_train": 0}, "n_train"),
                     ({"task": "nested_xnor8", "activation": "relu", "widths": [8], "n_val": 0,
                       "train": {"epochs": 1, "batch_size": 8}}, "n_val"),
                     (good | {"train": {"epochs": 1, "batch_size": 8, "seed": -1}}, "seed"),
                     ({"task": "parity4", "activation": "relu", "train": {}}, "widths")]:
        with pytest.raises(ConfigError, match=key):
            config_from_dict(raw)
    with pytest.raises(ConfigError, match="config must be an object"):
        config_from_dict([good])


@pytest.mark.parametrize("key, value", [("optimizer", "sgd"), ("momentum", 0.9), ("beta1", 0.9),
                                        ("beta2", 0.999), ("eps", 1e-8),
                                        ("schedule", "constant"), ("peak_fraction", 0.3)])
def test_removed_train_keys_are_refused(key, value):
    # Adam on the one-cycle schedule is the only recipe: a key that once chose
    # another is refused by name, never silently ignored.
    raw = {"task": "parity4", "activation": "relu", "widths": [4],
           "train": {"epochs": 1, "batch_size": 8, key: value}}
    with pytest.raises(ConfigError, match=re.escape(f"unknown key 'train.{key}'")):
        config_from_dict(raw)


@pytest.mark.parametrize("activation, widths, cause",
                         [("ail:or+and+xnor:p", [4, 2], "divisible by 6"),
                          ("xnor_ail", [5], "even channel count")],
                         ids=["partition", "duplication"])
def test_unroutable_widths_are_refused_on_read(activation, widths, cause):
    # The activation's routing rule is checked when the config is read, so
    # the error names `widths` and no data is loaded first.
    raw = {"task": "parity4", "activation": activation, "widths": widths,
           "train": {"epochs": 1, "batch_size": 8}}
    with pytest.raises(ConfigError, match=r"^widths: .*" + cause):
        config_from_dict(raw)


@pytest.mark.parametrize("field", ["n_train", "n_val", "widths"])
@pytest.mark.parametrize("value", [4.7, 4.0, True], ids=["fraction", "whole-float", "bool"])
def test_config_rejects_non_integer_counts(field, value):
    # A float width would build a layer of its integer part and a float count
    # fail later in the generators, so both are refused at construction;
    # numpy integers are integers.
    def config(count):
        counts = {"widths": [count, 2]} if field == "widths" else {"widths": [4, 2], field: count}
        return ExperimentConfig(task="nested_xnor8", activation="relu",
                                train=TrainConfig(epochs=1, batch_size=8, loss="mse"), **counts)

    with pytest.raises(ValueError, match=re.escape(field) + r"(\[0\])? must be an integer"):
        config(value)
    cfg = config(np.int64(4))
    assert build_network(cfg.task, cfg.widths, cfg.activation, seed=0).specs[0] == Affine(8, 4)


def _fuzzed(raw, rng, n_edits):
    """raw with keys dropped, renamed or given a value of another type."""
    values = [None, True, 0, -1, 2.5, "", "relu", [], [8, 0], {}, {"epochs": 1}]
    edited = []
    for _ in range(n_edits):
        target = raw["train"] if isinstance(raw.get("train"), dict) and rng.random() < 0.5 else raw
        if not target:
            continue
        key = sorted(target)[rng.integers(len(target))]
        op = rng.integers(3)
        if op == 0:
            del target[key]
        elif op == 1:
            target[key + "x"] = target.pop(key)
        else:
            target[key] = values[rng.integers(len(values))]
        edited.append(key)
    return edited


def test_fuzzed_bundled_config_fails_only_with_config_error():
    # Every failure is a ConfigError naming an edited key; every success is a
    # config of the declared field types from which a network builds.
    base = json.loads(bundled_config_path("nested_xnor8_xnor_ail").read_text())
    rng = np.random.default_rng(12)
    outcomes = {"loaded": 0, "rejected": 0}
    for case in range(600):
        raw = json.loads(json.dumps(base))
        edited = _fuzzed(raw, rng, 1 + case % 3)
        try:
            cfg = config_from_dict(raw)
        except ConfigError as exc:
            outcomes["rejected"] += 1
            assert any(key in str(exc) for key in edited), (raw, str(exc))
            continue
        outcomes["loaded"] += 1
        for obj in (cfg, cfg.train):
            for f in fields(obj):
                kind = (int, float) if f.type is float else f.type
                if f.name != "train":
                    assert isinstance(getattr(obj, f.name), kind), (f.name, raw)
        build_network(cfg.task, cfg.widths, cfg.activation, cfg.train.seed, cfg.batch_norm)
    assert min(outcomes.values()) >= 30, outcomes


def test_task_datasets_val_differs_from_train():
    cfg = config_from_dict({"task": "nested_xnor8", "activation": "xnor_ail",
                            "widths": [8], "n_train": 64, "n_val": 32,
                            "train": {"epochs": 1, "batch_size": 8, "seed": 1}})
    train, val = task_datasets(cfg)
    assert train.n == 64 and val.n == 32
    assert not np.array_equal(train.inputs[:32], val.inputs)


def test_empty_validation_set_rejected_before_training():
    # evaluate never sees an empty set: the config that asks for one is refused
    with pytest.raises(ConfigError, match="n_val"):
        config_from_dict({"task": "nested_xnor8", "activation": "xnor_ail",
                          "widths": [8], "n_train": 64, "n_val": 0,
                          "train": {"epochs": 1, "batch_size": 8, "seed": 1}})


@pytest.mark.parametrize("task, loss", [
    ("mnist", "mse"), ("parity4", "mse"), ("nested_xnor8", "cross-entropy"),
])
def test_config_loss_must_be_the_task_loss(tmp_path, task, loss):
    # fit trains on train.loss and evaluate reports the task's loss; a config
    # where the two differ is refused before anything is built.
    raw = {"task": task, "activation": "relu", "widths": [8], "n_train": 16,
           "train": {"epochs": 1, "batch_size": 8, "loss": loss}}
    with pytest.raises(ConfigError, match="loss"):
        config_from_dict(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["train", str(path), "--out-dir", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = config_from_dict({
        "task": "parity4", "activation": "xnor_ail", "widths": [4, 2],
        "n_train": 64, "output_dir": str(tmp_path),
        "train": {"epochs": 2, "batch_size": 16, "seed": 0},
    })
    report, net = run_experiment(cfg)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "model.bin").exists()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["extras"]["lattice_correct"] <= 16
    from logitgates.network import Network

    loaded = Network.load(tmp_path / "model.bin")
    x = np.random.default_rng(0).uniform(-1, 1, (4, 4))
    assert np.array_equal(loaded.forward(x), net.forward(x))


@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("task, activation, widths", [
    ("parity4", "xnor_ail", [4, 2]), ("xor2", "xnor_nail", [2]), ("nested_xnor8", "xnor_ail", [8]),
], ids=["parity4", "xor2", "nested_xnor8"])
def test_each_split_is_evaluated_once(monkeypatch, task, activation, widths, epochs):
    # fit scores the training set and the validation split once each, after
    # the last epoch, and run_experiment takes parity4's lattice and xor2's
    # points from that validation score. Every logitgates module that holds
    # evaluate gets the counter, so a pass of its own would be counted too.
    real, scored = train.evaluate, []

    def counting(net, ds):
        scored.append(ds.n)
        return real(net, ds)

    for name, module in list(sys.modules.items()):
        if name.startswith("logitgates") and getattr(module, "evaluate", None) is real:
            monkeypatch.setattr(module, "evaluate", counting)
    cfg = config_from_dict({"task": task, "activation": activation, "widths": widths,
                            "n_train": 32, "n_val": 16,
                            "train": {"epochs": epochs, "batch_size": 8, "seed": 0}})
    train_ds, val_ds = task_datasets(cfg)
    report, _ = run_experiment(cfg)
    assert scored == [train_ds.n, val_ds.n]
    assert [list(row) for row in report.epochs] == [["epoch", "mean_batch_loss"]] * epochs


def _write_synthetic_mnist(root, n_train=1536, n_test=512):
    """Learnable stand-in: class k has a bright band at rows 2k..2k+2."""
    rng = np.random.default_rng(0)

    def make(n):
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        images = rng.integers(0, 40, size=(n, 28, 28), dtype=np.uint8)
        for i, lab in enumerate(labels):
            images[i, 2 * lab:2 * lab + 3, :] = 220
        return images, labels

    root.mkdir(parents=True, exist_ok=True)
    tr_images, tr_labels = make(n_train)
    te_images, te_labels = make(n_test)
    data.write_idx_images(root / "train-images-idx3-ubyte", tr_images)
    data.write_idx_labels(root / "train-labels-idx1-ubyte", tr_labels)
    data.write_idx_images(root / "t10k-images-idx3-ubyte", te_images)
    data.write_idx_labels(root / "t10k-labels-idx1-ubyte", te_labels)


def test_mnist_pipeline_on_synthetic_idx(tmp_path, monkeypatch):
    root = tmp_path / "mnist"
    _write_synthetic_mnist(root)
    monkeypatch.setenv("LOGITGATES_MNIST_DIR", str(root))
    assert mnist_available()
    cfg = config_from_dict({
        "task": "mnist", "activation": "ail:or+and+xnor:d", "widths": [32, 32],
        "batch_norm": True,
        "train": {"epochs": 3, "batch_size": 128, "max_lr": 0.01,
                  "weight_decay": 1e-4, "seed": 0, "loss": "cross-entropy"},
    })
    report, _ = run_experiment(cfg)
    # banded digits are linearly separable; the ensemble net must nail them
    assert report.final["val_accuracy"] > 0.95


def test_mnist_unavailable_raises(tmp_path, monkeypatch):
    monkeypatch.setenv("LOGITGATES_MNIST_DIR", str(tmp_path / "nowhere"))
    assert not mnist_available()
    cfg = config_from_dict({
        "task": "mnist", "activation": "relu", "widths": [16],
        "train": {"epochs": 1, "batch_size": 32, "seed": 0},
    })
    with pytest.raises(FileNotFoundError):
        task_datasets(cfg)
