"""Experiment configs: task registry, network builder, and the runner."""

import json
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import data
from .data import Dataset
from .ensemble import parse_spec
from .network import Affine, BatchNorm, Network
from .numerics import check_fields, count, sigmoid
from .train import KINDS, TrainConfig, TrainReport, fit

MNIST_DIR_ENV_VAR = "LOGITGATES_MNIST_DIR"

# Per task: the network's input and output widths, and the kind of its
# datasets, whose loss (train.KINDS) is the one the task trains on.
TASKS = {
    "parity4": (4, 1, "binary"),
    "nested_xnor8": (8, 1, "regression"),
    "xor2": (2, 1, "binary"),
    "mnist": (784, 10, "classification"),
}


def task_loss(task: str) -> str:
    """The loss a task trains on: its dataset kind's."""
    return KINDS[TASKS[task][2]].loss


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    activation: str
    widths: tuple = count(1)  # a list too is taken, and stored as a tuple
    train: TrainConfig
    output_dir: str | None = None
    batch_norm: bool = False
    n_train: int = count(1, default=1024)
    n_val: int = count(1, default=1024)
    mnist_dir: str | None = None

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "widths", tuple(self.widths))
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.train.loss != task_loss(self.task):
            raise ValueError(f"train.loss: {self.task} trains on {task_loss(self.task)!r}, "
                             f"got {self.train.loss!r}")
        try:
            parse_spec(self.activation)  # validates the text form
        except ValueError as exc:
            raise ValueError(f"activation: {exc}") from exc
        try:
            _layer_specs(self.task, self.widths, self.activation, self.batch_norm)
        except ValueError as exc:  # a width the activation cannot route
            raise ValueError(f"widths: {exc}") from exc


class ConfigError(ValueError):
    """A config that config_from_dict cannot use; the message names the offending key."""


def _check_keys(cls, raw, where: str) -> None:
    """raw is an object whose keys are fields of cls, none missing; cls checks the values."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where.rstrip('.') or 'config'} must be an object, "
                          f"got {type(raw).__name__}")
    declared = {f.name: f for f in fields(cls)}
    for key in raw:
        if key not in declared:
            raise ConfigError(f"unknown key {where + key!r}")
    for f in declared.values():
        if f.default is MISSING and f.name not in raw:
            raise ConfigError(f"missing key {where + f.name!r}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The config a JSON object describes; anything unusable raises ConfigError."""
    _check_keys(ExperimentConfig, raw, "")
    _check_keys(TrainConfig, raw["train"], "train.")
    # A tuple, so that an unhashable task compares unequal; ExperimentConfig names it.
    loss = {"loss": task_loss(raw["task"])} if raw["task"] in tuple(TASKS) else {}
    # The constructors check every value, and their messages name the field.
    try:
        train = TrainConfig(**(loss | raw["train"]))
    except ValueError as exc:
        raise ConfigError(f"train.{exc}") from exc
    try:
        return ExperimentConfig(**(raw | {"train": train}))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def bundled_config_path(name: str) -> Path:
    here = Path(__file__).parent / "configs"
    candidate = here / (name if name.endswith(".json") else name + ".json")
    if not candidate.exists():
        available = sorted(p.stem for p in here.glob("*.json"))
        raise FileNotFoundError(f"no bundled config {name!r}; available: {available}")
    return candidate


def resolve_config(path_or_name: str) -> ExperimentConfig:
    """The config in the JSON file at path_or_name, or else the bundled config of that name."""
    path = Path(path_or_name)
    if not path.exists():
        path = bundled_config_path(path_or_name)
    with open(path) as f:
        try:
            return config_from_dict(json.load(f))
        except ValueError as exc:  # also JSON and UTF-8 decoding errors
            raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Network construction
# ---------------------------------------------------------------------------


def _layer_specs(task: str, widths, activation: str, batch_norm: bool) -> list:
    """Affine -> [batch norm] -> activation block per width, then the head."""
    input_width, output_width, _ = TASKS[task]
    spec = parse_spec(activation)
    layers = []
    current = input_width
    for w in map(int, widths):
        layers.append(Affine(current, w))
        if batch_norm:
            layers.append(BatchNorm(w))
        layers.append(spec)
        current = spec.out_channels(w)
    return layers + [Affine(current, output_width)]


def build_network(task: str, widths, activation: str, seed: int,
                  batch_norm: bool = False) -> Network:
    return Network(_layer_specs(task, widths, activation, batch_norm), seed=seed)


def param_count_for(task: str, widths, activation: str, batch_norm: bool = False) -> int:
    """Trainable parameter count of build_network's output, without building it."""
    layers = _layer_specs(task, widths, activation, batch_norm)
    return (sum((s.n_in + 1) * s.n_out for s in layers if isinstance(s, Affine))
            + sum(2 * s.channels for s in layers if isinstance(s, BatchNorm)))


def equal_param_relu_widths(reference: Network, task: str, n_hidden: int,
                            batch_norm: bool = False) -> list:
    """Hidden width (repeated n_hidden times) matching a reference's parameters."""
    target = reference.flat_params.size
    best_w, best_gap = 1, float("inf")
    for w in range(1, 4097):
        n = param_count_for(task, [w] * n_hidden, "relu", batch_norm)
        gap = abs(n - target)
        if gap < best_gap:
            best_w, best_gap = w, gap
    return [best_w] * n_hidden


# ---------------------------------------------------------------------------
# Datasets per task
# ---------------------------------------------------------------------------


def _mnist_paths(mnist_dir: str | None):
    root = Path(mnist_dir or os.environ.get(MNIST_DIR_ENV_VAR) or "data/mnist")
    return {
        "train_images": root / "train-images-idx3-ubyte",
        "train_labels": root / "train-labels-idx1-ubyte",
        "test_images": root / "t10k-images-idx3-ubyte",
        "test_labels": root / "t10k-labels-idx1-ubyte",
    }


def mnist_available(mnist_dir: str | None = None) -> bool:
    return all(p.exists() for p in _mnist_paths(mnist_dir).values())


def task_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """(train, validation/evaluation) pair for the configured task."""
    seed = cfg.train.seed
    if cfg.task == "parity4":
        return data.gen_parity4(cfg.n_train, seed), data.parity4_lattice()
    if cfg.task == "nested_xnor8":
        return (data.gen_nested_xnor8(cfg.n_train, seed),
                data.gen_nested_xnor8(cfg.n_val, seed + 1_000_003))
    if cfg.task == "xor2":
        ds = data.gen_xor2()
        return ds, ds
    paths = _mnist_paths(cfg.mnist_dir)
    missing = [str(p) for p in paths.values() if not p.exists()]
    if missing:
        raise FileNotFoundError(f"MNIST IDX files not found: {missing}")
    return (data.load_mnist_idx(paths["train_images"], paths["train_labels"]),
            data.load_mnist_idx(paths["test_images"], paths["test_labels"]))


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run_experiment(cfg: ExperimentConfig) -> tuple[TrainReport, Network]:
    out = Path(cfg.output_dir) if cfg.output_dir else None
    if out is not None:  # before any data is read, so an unusable path fails before the work
        out.mkdir(parents=True, exist_ok=True)
    train_ds, val_ds = task_datasets(cfg)
    net = build_network(cfg.task, cfg.widths, cfg.activation, cfg.train.seed,
                        cfg.batch_norm)
    report = fit(net, train_ds, cfg.train, val_ds)
    report.extras["task"] = cfg.task
    report.extras["activation"] = cfg.activation
    report.extras["widths"] = list(cfg.widths)
    report.extras["param_count"] = net.flat_params.size

    # The validation split is parity4's sign lattice and xor2's four training
    # points, so fit has scored them already.
    if cfg.task == "parity4":
        acc = report.extras["lattice_accuracy"] = report.final["val_accuracy"]
        report.extras["lattice_correct"] = int(round(acc * val_ds.n))
    elif cfg.task == "xor2":
        report.extras["train_points_correct"] = int(round(report.final["val_accuracy"] * val_ds.n))

    if out is not None:
        (out / "report.json").write_text(report.to_json())
        (out / "curves.csv").write_text(report.to_csv())
        net.save(out / "model.bin")
        if cfg.task == "xor2":
            export_xor_surface(net, out / "surface.csv")
    return report, net


def export_xor_surface(net: Network, path):
    """Decision surface over [-2, 2]^2 (step 0.05): CSV of x, y, output probability."""
    grid = data.xor2_grid()
    probs = sigmoid(net.forward(grid, training=False)).ravel()
    cols = np.column_stack([grid, probs])
    np.savetxt(path, cols, delimiter=",", header="x,y,prob", comments="", fmt="%.12g")
