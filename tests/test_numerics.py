import numpy as np
import pytest

from logitgates.activations import Activation
from logitgates.experiments import ExperimentConfig
from logitgates.network import Affine, BatchNorm
from logitgates.numerics import sigmoid
from logitgates.train import TrainConfig


def test_sigmoid_reference_values():
    assert sigmoid(0.0) == 0.5
    # 1/(1+e^-2), high-precision reference
    assert sigmoid(2.0) == pytest.approx(0.88079707797788244406, rel=1e-15)
    assert sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == 0.0


def test_sigmoid_complement_within_one_ulp():
    xs = np.linspace(-40, 40, 20001)
    err = np.abs(sigmoid(-xs) - (1.0 - sigmoid(xs)))
    assert err.max() <= np.spacing(1.0)


def test_sigmoid_monotone():
    xs = np.linspace(-50, 50, 10001)
    assert np.all(np.diff(sigmoid(xs)) >= 0)


def test_total_on_finite_inputs_no_nan():
    xs = np.array([-1e12, -1e3, -1.0, -1e-12, 0.0, 1e-12, 1.0, 1e3, 1e12])
    assert np.all(np.isfinite(sigmoid(xs)))


_TRAIN = {"epochs": 1, "batch_size": 8}
_EXPERIMENT = {"task": "parity4", "activation": "relu", "widths": [4],
               "train": TrainConfig(**_TRAIN)}
_WRONG_TYPES = [
    (TrainConfig, _TRAIN | {"max_lr": True}, "max_lr"),
    (TrainConfig, _TRAIN | {"weight_decay": False}, "weight_decay"),
    (ExperimentConfig, _EXPERIMENT | {"batch_norm": "no"}, "batch_norm"),
    (ExperimentConfig, _EXPERIMENT | {"widths": 4}, "widths"),
    (ExperimentConfig, _EXPERIMENT | {"widths": (8,)}, "widths"),
    (ExperimentConfig, _EXPERIMENT | {"activation": 5}, "activation"),
    (ExperimentConfig, _EXPERIMENT | {"train": _TRAIN}, "train"),
    (ExperimentConfig, _EXPERIMENT | {"output_dir": 5}, "output_dir"),
    (ExperimentConfig, _EXPERIMENT | {"mnist_dir": [1]}, "mnist_dir"),
    (Affine, {"n_in": 8.0, "n_out": 8}, "n_in"),
    (Affine, {"n_in": True, "n_out": 2}, "n_in"),
    (BatchNorm, {"channels": 2, "momentum": True}, "momentum"),
    (Activation, {"kind": "and", "family": "il", "normalized": "yes"}, "normalized"),
]


@pytest.mark.parametrize("cls, kwargs, field", _WRONG_TYPES,
                         ids=[f"{cls.__name__}.{field}={kwargs[field]!r}"
                              for cls, kwargs, field in _WRONG_TYPES])
def test_constructors_reject_wrong_field_types(cls, kwargs, field):
    # Python callers get the rule a JSON config or a model header gets: a
    # flag is no number, a number no flag, and a field holds its declared type.
    with pytest.raises(ValueError, match=f"^{field} must be "):
        cls(**kwargs)


def test_float_fields_take_ints_and_count_fields_numpy_integers():
    assert TrainConfig(epochs=np.int64(1), batch_size=8, max_lr=1, weight_decay=0).max_lr == 1
    assert BatchNorm(np.int32(2), momentum=0, epsilon=1) == BatchNorm(2, 0.0, 1.0)
    assert ExperimentConfig(**_EXPERIMENT | {"output_dir": None, "mnist_dir": "m"}).mnist_dir == "m"
