import math

import numpy as np
import pytest

from logitgates.numerics import sigmoid, softplus


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


def test_softplus_reference_values():
    assert softplus(0.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert softplus(1000.0) == 1000.0
    assert softplus(-1000.0) == 0.0


def test_softplus_antisymmetry_identity():
    # softplus(x) - softplus(-x) = x
    xs = np.linspace(-30, 30, 6001)
    assert np.abs(softplus(xs) - softplus(-xs) - xs).max() < 1e-12


def test_total_on_finite_inputs_no_nan():
    xs = np.array([-1e12, -1e3, -1.0, -1e-12, 0.0, 1e-12, 1.0, 1e3, 1e12])
    for fn in (sigmoid, softplus):
        assert np.all(np.isfinite(fn(xs)))
