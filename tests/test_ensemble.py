import numpy as np
import pytest

from logitgates.activations import Activation
from logitgates.ensemble import EnsembleSpec, backward, forward, parse_spec

OR_AIL = Activation("or", "ail")
AND_AIL = Activation("and", "ail")
XNOR_AIL = Activation("xnor", "ail")


def test_forward_duplication_or_and():
    spec = EnsembleSpec((OR_AIL, AND_AIL), "duplication")
    out = forward(spec, np.array([[1.0, 2.0]]))
    assert np.array_equal(out, np.array([[3.0, 1.0]]))


def test_forward_partition_or_xnor():
    spec = EnsembleSpec((OR_AIL, XNOR_AIL), "partition")
    out = forward(spec, np.array([[1.0, 2.0, 2.0, -3.0]]))
    assert np.array_equal(out, np.array([[3.0, -2.0]]))


def test_forward_duplication_max_min_groupsort():
    spec = parse_spec("raw:max+min:d")
    out = forward(spec, np.array([[-2.0, 5.0]]))
    assert np.array_equal(out, np.array([[5.0, -2.0]]))


def test_backward_single_or():
    spec = EnsembleSpec((OR_AIL,), "duplication")
    _, partials = forward(spec, np.array([[1.0, 2.0]]), training=True)
    dz = backward(spec, partials, np.array([[1.0]]))
    assert np.array_equal(dz, np.array([[1.0, 1.0]]))


def test_backward_duplication_accumulates():
    spec = EnsembleSpec((OR_AIL, AND_AIL), "duplication")
    _, partials = forward(spec, np.array([[1.0, 2.0]]), training=True)
    dz = backward(spec, partials, np.array([[1.0, 1.0]]))
    # finite-difference oracle on sum(upstream * forward) gives [2, 1]
    assert np.array_equal(dz, np.array([[2.0, 1.0]]))


def test_output_dimension_law():
    for m, acts in ((1, (OR_AIL,)), (2, (OR_AIL, AND_AIL)), (3, (OR_AIL, AND_AIL, XNOR_AIL))):
        for n_c in (2, 4, 6, 12):
            dup = EnsembleSpec(acts, "duplication")
            assert dup.out_channels(n_c) == m * n_c // 2
            if n_c % (2 * m) == 0:
                part = EnsembleSpec(acts, "partition")
                assert part.out_channels(n_c) == n_c // 2
    with pytest.raises(ValueError):
        EnsembleSpec((OR_AIL, AND_AIL), "partition").out_channels(6)
    with pytest.raises(ValueError):
        EnsembleSpec((OR_AIL,), "duplication").out_channels(5)


def test_single_act_strategies_identical():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((16, 8))
    up = rng.standard_normal((16, 4))
    dup = EnsembleSpec((XNOR_AIL,), "duplication")
    part = EnsembleSpec((XNOR_AIL,), "partition")
    assert np.array_equal(forward(dup, z), forward(part, z))
    assert np.array_equal(backward(dup, forward(dup, z, training=True)[1], up),
                          backward(part, forward(part, z, training=True)[1], up))


@pytest.mark.parametrize("text,n_c", [
    ("or_ail", 6),
    ("xnor_nail", 8),
    ("nail:or+and+xnor:d", 6),
    ("ail:or+xnor:p", 8),
    ("il:or+and+xnor:p", 12),
    ("raw:max+min:d", 10),
])
def test_backward_matches_finite_differences(text, n_c):
    spec = parse_spec(text)
    rng = np.random.default_rng(np.frombuffer(text.encode().ljust(8, b"_")[:8], dtype=np.uint64))
    # keep rows whose operand pairs are all away from kink lines, so central
    # differences are valid; 6 specs x 180 rows > 1e3 random configurations
    z = rng.uniform(-5, 5, size=(220, n_c))
    x, y = z[:, 0::2], z[:, 1::2]
    bad = ((np.abs(x) < 1e-2) | (np.abs(y) < 1e-2)
           | (np.abs(x - y) < 1e-2) | (np.abs(x + y) < 1e-2)).any(axis=1)
    z = z[~bad][:180]
    assert z.shape[0] >= 170
    up = rng.standard_normal((z.shape[0], spec.out_channels(n_c)))
    ana = backward(spec, forward(spec, z, training=True)[1], up)
    h = 1e-6
    fd = np.zeros_like(z)
    for j in range(n_c):
        zp, zm = z.copy(), z.copy()
        zp[:, j] += h
        zm[:, j] -= h
        fd[:, j] = ((forward(spec, zp) - forward(spec, zm)) * up).sum(axis=1) / (2 * h)
    scale = np.maximum(np.maximum(np.abs(ana), np.abs(fd)), 1e-6)
    assert (np.abs(ana - fd) / scale).max() < 1e-5


def test_spec_text_round_trip():
    for text in ("or_ail", "xnor_nail", "relu", "max", "nail:or+and+xnor:d",
                 "ail:or+xnor:p", "il:or+and:d", "raw:max+min:d", "nil:xnor+or:p"):
        spec = parse_spec(text)
        assert parse_spec(spec.name) == spec


def test_relu_block_is_elementwise():
    spec = parse_spec("relu")
    z = np.array([[-1.0, 2.0, -3.0]])
    assert np.array_equal(forward(spec, z), np.array([[0.0, 2.0, 0.0]]))
    assert spec.out_channels(3) == 3
    dz = backward(spec, forward(spec, z, training=True)[1], np.ones((1, 3)))
    assert np.array_equal(dz, np.array([[0.0, 1.0, 0.0]]))


def test_invalid_specs():
    with pytest.raises(ValueError):
        EnsembleSpec((), "duplication")
    with pytest.raises(ValueError):
        EnsembleSpec((Activation("relu", "raw"), OR_AIL), "duplication")
    with pytest.raises(ValueError):
        parse_spec("ail:or+and")
    with pytest.raises(ValueError):
        parse_spec("nail:or:q")
    with pytest.raises(ValueError):
        spec = EnsembleSpec((OR_AIL,), "duplication")
        backward(spec, forward(spec, np.zeros((2, 4)), training=True)[1], np.zeros((2, 3)))
