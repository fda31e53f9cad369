import json

import numpy as np
import pytest

from logitgates.activations import Activation, apply
from logitgates.ensemble import EnsembleSpec, parse_spec
from logitgates.experiments import bundled_config_path
from logitgates.network import Affine, Network
from logitgates.verify import all_activation_variants

OR_AIL = Activation("or", "ail")
AND_AIL = Activation("and", "ail")
XNOR_AIL = Activation("xnor", "ail")


def act_layer(spec, n_c):
    """The activation block a network builds for an n_c-wide input."""
    return Network([Affine(n_c, n_c), spec], seed=0).layers[1]


def forward(spec, z):
    return act_layer(spec, z.shape[-1]).forward(z, False)


def input_gradient(spec, z, upstream):
    """d(sum(upstream * block(z))) / dz through the block's backward."""
    layer = act_layer(spec, z.shape[-1])
    layer.forward(z, True)
    return layer.backward(upstream)


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
    dz = input_gradient(spec, np.array([[1.0, 2.0]]), np.array([[1.0]]))
    assert np.array_equal(dz, np.array([[1.0, 1.0]]))


def test_backward_duplication_accumulates():
    spec = EnsembleSpec((OR_AIL, AND_AIL), "duplication")
    dz = input_gradient(spec, np.array([[1.0, 2.0]]), np.array([[1.0, 1.0]]))
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
    assert np.array_equal(input_gradient(dup, z, up), input_gradient(part, z, up))


@pytest.mark.parametrize("text", [
    "il:or+and+xnor:d", "nil:or+and+xnor:d", "ail:or+and+xnor:d",
    "ail:or+xnor:p", "nil:or+and+xnor:p",
])
def test_block_equals_per_activation_apply(text):
    # Under duplication the block applies each act to the whole pair list,
    # under partition act j to the j-th contiguous block of pairs, and joins
    # the results; it must give what each act alone gives, bit for bit.
    spec = parse_spec(text)
    z = np.random.default_rng(3).standard_normal((64, 60)) * 3.0
    x, y = z[:, 0::2], z[:, 1::2]
    if spec.strategy == "partition":
        w = x.shape[1] // spec.m
        operands = [(x[:, j * w:(j + 1) * w], y[:, j * w:(j + 1) * w]) for j in range(spec.m)]
    else:
        operands = [(x, y)] * spec.m
    per_act = [apply(act, *xy, grad=True) for act, xy in zip(spec.acts, operands)]
    layer = act_layer(spec, z.shape[1])
    value = layer.forward(z, True)
    gx, gy = layer._partials
    for got, want in zip((layer.forward(z, False), value, gx, gy),
                         (np.concatenate([r[i] for r in per_act], axis=1) for i in (0, 0, 1, 2))):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("text", ["xnor_ail", "relu", "ail:or+xnor:p", "nil:or+and+xnor:d"])
def test_block_passes_an_empty_batch(text):
    # Operands are 1-D views of the input, and each act's output is reshaped
    # to its fixed width, so a batch with no rows keeps every width.
    spec = parse_spec(text)
    layer, z, width = act_layer(spec, 8), np.zeros((0, 8)), spec.out_channels(8)
    assert layer.forward(z, False).shape == (0, width)
    assert layer.forward(z, True).shape == (0, width)
    assert layer.backward(np.zeros((0, width))).shape == (0, 8)


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
    ana = input_gradient(spec, z, up)
    h = 1e-6
    fd = np.zeros_like(z)
    for j in range(n_c):
        zp, zm = z.copy(), z.copy()
        zp[:, j] += h
        zm[:, j] -= h
        fd[:, j] = ((forward(spec, zp) - forward(spec, zm)) * up).sum(axis=1) / (2 * h)
    scale = np.maximum(np.maximum(np.abs(ana), np.abs(fd)), 1e-6)
    assert (np.abs(ana - fd) / scale).max() < 1e-5


def test_spec_text_round_trip(tmp_path):
    # parse_spec is the one grammar: it reads every activation's name and
    # every ensemble's text form back into the spec that wrote it. A single
    # activation routes alike under either strategy, so its ':p' form names
    # the same spec as its activation name, and a saved network reloads it.
    texts = ["or_ail", "xnor_nail", "relu", "max", "nail:or+and+xnor:d",
             "ail:or+xnor:p", "il:or+and:d", "raw:max+min:d", "nil:xnor+or:p"]
    texts += [json.loads(path.read_text())["activation"]
              for path in sorted(bundled_config_path("xor2_xnor_nail").parent.glob("*.json"))]
    for text, name in [(t, t) for t in texts] + [("ail:or:p", "or_ail"), ("raw:relu:p", "relu")]:
        spec = parse_spec(text)
        assert spec.name == name
        assert parse_spec(spec.name) == spec
        net = Network([Affine(2, 4), spec], seed=0)
        net.save(tmp_path / "model.bin")
        assert Network.load(tmp_path / "model.bin").specs == net.specs
    for act in all_activation_variants():
        assert parse_spec(act.name) == EnsembleSpec((act,))
        assert parse_spec(act.name).name == act.name


def test_mixed_family_ensemble_rejected_on_construction():
    # The text form names one family per ensemble, so a spec that mixes
    # families could be trained but not saved; it is not constructible.
    for acts in ((Activation("xnor", "il"), OR_AIL),
                 (OR_AIL, Activation("and", "ail", normalized=True)),
                 (Activation("max"), AND_AIL)):
        with pytest.raises(ValueError, match="single family"):
            EnsembleSpec(acts, "duplication")


def test_relu_block_is_elementwise():
    spec = parse_spec("relu")
    z = np.array([[-1.0, 2.0, -3.0]])
    assert np.array_equal(forward(spec, z), np.array([[0.0, 2.0, 0.0]]))
    assert spec.out_channels(3) == 3
    dz = input_gradient(spec, z, np.ones((1, 3)))
    assert np.array_equal(dz, np.array([[0.0, 1.0, 0.0]]))


def test_invalid_specs():
    with pytest.raises(ValueError):
        EnsembleSpec((), "duplication")
    with pytest.raises(ValueError):
        EnsembleSpec((Activation("relu", "raw"), OR_AIL), "duplication")
    for text in ("nand_il", "and_raw", "ail:or+and", "nail:or:q"):
        with pytest.raises(ValueError):
            parse_spec(text)
    # A block's widths are checked once, when the network is built, and its
    # upstream width on every backward.
    spec = EnsembleSpec((OR_AIL,), "duplication")
    with pytest.raises(ValueError, match="layer 1: duplication needs an even channel count"):
        Network([Affine(4, 5), spec])
    net = Network([Affine(4, 4), spec])
    net.forward(np.zeros((2, 4)), training=True)
    with pytest.raises(ValueError):
        net.backward(np.zeros((2, 3)))
