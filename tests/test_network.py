import json
import re
import struct

import numpy as np
import pytest

from logitgates.activations import Activation
from logitgates.ensemble import parse_spec
from logitgates.network import Affine, BatchNorm, ModelFormatError, Network, spec_to_dict
from logitgates.verify import gradcheck_network


def xnor_block():
    return parse_spec("xnor_ail")


def parity_specs():
    return [Affine(4, 4), xnor_block(), Affine(2, 2), xnor_block(), Affine(1, 1)]


def test_init_deterministic():
    a = Network(parity_specs(), seed=7)
    b = Network(parity_specs(), seed=7)
    for (_, pa, _, _), (_, pb, _, _) in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)
        assert pa.tobytes() == pb.tobytes()


def test_init_bounds_and_defaults():
    net = Network([Affine(4, 4), BatchNorm(4), xnor_block(), Affine(2, 1)], seed=0)
    aff = net.layers[0]
    assert np.abs(aff.weight).max() <= 0.5
    assert np.array_equal(aff.bias, np.zeros(4))
    bn = net.layers[1]
    assert np.array_equal(bn.gamma, np.ones(4)) and np.array_equal(bn.beta, np.zeros(4))


def test_parity_network_chains_to_scalar():
    net = Network(parity_specs(), seed=0)
    assert net.input_width == 4 and net.output_width == 1
    y = net.forward(np.zeros((3, 4)))
    assert y.shape == (3, 1)


def test_inconsistent_chain_rejected():
    with pytest.raises(ValueError):
        Network([Affine(4, 4), xnor_block(), Affine(4, 2)], seed=0)
    with pytest.raises(ValueError):
        Network([Affine(4, 3), xnor_block()], seed=0)  # odd width into a pair block
    with pytest.raises(ValueError):
        Network([Affine(4, 4), BatchNorm(8)], seed=0)


@pytest.mark.parametrize("specs, message", [
    ([Affine(4, 4), BatchNorm(4), Affine(3, 2)], "affine expects 3 channels, gets 4"),
    ([Affine(4, 4), xnor_block(), BatchNorm(4)], "batch norm over 4 channels, gets 2"),
    ([Affine(4, 3), BatchNorm(3), xnor_block()], "duplication needs an even channel count"),
], ids=["affine", "batch_norm", "activation"])
def test_width_mismatch_names_its_layer(specs, message):
    with pytest.raises(ValueError, match=f"^layer 2: {message}"):
        Network(specs, seed=0)


@pytest.mark.parametrize("layer", [Activation("relu"), "relu"], ids=["activation", "text"])
def test_a_layer_that_is_no_layer_spec_is_refused(layer):
    # An activation belongs in a network inside its EnsembleSpec.
    message = f"layer 1: {layer!r} is not a layer spec (one of Affine, BatchNorm, EnsembleSpec)"
    with pytest.raises(ValueError, match=re.escape(message)):
        Network([Affine(2, 2), layer, Affine(2, 1)])


def test_spec_to_dict_refuses_what_is_no_layer_spec():
    with pytest.raises(TypeError, match="unknown layer spec 'relu'"):
        spec_to_dict("relu")


def test_network_needs_an_affine_first_layer():
    with pytest.raises(ValueError, match="network needs at least one layer"):
        Network([])
    with pytest.raises(ValueError, match="first layer must be affine"):
        Network([BatchNorm(4), Affine(4, 1)])


def test_forward_refuses_an_input_of_another_width():
    with pytest.raises(ValueError, match="input has 3 columns, network expects 4"):
        Network(parity_specs()).forward(np.zeros((2, 3)))


def test_zero_weight_network_outputs_bias():
    net = Network([Affine(3, 2)], seed=0)
    net.layers[0].weight[:] = 0.0
    net.layers[0].bias[:] = [1.5, -2.0]
    y = net.forward(np.random.default_rng(0).standard_normal((5, 3)))
    assert np.allclose(y, np.tile([1.5, -2.0], (5, 1)))


def test_single_affine_is_matmul_plus_bias():
    net = Network([Affine(3, 2)], seed=1)
    x = np.random.default_rng(1).standard_normal((4, 3))
    expected = x @ net.layers[0].weight + net.layers[0].bias
    assert np.array_equal(net.forward(x), expected)


def test_or_ail_block_reduces_to_relu_on_zero_operand():
    # second operand forced to 0 => block output is max(first operand, 0)
    net = Network([Affine(2, 2), parse_spec("or_ail")], seed=0)
    net.layers[0].weight[:] = np.array([[1.0, 0.0], [0.0, 0.0]])
    net.layers[0].bias[:] = 0.0
    x = np.linspace(-3, 3, 13).reshape(-1, 1)
    x = np.hstack([x, np.ones_like(x)])
    y = net.forward(x)
    assert np.array_equal(y.ravel(), np.maximum(x[:, 0], 0.0))


def test_forward_and_backward_require_matrices():
    net = Network([Affine(2, 1)], seed=0)
    assert net.forward([[1, 2], [3, 4]]).dtype == np.float64
    with pytest.raises(ValueError):
        net.forward([1.0, 2.0])
    net.forward(np.zeros((2, 2)), training=True)
    with pytest.raises(ValueError):
        net.backward(np.ones(2))
    with pytest.raises(ValueError):
        net.backward(np.ones((2, 3)))


def test_backward_requires_training_forward():
    net = Network(parity_specs(), seed=0)
    net.forward(np.zeros((2, 4)), training=False)
    with pytest.raises(RuntimeError):
        net.backward(np.ones((2, 1)))


def test_backward_needs_one_forward_each():
    # Batch norm's backward overwrites what its forward cached.
    net = Network([Affine(4, 4), BatchNorm(4), parse_spec("or_il"), Affine(2, 1)],
                  seed=0)
    net.forward(np.random.default_rng(0).standard_normal((8, 4)), training=True)
    net.backward(np.ones((8, 1)))
    with pytest.raises(RuntimeError):
        net.backward(np.ones((8, 1)))


@pytest.mark.parametrize("training", [False, True])
def test_forward_leaves_caller_input_unchanged(training):
    # Batch norm writes over its input, which is never the caller's array.
    net = Network([Affine(4, 4), BatchNorm(4), BatchNorm(4), parse_spec("xnor_il"),
                   Affine(2, 2), BatchNorm(2)], seed=1)
    x = np.random.default_rng(1).standard_normal((8, 4))
    before = x.copy()
    out = net.forward(x, training=training)
    assert np.array_equal(x, before)
    assert not np.shares_memory(out, x)


def test_batchnorm_in_place_matches_out_of_place_formulas():
    # Forward and backward written over their inputs keep every bit of the
    # textbook expressions.
    rng = np.random.default_rng(5)
    net = Network([Affine(3, 6), BatchNorm(6)], seed=5)
    bn = net.layers[1]
    bn.gamma[:] = rng.uniform(0.5, 2.0, 6)
    bn.beta[:] = rng.standard_normal(6)
    z = rng.standard_normal((16, 6)) * 3.0 + 1.0
    up = rng.standard_normal((16, 6))

    mean, var = z.mean(axis=0), z.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + bn.spec.epsilon)
    xhat = (z - mean) * inv_std
    out_ref = bn.gamma * xhat + bn.beta
    dxhat = up * bn.gamma
    dz_ref = (inv_std / 16) * (16 * dxhat - dxhat.sum(axis=0)
                               - xhat * (dxhat * xhat).sum(axis=0))
    gamma_ref, beta_ref = (up * xhat).sum(axis=0), up.sum(axis=0)

    assert np.array_equal(bn.forward(z.copy(), True), out_ref)
    assert np.array_equal(bn.backward(up), dz_ref)
    assert np.array_equal(bn.grad_gamma, gamma_ref)
    assert np.array_equal(bn.grad_beta, beta_ref)
    run_mean, run_var = bn.running_mean.copy(), bn.running_var.copy()
    eval_ref = bn.gamma * ((z - run_mean) * (1.0 / np.sqrt(run_var + bn.spec.epsilon))) + bn.beta
    assert np.array_equal(bn.forward(z.copy(), False), eval_ref)


def test_backward_zero_upstream_and_linearity():
    net = Network(parity_specs(), seed=3)
    x = np.random.default_rng(3).uniform(-1, 1, (8, 4))
    net.forward(x, training=True)
    net.backward(np.zeros((8, 1)))
    grads0 = [g.copy() for _, _, g, _ in net.parameters()]
    assert all(np.all(g == 0) for g in grads0)

    up = np.random.default_rng(4).standard_normal((8, 1))
    net.forward(x, training=True)
    net.backward(up)
    g1 = [g.copy() for _, _, g, _ in net.parameters()]
    net.forward(x, training=True)
    net.backward(2 * up)
    g2 = [g.copy() for _, _, g, _ in net.parameters()]
    for a, b in zip(g1, g2):
        assert np.allclose(2 * a, b, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("spec_text", [
    "and_il", "or_il", "xnor_il", "and_ail", "or_ail", "xnor_ail",
    "and_nil", "or_nil", "xnor_nil", "and_nail", "or_nail", "xnor_nail",
])
def test_end_to_end_gradcheck_single_acts(spec_text):
    specs = [Affine(4, 4), parse_spec(spec_text),
             Affine(2, 2), parse_spec(spec_text), Affine(1, 1)]
    net = Network(specs, seed=11)
    x = np.random.default_rng(11).uniform(-2, 2, (16, 4))
    assert gradcheck_network(net, x, seed=11) < 1e-4


@pytest.mark.parametrize("spec_text", ["ail:or+and+xnor:d", "nail:or+xnor:p",
                                       "il:or+xnor:d", "raw:max+min:d"])
def test_end_to_end_gradcheck_ensembles(spec_text):
    specs = [Affine(6, 12), parse_spec(spec_text)]
    spec = parse_spec(spec_text)
    width = spec.out_channels(12)
    specs.append(Affine(width, 2))
    net = Network(specs, seed=13)
    x = np.random.default_rng(13).uniform(-2, 2, (12, 6))
    assert gradcheck_network(net, x, seed=13) < 1e-4


def test_end_to_end_gradcheck_with_batchnorm():
    specs = [Affine(4, 8), BatchNorm(8), parse_spec("or_ail"), Affine(4, 2)]
    net = Network(specs, seed=17)
    x = np.random.default_rng(17).uniform(-2, 2, (32, 4))
    assert gradcheck_network(net, x, seed=17) < 1e-4


def test_whole_network_finite_difference_64_coords():
    net = Network(parity_specs(), seed=21)
    x = np.random.default_rng(21).uniform(-2, 2, (16, 4))
    assert gradcheck_network(net, x, seed=21) < 1e-4


def test_actblock_channel_counts():
    # width-C affine + 2->1 block halves; 2-act duplication preserves C
    net = Network([Affine(4, 8), parse_spec("or_ail"), Affine(4, 1)], seed=0)
    assert net.forward(np.zeros((2, 4))).shape == (2, 1)
    net = Network([Affine(4, 8), parse_spec("ail:or+and:d"), Affine(8, 1)], seed=0)
    assert net.forward(np.zeros((2, 4))).shape == (2, 1)


def test_batchnorm_training_vs_running_stats():
    net = Network([Affine(2, 4), BatchNorm(4, momentum=0.5)], seed=5)
    x = np.random.default_rng(5).standard_normal((64, 2)) * 3 + 1
    y_train = net.forward(x, training=True)
    # training output is standardized by batch stats
    assert np.abs(y_train.mean(axis=0)).max() < 1e-10
    assert np.abs(y_train.std(axis=0) - 1).max() < 1e-2
    y_eval = net.forward(x, training=False)
    assert not np.allclose(y_train, y_eval)


def test_evaluation_pass_leaves_no_layer_cache():
    # What a layer keeps for its backward pass (its underscore attributes)
    # is dropped by an evaluation pass, so an evaluated network holds no
    # batch-sized arrays.
    specs = [Affine(4, 8), BatchNorm(8), parse_spec("il:or+and:d"), Affine(8, 2)]
    net = Network(specs, seed=3)
    x = np.random.default_rng(3).standard_normal((32, 4))

    def caches():
        return {(i, name): value for i, layer in enumerate(net.layers)
                for name, value in vars(layer).items() if name.startswith("_")}

    net.forward(x, training=True)
    assert len(caches()) == 5 and all(v is not None for v in caches().values())
    net.forward(x, training=False)
    assert [key for key, value in caches().items() if value is not None] == []


def test_save_load_round_trip(tmp_path):
    specs = [Affine(4, 8), BatchNorm(8), parse_spec("nail:or+and+xnor:d"),
             Affine(12, 3)]
    net = Network(specs, seed=9)
    net.forward(np.random.default_rng(9).standard_normal((32, 4)), training=True)
    path = tmp_path / "model.bin"
    net.save(path)
    loaded = Network.load(path)
    x = np.random.default_rng(10).standard_normal((8, 4))
    assert np.array_equal(net.forward(x), loaded.forward(x))
    assert np.array_equal(net.layers[1].running_mean, loaded.layers[1].running_mean)
    loaded.save(tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def _assert_flat_store(net):
    """Every parameter and gradient is a view into the flat buffers, weights first."""
    params = net.parameters()
    for name, param, grad, _ in params:
        assert np.shares_memory(param, net.flat_params), name
        assert np.shares_memory(grad, net.flat_grads), name
    order = sorted(params, key=lambda p: not p[3])
    assert np.array_equal(net.flat_params, np.concatenate([p.ravel() for _, p, _, _ in order]))
    assert np.array_equal(net.flat_grads, np.concatenate([g.ravel() for _, _, g, _ in order]))
    assert net.n_decayed == sum(p.size for _, p, _, decayed in params if decayed)


def test_flat_store_holds_every_parameter_and_gradient(tmp_path):
    specs = [Affine(4, 8), BatchNorm(8), parse_spec("or_ail"), Affine(4, 2)]
    net = Network(specs, seed=3)
    _assert_flat_store(net)
    net.forward(np.random.default_rng(3).standard_normal((16, 4)), training=True)
    net.backward(np.random.default_rng(4).standard_normal((16, 2)))
    _assert_flat_store(net)
    assert np.all(net.flat_grads[:net.n_decayed] != 0)
    path = tmp_path / "model.bin"
    net.save(path)
    loaded = Network.load(path)
    _assert_flat_store(loaded)
    assert np.array_equal(loaded.flat_params, net.flat_params)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a model")
    with pytest.raises(ModelFormatError, match="bad.bin"):
        Network.load(path)


def test_load_refuses_a_trailing_byte(tmp_path):
    path = tmp_path / "model.bin"
    Network(parity_specs(), seed=1).save(path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ModelFormatError, match="model.bin: trailing bytes after parameters"):
        Network.load(path)


def _save_with(path, layer, attr, index, value):
    """Save a small batch-norm network with one saved array entry set to value."""
    net = Network([Affine(4, 8), BatchNorm(8), parse_spec("or_ail"), Affine(4, 2)], seed=5)
    getattr(net.layers[layer], attr)[index] = value
    net.save(path)


def test_load_refuses_a_non_finite_parameter(tmp_path):
    # fit stops on a non-finite loss or gradient, so no trained network holds
    # one; such a file would otherwise load and score NaN.
    path = tmp_path / "model.bin"
    _save_with(path, 0, "weight", (2, 3), np.inf)
    with pytest.raises(ModelFormatError, match=r"model\.bin: layer0\.weight holds a non-finite value"):
        Network.load(path)


def test_load_refuses_a_negative_running_variance(tmp_path):
    # A running variance is an average of batch variances, so it is never below 0.
    path = tmp_path / "model.bin"
    _save_with(path, 1, "running_var", 6, -1.0)
    with pytest.raises(ModelFormatError,
                       match=r"model\.bin: layer1\.running_var holds a negative variance"):
        Network.load(path)


def test_malformed_model_files_raise_one_error_type(tmp_path):
    # Every truncation of the header fails, and seeded single-byte flips of
    # it either load or fail; a failure is always ModelFormatError, never a
    # parser's own exception.
    specs = [Affine(6, 8), BatchNorm(8), parse_spec("il:or+and+xnor:d"), Affine(12, 2)]
    path = tmp_path / "model.bin"
    Network(specs, seed=5).save(path)
    good = path.read_bytes()
    header_end = 10 + int.from_bytes(good[6:10], "little")
    bad = tmp_path / "bad.bin"
    for n in range(header_end + 1):
        bad.write_bytes(good[:n])
        with pytest.raises(ModelFormatError, match="bad.bin"):
            Network.load(bad)
    rng = np.random.default_rng(5)
    for pos, byte in zip(rng.integers(0, header_end, 600), rng.integers(0, 256, 600)):
        flipped = bytearray(good)
        flipped[pos] = byte
        bad.write_bytes(flipped)
        try:
            Network.load(bad)
        except ModelFormatError as exc:
            assert "bad.bin" in str(exc)


@pytest.mark.parametrize("cls, kwargs", [
    (Affine, dict(n_in=0, n_out=-3)), (Affine, dict(n_in=4, n_out=0)),
    (BatchNorm, dict(channels=0)),
    (BatchNorm, dict(channels=8, momentum=5.0)), (BatchNorm, dict(channels=8, momentum=-0.1)),
    (BatchNorm, dict(channels=8, momentum=float("nan"))),
    (BatchNorm, dict(channels=8, epsilon=-1.0)), (BatchNorm, dict(channels=8, epsilon=0.0)),
    (BatchNorm, dict(channels=8, epsilon=1e305)), (BatchNorm, dict(channels=8, epsilon=float("inf"))),
    (BatchNorm, dict(channels=8, epsilon=float("nan"))),
], ids=lambda v: v.__name__ if isinstance(v, type) else ",".join(f"{k}={x}" for k, x in v.items()))
def test_layer_specs_reject_out_of_range_values(cls, kwargs):
    with pytest.raises(ValueError):
        cls(**kwargs)


def test_layer_specs_accept_range_ends():
    Affine(1, 1)
    BatchNorm(1, momentum=0.0, epsilon=1.0)
    BatchNorm(1, momentum=1.0, epsilon=5e-324)


@pytest.mark.parametrize("old, new", [
    (b'"epsilon": 1e-05', b'"epsilon": 1e305'),
    (b'"epsilon": 1e-05', b'"epsilon": -1e-5'),
    (b'"momentum": 0.1', b'"momentum": 5.0'),
    (b'"channels": 8', b'"channels": 0'),
    (b'"in": 6', b'"in": 0'),
])
def test_load_rejects_out_of_range_layer_specs(tmp_path, old, new):
    path = tmp_path / "model.bin"
    Network([Affine(6, 8), BatchNorm(8), parse_spec("or_ail"), Affine(4, 2)],
            seed=5).save(path)
    good = path.read_bytes()
    assert good.count(old) == 1 and len(old) == len(new)
    path.write_bytes(good.replace(old, new))
    with pytest.raises(ModelFormatError, match="model.bin"):
        Network.load(path)


def _rewrite_header(path, edit):
    """Rewrite the model file's JSON header as ``edit(header)`` leaves it."""
    good = path.read_bytes()
    end = 10 + struct.unpack("<I", good[6:10])[0]
    header = json.loads(good[10:end])
    edit(header)
    raw = json.dumps(header).encode()
    path.write_bytes(good[:6] + struct.pack("<I", len(raw)) + raw + good[end:])


def test_load_refuses_a_header_width_that_is_a_bool(tmp_path):
    # The header reaches Affine through spec_from_dict, so its fields follow
    # the type rule of every other caller.
    path = tmp_path / "model.bin"
    Network([Affine(2, 2)], seed=0).save(path)
    _rewrite_header(path, lambda header: header["layers"][0].update({"in": True}))
    with pytest.raises(ModelFormatError, match=r"model\.bin: n_in must be an integer"):
        Network.load(path)


@pytest.mark.parametrize("seed", [2.7, True, "3", -1, None])
def test_seed_follows_the_field_rule(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        Network([Affine(2, 2)], seed=seed)


def test_numpy_integer_seed_is_saved_as_plain_json(tmp_path):
    path = tmp_path / "model.bin"
    net = Network([Affine(2, 2)], seed=np.int64(4))
    assert type(net.seed) is int
    net.save(path)
    assert Network.load(path).seed == 4


@pytest.mark.parametrize("seed", ["3", 2.7])
def test_load_refuses_a_header_seed_that_is_no_count(tmp_path, seed):
    path = tmp_path / "model.bin"
    Network([Affine(2, 2)], seed=3).save(path)
    _rewrite_header(path, lambda header: header.update(seed=seed))
    with pytest.raises(ModelFormatError, match=r"model\.bin: seed must be an integer"):
        Network.load(path)


@pytest.mark.parametrize("edit, key", [
    (lambda header: header.update(sede=3), "unknown header key 'sede'"),
    (lambda header: header["layers"][0].update(bias=[0.0]), "unknown affine layer key 'bias'"),
    (lambda header: header["layers"][1].update(eps=1e-5), "unknown batch_norm layer key 'eps'"),
    (lambda header: header["layers"][2].update(m=2), "unknown act layer key 'm'"),
], ids=["top_level", "affine", "batch_norm", "act"])
def test_load_refuses_unknown_header_keys(tmp_path, edit, key):
    # A key that save never writes is a mistake, as in a config file.
    path = tmp_path / "model.bin"
    Network([Affine(6, 8), BatchNorm(8), parse_spec("or_ail"), Affine(4, 2)], seed=5).save(path)
    _rewrite_header(path, edit)
    with pytest.raises(ModelFormatError, match=rf"model\.bin: {key}"):
        Network.load(path)

