import math
import tracemalloc

import numpy as np
import pytest

from logitgates import data, train
from logitgates.experiments import build_network
from logitgates.ensemble import parse_spec
from logitgates.network import Affine, BatchNorm, Network
from logitgates.numerics import sigmoid
from logitgates.train import (
    AdamState,
    NaNLossError,
    TrainConfig,
    adam_step,
    bce_with_logits,
    cross_entropy,
    evaluate,
    fit,
    mse,
    one_cycle_lr,
)


class TestOneCycle:
    def test_endpoints_and_peak(self):
        total, max_lr = 100, 0.01
        assert one_cycle_lr(0, total, max_lr) == pytest.approx(max_lr / 25)
        assert one_cycle_lr(30, total, max_lr) == pytest.approx(max_lr)
        final = one_cycle_lr(total - 1, total, max_lr)
        assert abs(final - max_lr / 1e4) <= 0.01 * (max_lr / 1e4)
        # the shortest runs: a lone warm-up step, then a warm-up and a final step
        assert one_cycle_lr(0, 1, max_lr) == pytest.approx(max_lr / 25)
        assert one_cycle_lr(1, 2, max_lr) == pytest.approx(max_lr / 1e4)

    def test_shape(self):
        lrs = [one_cycle_lr(s, 200, 0.1) for s in range(200)]
        peak = int(0.3 * 200)
        assert max(lrs) == lrs[peak]
        assert all(b >= a for a, b in zip(lrs[:peak], lrs[1:peak + 1]))
        assert all(b <= a for a, b in zip(lrs[peak:-1], lrs[peak + 1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_cycle_lr(100, 100, 0.01)


def reference_adam(param, grad, m, v, t, lr, b1, b2, eps):
    # plain textbook update, kept deliberately separate from the library path
    m = b1 * m + (1 - b1) * grad
    v = b2 * v + (1 - b2) * grad * grad
    mhat = m / (1 - b1 ** t)
    vhat = v / (1 - b2 ** t)
    return param - lr * mhat / (np.sqrt(vhat) + eps), m, v


class TestAdam:
    def _single_param_net(self, w0):
        net = Network([Affine(1, 1)], seed=0)
        net.layers[0].weight[:] = w0
        net.layers[0].bias[:] = 0.0
        return net

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(0)
        net = Network([Affine(3, 2)], seed=1)
        state = AdamState(net)
        refs = {name: (p.copy(), np.zeros_like(p), np.zeros_like(p))
                for name, p, _, _ in net.parameters()}
        for t in range(1, 6):
            x = rng.standard_normal((4, 3))
            target = rng.standard_normal((4, 2))
            z = net.forward(x, training=True)
            _, dz = mse(z, target)
            net.backward(dz)
            grads = {name: g.copy() for name, _, g, _ in net.parameters()}
            adam_step(state, lr=0.05)
            for name in refs:
                p, m, v = refs[name]
                p, m, v = reference_adam(p, grads[name], m, v, t, 0.05, 0.9, 0.999, 1e-8)
                refs[name] = (p, m, v)
                live = dict((n, q) for n, q, _, _ in net.parameters())[name]
                assert np.allclose(live, p, rtol=1e-12, atol=1e-15), (name, t)

    def test_zero_gradient_zero_decay_leaves_params(self):
        net = Network([Affine(2, 2)], seed=2)
        before = [p.copy() for _, p, _, _ in net.parameters()]
        net.forward(np.zeros((4, 2)), training=True)
        net.backward(np.zeros((4, 2)))
        adam_step(AdamState(net), lr=0.1)
        for b, (_, p, _, _) in zip(before, net.parameters()):
            assert np.array_equal(b, p)

    def test_params_update_independently(self):
        net = Network([Affine(2, 2)], seed=3)
        net.forward(np.ones((1, 2)), training=True)
        net.backward(np.array([[1.0, 0.0]]))  # second output column untouched
        w_before = net.layers[0].weight.copy()
        adam_step(AdamState(net), lr=0.1)
        assert np.array_equal(net.layers[0].weight[:, 1], w_before[:, 1])
        assert not np.allclose(net.layers[0].weight[:, 0], w_before[:, 0])

    def test_weight_decay_applies_to_weights_only(self):
        net = Network([Affine(2, 2)], seed=4)
        net.layers[0].bias[:] = 1.0
        net.forward(np.zeros((2, 2)), training=True)
        net.backward(np.zeros((2, 2)))
        w = net.layers[0].weight.copy()
        adam_step(AdamState(net), lr=0.01, weight_decay=0.1)
        assert not np.allclose(net.layers[0].weight, w)       # decayed
        assert np.array_equal(net.layers[0].bias, np.ones(2))  # untouched


def reference_steps(params, grads, state, lr, weight_decay):
    """The per-array Adam loop, one dict entry per named parameter."""
    state["t"] = state.get("t", 0) + 1
    bc1 = 1.0 - 0.9 ** state["t"]
    bc2 = 1.0 - 0.999 ** state["t"]
    for name, (param, decayed) in params.items():
        grad = grads[name]
        g = grad + weight_decay * param if (weight_decay and decayed) else grad
        m = state.setdefault("m." + name, np.zeros_like(param))
        v = state.setdefault("v." + name, np.zeros_like(param))
        m *= 0.9
        m += (1 - 0.9) * g
        v *= 0.999
        v += (1 - 0.999) * g * g
        param -= lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)


@pytest.mark.parametrize("weight_decay, block", [(0.0, None), (0.01, None), (0.0, 7), (0.01, 7)],
                         ids=["0.0", "0.01", "0.0-block7", "0.01-block7"])
def test_flat_steps_match_per_array_reference_bit_for_bit(weight_decay, block, monkeypatch):
    # Without decay the step reads flat_grads itself; with decay it reads a
    # scratch buffer that it later overwrites with its own temporaries. With
    # 7-element blocks the 106-element store spans 16 blocks and the 62-element
    # decayed prefix ends mid-block.
    if block is not None:
        monkeypatch.setattr(train, "BLOCK", block)
    specs = [Affine(4, 8), BatchNorm(8), parse_spec("xnor_ail"),
             Affine(4, 6), BatchNorm(6), parse_spec("or_ail"), Affine(3, 2)]
    net = Network(specs, seed=8)
    rng = np.random.default_rng(8)
    ref = {name: (p.copy(), decayed) for name, p, _, decayed in net.parameters()}
    ref_state = {}
    state = AdamState(net)
    for step in range(6):
        lr = 0.05 / (step + 1)
        z = net.forward(rng.standard_normal((16, 4)), training=True)
        _, dz = mse(z, rng.standard_normal((16, 2)))
        net.backward(dz)
        grads = {name: g.copy() for name, _, g, _ in net.parameters()}
        reference_steps(ref, grads, ref_state, lr, weight_decay)
        adam_step(state, lr, weight_decay=weight_decay)
        for name, p, g, _ in net.parameters():
            assert np.array_equal(p, ref[name][0]), (name, step)
            assert np.array_equal(g, grads[name]), (name, step)
    assert (net.flat_params.size, net.n_decayed) == (106, 62)


def test_adam_step_allocates_nothing():
    # The state's constructor makes the moments and scratch buffers, so from
    # the first step on the temporaries go into them, and flat_grads is only read.
    net = Network([Affine(128, 128), BatchNorm(128), parse_spec("or_ail"),
                   Affine(64, 10)], seed=9)
    rng = np.random.default_rng(9)
    net.forward(rng.standard_normal((32, 128)), training=True)
    net.backward(rng.standard_normal((32, 10)))
    state = AdamState(net)
    grads = net.flat_grads.copy()
    for step in (1, 2):
        tracemalloc.start()
        try:
            adam_step(state, 0.01, weight_decay=0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < net.flat_params.nbytes / 4, (step, peak, net.flat_params.nbytes)
    assert np.array_equal(net.flat_grads, grads)


def _net_and_state(seed, width):
    """A small network holding one batch's gradients, and its Adam state."""
    net = Network([Affine(3, width), BatchNorm(width), parse_spec("or_ail"),
                   Affine(width // 2, 1)], seed=seed)
    rng = np.random.default_rng(seed)
    net.forward(rng.standard_normal((8, 3)), training=True)
    net.backward(rng.standard_normal((8, 1)))
    return net, AdamState(net)


def test_adam_states_step_the_networks_they_were_made_from():
    # Two states stepped alternately give each network the bits of stepping
    # it alone: a state never reads or moves another network's store.
    shapes = ((1, 4), (2, 6))
    alone = []
    for seed, width in shapes:
        net, state = _net_and_state(seed, width)
        for _ in range(3):
            adam_step(state, 0.01, weight_decay=0.01)
        alone.append(net.flat_params.copy())
    pairs = [_net_and_state(seed, width) for seed, width in shapes]
    for _ in range(3):
        for _, state in pairs:
            adam_step(state, 0.01, weight_decay=0.01)
    for (net, _), want, shape in zip(pairs, alone, shapes):
        assert np.array_equal(net.flat_params, want), shape
        assert not np.array_equal(want, _net_and_state(*shape)[0].flat_params), shape


def _count_passes(monkeypatch, net):
    """A list that records the row count of each of net's forward passes."""
    passes, forward = [], net.forward

    def counted(x, training):
        passes.append(len(x))
        return forward(x, training)

    monkeypatch.setattr(net, "forward", counted)
    return passes


@pytest.mark.parametrize("n, want", [(32, [32]), (48, [48]), (49, [25, 24]),
                                     (100, [34, 34, 32])])
def test_evaluate_matches_chunked_forwards(n, want, monkeypatch):
    # evaluate takes the fewest passes that keep the widest layer output
    # within 3 * BLOCK elements, here 3 * 128 // 8 = 48 rows, cut into equal
    # passes of ceil(n / passes) rows. The scores have the bits of the joined
    # per-pass outputs. BLAS may round a product differently by its row
    # count, so that holds for this pass rule only; on this narrow net one
    # pass over every row happens to give the same bits as well.
    monkeypatch.setattr(train, "BLOCK", 128)
    net = Network([Affine(4, 8), BatchNorm(8), parse_spec("nil:or+xnor:p"), Affine(4, 2)], seed=2)
    assert net.widest_output == 8
    rng = np.random.default_rng(n)
    net.forward(rng.standard_normal((32, 4)), training=True)  # moves the running statistics
    ds = data.Dataset(rng.standard_normal((n, 4)), rng.standard_normal((n, 2)), "regression")
    ends = np.cumsum([0] + want)
    z = np.concatenate([net.forward(ds.inputs[i:j]) for i, j in zip(ends, ends[1:])])
    loss, _ = mse(z, ds.targets)
    assert mse(net.forward(ds.inputs), ds.targets)[0] == loss
    passes = _count_passes(monkeypatch, net)
    assert evaluate(net, ds) == (loss, math.sqrt(loss))
    assert passes == want


def test_evaluate_scores_an_mnist_batch_in_one_pass(monkeypatch):
    # mnist_il's net, whose widest output is 384: a 256-row batch takes one
    # pass, a 4096-row split 16 passes of 256 rows, and 257 rows two
    # near-equal passes.
    net = build_network("mnist", [256, 256], "il:or+and+xnor:d", seed=0, batch_norm=True)
    assert net.widest_output == 384
    passes = _count_passes(monkeypatch, net)
    rng = np.random.default_rng(0)
    for n, want in ((256, [256]), (257, [129, 128]), (4096, [256] * 16)):
        ds = data.Dataset(rng.random((n, 784)), rng.integers(0, 10, n), "classification",
                          n_classes=10)
        passes.clear()
        evaluate(net, ds)
        assert passes == want


class TestLosses:
    def test_bce_matches_direct_formula(self):
        z = np.array([[0.0], [2.0], [-3.0]])
        t = np.array([[1.0], [0.0], [1.0]])
        loss, grad = bce_with_logits(z, t)
        direct = -(t * np.log(sigmoid(z)) + (1 - t) * np.log(1 - sigmoid(z))).mean()
        assert loss == pytest.approx(direct, rel=1e-12)
        h = 1e-7
        for i in range(3):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd = (bce_with_logits(zp, t)[0] - bce_with_logits(zm, t)[0]) / (2 * h)
            assert grad[i, 0] == pytest.approx(fd, rel=1e-6)

    def test_bce_never_nan_for_huge_logits(self):
        z = np.array([[1e6], [-1e6]])
        t = np.array([[0.0], [1.0]])
        loss, grad = bce_with_logits(z, t)
        assert math.isfinite(loss) and np.all(np.isfinite(grad))

    def test_bce_saturated_logits_exact(self):
        # Per element: softplus(1000) = 1000 for a wrong sign, softplus(-1000) = 0.
        z = np.array([[1000.0], [-1000.0]])
        assert bce_with_logits(z, np.array([[0.0], [1.0]]))[0] == 1000.0
        assert bce_with_logits(z, np.array([[1.0], [0.0]]))[0] == 0.0

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((5, 4))
        labels = np.array([0, 3, 1, 2, 2])
        loss, grad = cross_entropy(z, labels)
        h = 1e-6
        for i, j in ((0, 0), (1, 3), (2, 2), (4, 1)):
            zp, zm = z.copy(), z.copy()
            zp[i, j] += h
            zm[i, j] -= h
            fd = (cross_entropy(zp, labels)[0] - cross_entropy(zm, labels)[0]) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_mse(self):
        z = np.array([[1.0], [2.0]])
        t = np.array([[0.0], [0.0]])
        loss, grad = mse(z, t)
        assert loss == pytest.approx(2.5)
        assert np.allclose(grad, z)
        # The loss has the bits of np.mean over the squared differences.
        rng = np.random.default_rng(3)
        for shape in ((1, 1), (128, 1), (7, 3)):
            z, t = rng.standard_normal(shape), rng.standard_normal(shape)
            diff = z - t
            loss, grad = mse(z, t)
            assert type(loss) is float and loss == float(np.mean(diff * diff))
            assert np.array_equal(grad, (2.0 / z.size) * diff)


class TestFit:
    def _config(self, **kw):
        base = dict(epochs=3, batch_size=16, max_lr=0.01, seed=0,
                    loss="bce-with-logits")
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_lr_leaves_metrics_unchanged(self):
        ds = data.gen_parity4(64, 0)
        net = build_network("parity4", [4, 2], "xnor_ail", 0)
        params = net.flat_params.copy()
        before, _ = evaluate(net, ds)
        report = fit(net, ds, self._config(max_lr=0.0, epochs=4))
        assert np.array_equal(net.flat_params, params)
        assert report.final["train_loss"] == before

    def test_bit_determinism(self):
        reports = []
        for _ in range(2):
            ds = data.gen_parity4(128, 3)
            net = build_network("parity4", [4, 2], "xnor_ail", 3)
            reports.append(fit(net, ds, self._config(epochs=5, seed=3)).to_json())
        assert reports[0] == reports[1]

    def test_final_loss_improves_for_parity(self):
        improved = 0
        for seed in range(5):
            ds = data.gen_parity4(256, seed)
            net = build_network("parity4", [4, 2], "xnor_ail", seed)
            before, _ = evaluate(net, ds)
            report = fit(net, ds, self._config(epochs=20, seed=seed))
            if report.final["train_loss"] < before:
                improved += 1
        assert improved >= 4

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_abort_diagnostic(self):
        ds = data.gen_parity4(64, 0)
        net = build_network("parity4", [4, 2], "xnor_ail", 0)
        net.layers[0].weight[0, 0] = np.nan
        with pytest.raises(NaNLossError) as err:
            fit(net, ds, self._config())
        assert err.value.epoch == 0 and err.value.batch == 0
        assert "layer0" in str(err.value)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("batch_norm, layer, attr, expected", [
        (False, 2, "weight", "layer2 (Affine)"),
        (True, 1, "gamma", "layer1 (BatchNorm)"),
    ], ids=["second_affine", "batchnorm_gamma"])
    def test_nan_diagnosis_names_exact_layer(self, batch_norm, layer, attr, expected):
        ds = data.gen_parity4(64, 0)
        net = build_network("parity4", [4, 2], "xnor_ail", 0, batch_norm)
        getattr(net.layers[layer], attr).flat[0] = np.nan
        with pytest.raises(NaNLossError) as err:
            fit(net, ds, self._config())
        assert err.value.layer == expected

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_gradient_names_backward_layer(self, monkeypatch):
        ds = data.gen_parity4(64, 0)
        net = build_network("parity4", [4, 2], "xnor_ail", 0)
        layer = net.layers[2]
        original = layer.backward
        monkeypatch.setattr(layer, "backward", lambda dout: original(np.full_like(dout, np.inf)))
        before = net.flat_params.copy()
        with pytest.raises(NaNLossError) as err:
            fit(net, ds, self._config())
        assert err.value.epoch == 0 and err.value.batch == 0
        assert err.value.layer.startswith("layer2.") and err.value.layer.endswith("(backward pass)")
        assert err.value.layer in str(err.value)
        assert np.array_equal(net.flat_params, before)  # no optimizer step ran

    def test_a_loss_that_overflows_on_finite_outputs_is_named(self):
        # Every layer's output is finite, but the square of a 1e160 error is not.
        ds = data.gen_nested_xnor8(64, 0)
        net = build_network("nested_xnor8", [8], "xnor_ail", 0)
        net.layers[-1].bias[:] = 1e160
        with np.errstate(over="ignore"), pytest.raises(NaNLossError) as err:
            fit(net, ds, self._config(loss="mse"))
        assert err.value.epoch == 0 and err.value.batch == 0
        assert err.value.layer == "loss" and str(err.value).endswith("first NaN in loss")

    @pytest.mark.parametrize("loss", ["bce-with-logits", "cross-entropy"])
    def test_loss_of_another_kind_is_refused_unseen(self, loss, monkeypatch):
        # Unchecked, regression data would train on a classification loss
        # while evaluate scored its MSE.
        ds = data.gen_nested_xnor8(64, 0)
        net = build_network("nested_xnor8", [8], "xnor_ail", 0)
        forwards = []
        monkeypatch.setattr(net, "forward", lambda *args, **kw: forwards.append(1))
        message = f"loss: regression data trains on 'mse', got '{loss}'"
        with pytest.raises(ValueError, match=message):
            fit(net, ds, self._config(loss=loss))
        assert forwards == []

    def test_width_mismatch_rejected(self):
        ds = data.gen_parity4(64, 0)
        net = build_network("nested_xnor8", [8], "xnor_ail", 0)
        with pytest.raises(ValueError):
            fit(net, ds, self._config())

    @pytest.mark.parametrize("outputs, targets, task, n_classes, message", [
        (1, np.zeros((64, 3)), "regression", None,
         "regression targets are 3 wide, the network's output is 1"),
        (10, np.arange(64) % 12, "classification", 12,
         "classification targets are 12 wide, the network's output is 10"),
        (1, np.zeros((64, 1)), "regresion", None, "unknown dataset kind 'regresion'"),
    ], ids=["target_columns", "class_labels", "unknown_kind"])
    def test_targets_that_do_not_fit_the_network_are_refused_unseen(
            self, monkeypatch, outputs, targets, task, n_classes, message):
        # Unchecked, the first would score against broadcast (64, 3) targets,
        # the second index past the outputs, and the third score as regression.
        x = np.random.default_rng(0).standard_normal((64, 8))
        bad = data.Dataset(x, targets, task, n_classes=n_classes)
        good = data.Dataset(x, np.zeros((64, outputs)), "regression")
        net = Network([Affine(8, outputs)], seed=0)
        forwards = []
        monkeypatch.setattr(net, "forward", lambda *args, **kw: forwards.append(1))
        with pytest.raises(ValueError, match=message):
            evaluate(net, bad)
        with pytest.raises(ValueError, match=message):
            fit(net, bad, self._config(loss="mse"))
        with pytest.raises(ValueError, match=message):  # before training on a good set
            fit(net, good, self._config(loss="mse"), val_ds=bad)
        assert forwards == []

    def test_fit_calls_its_loss_per_step_and_evaluate_never(self, monkeypatch):
        # fit looks its loss up in _LOSSES on each call, and evaluate calls
        # its kind's routine, so a wrapped entry sees training steps only.
        calls = []

        def counting(z, targets):
            calls.append(len(z))
            return mse(z, targets)

        monkeypatch.setitem(train._LOSSES, "mse", counting)
        ds = data.gen_nested_xnor8(40, 0)
        net = build_network("nested_xnor8", [8], "xnor_ail", 0)
        report = fit(net, ds, self._config(loss="mse", epochs=2), val_ds=data.gen_nested_xnor8(8, 1))
        assert calls == [16, 16, 8] * 2
        evaluate(net, ds)
        assert len(calls) == 6 and set(report.final) == {
            "train_loss", "train_rmse", "val_loss", "val_rmse"}

    def test_report_serialization_round_trip(self):
        import json

        ds = data.gen_parity4(64, 0)
        net = build_network("parity4", [4, 2], "xnor_ail", 0)
        report = fit(net, ds, self._config(), val_ds=data.parity4_lattice())
        payload = json.loads(report.to_json())
        assert "final" in payload and "val_accuracy" in payload["final"]
        csv = report.to_csv()
        assert csv.splitlines()[0].startswith("epoch,")
        assert len(csv.splitlines()) == len(report.epochs) + 1


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0, batch_size=4)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=4, loss="hinge")
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=4, max_lr=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=4, seed=-1)
    TrainConfig(epochs=1, batch_size=4, max_lr=0.0, weight_decay=0.0, seed=0)


@pytest.mark.parametrize("field", ["max_lr", "weight_decay"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_rates(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(epochs=1, batch_size=4, **{field: value})


@pytest.mark.parametrize("field", ["epochs", "batch_size", "seed"])
@pytest.mark.parametrize("value", [2.5, 4.0, True], ids=["fraction", "whole-float", "bool"])
def test_config_rejects_non_integer_counts(field, value):
    # Refused at construction, not later by fit or the data generators;
    # numpy integers are integers.
    counts = {"epochs": 1, "batch_size": 4}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        TrainConfig(**counts | {field: value})
    assert getattr(TrainConfig(**counts | {field: np.int64(3)}), field) == 3
