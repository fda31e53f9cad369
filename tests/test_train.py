import math
import tracemalloc

import numpy as np
import pytest

from logitgates import data
from logitgates.experiments import build_network
from logitgates.ensemble import parse_spec
from logitgates.network import ActBlock, Affine, BatchNorm, Network
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
    sgd_step,
    SgdState,
)


class TestOneCycle:
    def test_endpoints_and_peak(self):
        total, max_lr, pf = 100, 0.01, 0.3
        assert one_cycle_lr(0, total, max_lr, pf) == pytest.approx(max_lr / 25)
        assert one_cycle_lr(30, total, max_lr, pf) == pytest.approx(max_lr)
        final = one_cycle_lr(total - 1, total, max_lr, pf)
        assert abs(final - max_lr / 1e4) <= 0.01 * (max_lr / 1e4)

    def test_shape(self):
        lrs = [one_cycle_lr(s, 200, 0.1, 0.25) for s in range(200)]
        peak = int(0.25 * 200)
        assert all(b >= a for a, b in zip(lrs[:peak], lrs[1:peak + 1]))
        assert all(b <= a for a, b in zip(lrs[peak:-1], lrs[peak + 1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_cycle_lr(100, 100, 0.01, 0.3)


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
        state = AdamState()
        refs = {name: (p.copy(), np.zeros_like(p), np.zeros_like(p))
                for name, p, _, _ in net.parameters()}
        for t in range(1, 6):
            x = rng.standard_normal((4, 3))
            target = rng.standard_normal((4, 2))
            z = net.forward(x, training=True)
            _, dz = mse(z, target)
            net.backward(dz)
            grads = {name: g.copy() for name, _, g, _ in net.parameters()}
            adam_step(net, state, lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
            for name in refs:
                p, m, v = refs[name]
                p, m, v = reference_adam(p, grads[name], m, v, t, 0.05, 0.9, 0.999, 1e-8)
                refs[name] = (p, m, v)
                live = dict((n, q) for n, q, _, _ in net.parameters())[name]
                assert np.allclose(live, p, rtol=1e-12, atol=1e-15), (name, t)

    def test_zero_grads_zero_decay_leaves_params(self):
        net = Network([Affine(2, 2)], seed=2)
        before = [p.copy() for _, p, _, _ in net.parameters()]
        net.forward(np.zeros((4, 2)), training=True)
        net.backward(np.zeros((4, 2)))
        adam_step(net, AdamState(), lr=0.1)
        for b, (_, p, _, _) in zip(before, net.parameters()):
            assert np.array_equal(b, p)

    def test_params_update_independently(self):
        net = Network([Affine(2, 2)], seed=3)
        net.forward(np.ones((1, 2)), training=True)
        net.backward(np.array([[1.0, 0.0]]))  # second output column untouched
        w_before = net.layers[0].weight.copy()
        adam_step(net, AdamState(), lr=0.1)
        assert np.array_equal(net.layers[0].weight[:, 1], w_before[:, 1])
        assert not np.allclose(net.layers[0].weight[:, 0], w_before[:, 0])

    def test_weight_decay_applies_to_weights_only(self):
        net = Network([Affine(2, 2)], seed=4)
        net.layers[0].bias[:] = 1.0
        net.forward(np.zeros((2, 2)), training=True)
        net.backward(np.zeros((2, 2)))
        w = net.layers[0].weight.copy()
        adam_step(net, AdamState(), lr=0.01, weight_decay=0.1)
        assert not np.allclose(net.layers[0].weight, w)       # decayed
        assert np.array_equal(net.layers[0].bias, np.ones(2))  # untouched


def reference_steps(params, grads, state, optimizer, lr, weight_decay, **kw):
    """The per-array optimizer loops, one dict entry per named parameter."""
    if optimizer == "adam":
        state["t"] = state.get("t", 0) + 1
        bc1 = 1.0 - kw["beta1"] ** state["t"]
        bc2 = 1.0 - kw["beta2"] ** state["t"]
    for name, (param, decayed) in params.items():
        grad = grads[name]
        g = grad + weight_decay * param if (weight_decay and decayed) else grad
        if optimizer == "adam":
            m = state.setdefault("m." + name, np.zeros_like(param))
            v = state.setdefault("v." + name, np.zeros_like(param))
            m *= kw["beta1"]
            m += (1 - kw["beta1"]) * g
            v *= kw["beta2"]
            v += (1 - kw["beta2"]) * g * g
            param -= lr * (m / bc1) / (np.sqrt(v / bc2) + kw["eps"])
        else:
            v = state.setdefault("v." + name, np.zeros_like(param))
            v *= kw["momentum"]
            v += g
            param -= lr * v


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_flat_steps_match_per_array_reference_bit_for_bit(optimizer, weight_decay):
    # Without decay the step reads flat_grads itself; with decay it reads a
    # scratch buffer that it later overwrites with its own temporaries.
    specs = [Affine(4, 8), BatchNorm(8), ActBlock(parse_spec("xnor_ail")),
             Affine(4, 6), BatchNorm(6), ActBlock(parse_spec("or_ail")), Affine(3, 2)]
    net = Network(specs, seed=8)
    rng = np.random.default_rng(8)
    ref = {name: (p.copy(), decayed) for name, p, _, decayed in net.parameters()}
    ref_state = {}
    state = AdamState() if optimizer == "adam" else SgdState()
    kw = (dict(beta1=0.9, beta2=0.999, eps=1e-8) if optimizer == "adam"
          else dict(momentum=0.9))
    for step in range(6):
        lr = 0.05 / (step + 1)
        z = net.forward(rng.standard_normal((16, 4)), training=True)
        _, dz = mse(z, rng.standard_normal((16, 2)))
        net.backward(dz)
        grads = {name: g.copy() for name, _, g, _ in net.parameters()}
        reference_steps(ref, grads, ref_state, optimizer, lr, weight_decay, **kw)
        if optimizer == "adam":
            adam_step(net, state, lr, weight_decay=weight_decay, **kw)
        else:
            sgd_step(net, state, lr, weight_decay=weight_decay, **kw)
        for name, p, g, _ in net.parameters():
            assert np.array_equal(p, ref[name][0]), (name, step)
            assert np.array_equal(g, grads[name]), (name, step)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_optimizer_steps_allocate_nothing(optimizer):
    # From the second step on, the temporaries go into the optimizer state's
    # scratch buffers, and flat_grads is only read.
    net = Network([Affine(128, 128), BatchNorm(128), ActBlock(parse_spec("or_ail")),
                   Affine(64, 10)], seed=9)
    rng = np.random.default_rng(9)
    net.forward(rng.standard_normal((32, 128)), training=True)
    net.backward(rng.standard_normal((32, 10)))
    state, step = (AdamState(), adam_step) if optimizer == "adam" else (SgdState(), sgd_step)
    step(net, state, 0.01, weight_decay=0.01)
    grads = net.flat_grads.copy()
    tracemalloc.start()
    try:
        step(net, state, 0.01, weight_decay=0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < net.flat_params.nbytes / 4, (peak, net.flat_params.nbytes)
    assert np.array_equal(net.flat_grads, grads)


def test_sgd_momentum_accumulates():
    net = Network([Affine(1, 1)], seed=5)
    net.layers[0].weight[:] = 1.0
    state = SgdState()
    for _ in range(2):
        net.forward(np.ones((1, 1)), training=True)
        net.backward(np.ones((1, 1)))
    # two steps with constant grad g=1: v1=1, v2=1.9 -> w = 1 - lr*(1+1.9)
    net.forward(np.ones((1, 1)), training=True)
    net.backward(np.ones((1, 1)))
    sgd_step(net, state, lr=0.1, momentum=0.9)
    net.forward(np.ones((1, 1)), training=True)
    net.backward(np.ones((1, 1)))
    sgd_step(net, state, lr=0.1, momentum=0.9)
    assert net.layers[0].weight[0, 0] == pytest.approx(1 - 0.1 * (1 + 1.9))


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


class TestFit:
    def _config(self, **kw):
        base = dict(epochs=3, batch_size=16, max_lr=0.01, seed=0,
                    loss="bce-with-logits")
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_lr_leaves_metrics_unchanged(self):
        ds = data.gen_parity4(64, 0)
        net = build_network("parity4", [4, 2], "xnor_ail", 0)
        report = fit(net, ds, self._config(max_lr=0.0, epochs=4))
        losses = [row["train_loss"] for row in report.epochs]
        assert len(set(losses)) == 1

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
            report = fit(net, ds, self._config(epochs=20, seed=seed))
            if report.epochs[-1]["train_loss"] < report.epochs[0]["train_loss"]:
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

    def test_width_mismatch_rejected(self):
        ds = data.gen_parity4(64, 0)
        net = build_network("nested_xnor8", [8], "xnor_ail", 0)
        with pytest.raises(ValueError):
            fit(net, ds, self._config())

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
        TrainConfig(epochs=1, batch_size=4, peak_fraction=1.5)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=4, loss="hinge")
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=4, max_lr=-0.1)
    for bad in (dict(schedule="one_cycle"), dict(optimizer="rmsprop"),
                dict(beta1=1.5), dict(beta1=-0.1), dict(beta2=1.0),
                dict(momentum=1.0), dict(momentum=-0.5), dict(eps=0.0), dict(seed=-1)):
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=4, **bad)
    TrainConfig(epochs=1, batch_size=4, schedule="constant", optimizer="sgd",
                beta1=0.0, momentum=0.0)
