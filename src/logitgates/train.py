"""Optimizers, learning-rate schedule, losses, and the training loop."""

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset
from .network import Network
from .numerics import BLOCK, sigmoid


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    max_lr: float = 0.01
    optimizer: str = "adam"        # "adam" | "sgd"
    momentum: float = 0.9          # sgd only
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    schedule: str = "one-cycle"    # "one-cycle" | "constant"
    peak_fraction: float = 0.3
    weight_decay: float = 0.0
    seed: int = 0
    loss: str = "bce-with-logits"  # "bce-with-logits" | "cross-entropy" | "mse"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if min(self.max_lr, self.weight_decay) < 0:
            raise ValueError("max_lr and weight_decay must be >= 0")
        if self.schedule not in ("one-cycle", "constant"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.schedule == "one-cycle" and not 0 < self.peak_fraction < 1:
            raise ValueError("peak_fraction must lie in (0, 1)")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.loss not in _LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if not all(0 <= b < 1 for b in (self.beta1, self.beta2, self.momentum)):
            raise ValueError("beta1, beta2 and momentum must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class NaNLossError(RuntimeError):
    """Training hit a non-finite loss; carries the first offending location."""

    def __init__(self, epoch, batch, layer):
        self.epoch, self.batch, self.layer = epoch, batch, layer
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}, first NaN in {layer}")


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------

ONE_CYCLE_START_DIV = 25.0
ONE_CYCLE_END_DIV = 1e4


def one_cycle_lr(step: int, total_steps: int, max_lr: float, peak_fraction: float = 0.3) -> float:
    """Linear warmup from max_lr/25 to max_lr, then cosine decay to max_lr/1e4."""
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    start = max_lr / ONE_CYCLE_START_DIV
    end = max_lr / ONE_CYCLE_END_DIV
    peak = peak_fraction * total_steps
    if step <= peak:
        return start + (max_lr - start) * (step / peak if peak > 0 else 1.0)
    span = (total_steps - 1) - peak
    if span <= 0:
        return end
    t = (step - peak) / span
    return end + (max_lr - end) * 0.5 * (1.0 + math.cos(math.pi * t))


# ---------------------------------------------------------------------------
# Optimizers (coupled weight decay: added to the gradient, weights only).
# Each step walks Network.flat_params/flat_grads in BLOCK-element slices, so
# its temporaries stay in cache, and writes them into block-sized scratch
# buffers kept in the optimizer state, so no step after the first allocates.
# The views of every slice are cut once, on the first step: a small network's
# step takes microseconds, and slicing anew would add to each of them.
# ---------------------------------------------------------------------------


def _blocks(net: Network, flat, scratch):
    """One tuple of views per BLOCK-element slice of the flat store.

    Each is (params, grads, decayed, *flat views, *scratch views): ``decayed``
    counts the slice's elements in the weight-decayed prefix, ``flat`` are
    arrays shaped like flat_params (the optimizer's moments) and ``scratch``
    block-sized buffers, cut to the slice's length.
    """
    blocks = []
    for i in range(0, net.flat_params.size, BLOCK):
        p = net.flat_params[i:i + BLOCK]
        blocks.append((p, net.flat_grads[i:i + BLOCK], min(max(net.n_decayed - i, 0), p.size),
                       *(a[i:i + BLOCK] for a in flat), *(b[:p.size] for b in scratch)))
    return blocks


def _decayed(p, g, d, weight_decay, out):
    """g plus weight_decay * p on the first d elements, written to out.

    Where nothing decays this is g itself, a slice of flat_grads, which the
    step never writes to.
    """
    if not (weight_decay and d):
        return g
    np.multiply(weight_decay, p[:d], out=out[:d])
    out[:d] += g[:d]
    out[d:] = g[d:]
    return out


class AdamState:
    def __init__(self):
        self.t = 0
        self.m = None
        self.v = None
        self.blocks = None  # views of the store, m, v and two block-sized scratch buffers


def adam_step(net: Network, state: AdamState, lr, beta1=0.9, beta2=0.999,
              eps=1e-8, weight_decay=0.0):
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    if state.m is None:
        state.m = np.zeros_like(net.flat_params)
        state.v = np.zeros_like(net.flat_params)
        size = min(BLOCK, net.flat_params.size)
        state.blocks = _blocks(net, (state.m, state.v), (np.empty(size), np.empty(size)))
    for p, g, d, m, v, a, b in state.blocks:
        g = _decayed(p, g, d, weight_decay, out=b)
        m *= beta1
        m += np.multiply(1 - beta1, g, out=a)
        v *= beta2
        np.multiply(1 - beta2, g, out=a)
        v += np.multiply(a, g, out=a)
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), in this operation
        # order; g is dead, so its buffer takes the denominator.
        np.multiply(lr, np.divide(m, bc1, out=a), out=a)
        np.sqrt(np.divide(v, bc2, out=b), out=b)
        b += eps
        a /= b
        p -= a


class SgdState:
    def __init__(self):
        self.velocity = None
        self.blocks = None  # views of the store, the velocity and a block-sized scratch buffer


def sgd_step(net: Network, state: SgdState, lr, momentum=0.9, weight_decay=0.0):
    if state.velocity is None:
        state.velocity = np.zeros_like(net.flat_params)
        size = min(BLOCK, net.flat_params.size)
        state.blocks = _blocks(net, (state.velocity,), (np.empty(size),))
    for p, g, d, v, a in state.blocks:
        g = _decayed(p, g, d, weight_decay, out=a)
        v *= momentum
        v += g
        p -= np.multiply(lr, v, out=a)


# ---------------------------------------------------------------------------
# Losses: return (mean loss, gradient w.r.t. logits/outputs)
# ---------------------------------------------------------------------------


def bce_with_logits(z: np.ndarray, targets: np.ndarray):
    """Binary cross-entropy on logits, softplus(-t*z) with t in {-1, +1}."""
    t = 2.0 * targets - 1.0
    loss = float(np.mean(np.logaddexp(0.0, -t * z)))
    grad = (-t * sigmoid(-t * z)) / z.size
    return loss, grad


def cross_entropy(z: np.ndarray, labels: np.ndarray):
    """Softmax cross-entropy with integer class labels."""
    labels = np.asarray(labels).astype(int).ravel()
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    n = z.shape[0]
    loss = float(-log_probs[np.arange(n), labels].mean())
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def mse(z: np.ndarray, targets: np.ndarray):
    diff = z - targets
    loss = float(np.mean(diff * diff))
    return loss, (2.0 / z.size) * diff


_LOSSES = {"bce-with-logits": bce_with_logits, "cross-entropy": cross_entropy, "mse": mse}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


# Rows per forward pass in evaluate, so its memory does not grow with the data.
EVAL_ROWS = 1024


def evaluate(net: Network, ds: Dataset):
    """(loss, metric) on a dataset; metric is accuracy or RMSE by task."""
    z = np.concatenate([net.forward(ds.inputs[i:i + EVAL_ROWS], training=False)
                        for i in range(0, ds.n, EVAL_ROWS)])
    if ds.task == "binary":
        loss, _ = bce_with_logits(z, ds.targets)
        metric = float(np.mean((z >= 0) == (ds.targets >= 0.5)))
    elif ds.task == "classification":
        loss, _ = cross_entropy(z, ds.targets)
        metric = float(np.mean(z.argmax(axis=1) == np.asarray(ds.targets).ravel()))
    else:
        loss, _ = mse(z, ds.targets)
        metric = math.sqrt(loss)
    return loss, metric


def metric_name(task: str) -> str:
    return "rmse" if task == "regression" else "accuracy"


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainReport:
    task: str
    config: dict
    epochs: list
    final: dict
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        if not self.epochs:
            return ""
        keys = list(self.epochs[0])
        lines = [",".join(keys)]
        lines += [",".join(repr(row[k]) for k in keys) for row in self.epochs]
        return "\n".join(lines) + "\n"


def _loss_targets(ds: Dataset):
    if ds.task == "classification":
        return np.asarray(ds.targets).astype(int).ravel()
    return ds.targets


def _first_nan_layer(net: Network, x) -> str:
    """Replay batch x in training mode; name the first layer with a non-finite output.

    Layers are deterministic and batch norm uses batch statistics, so this repeats
    the failed pass. It updates the running statistics again; the run is aborting.
    """
    for i, layer in enumerate(net.layers):
        x = layer.forward(x, True)
        if not np.isfinite(x).all():
            return f"layer{i} ({type(net.specs[i]).__name__})"
    return "loss"


def _first_nan_grad(net: Network) -> str:
    """The array where non-finite flat_grads started: the first one in backward order."""
    return next(name for name, _, grad, _ in reversed(net.parameters())
                if not np.isfinite(grad).all())


def fit(net: Network, train_ds: Dataset, config: TrainConfig, val_ds: Dataset | None = None) -> TrainReport:
    """Train the network; deterministic for fixed (net seed, config, data)."""
    if train_ds.inputs.shape[1] != net.input_width:
        raise ValueError("dataset width does not match network input width")
    loss_fn = _LOSSES[config.loss]
    targets = _loss_targets(train_ds)
    n = train_ds.inputs.shape[0]
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = steps_per_epoch * config.epochs
    rng = np.random.default_rng(config.seed)
    opt_state = AdamState() if config.optimizer == "adam" else SgdState()

    epoch_rows = []
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for b in range(steps_per_epoch):
            idx = order[b * config.batch_size:(b + 1) * config.batch_size]
            x = train_ds.inputs[idx]
            z = net.forward(x, training=True)
            loss, dz = loss_fn(z, targets[idx])
            if not math.isfinite(loss):
                raise NaNLossError(epoch, b, _first_nan_layer(net, x))
            net.backward(dz)
            if not np.isfinite(net.flat_grads).all():
                raise NaNLossError(epoch, b, f"{_first_nan_grad(net)} (backward pass)")
            if config.schedule == "one-cycle":
                lr = one_cycle_lr(step, total_steps, config.max_lr, config.peak_fraction)
            else:
                lr = config.max_lr
            if config.optimizer == "adam":
                adam_step(net, opt_state, lr, config.beta1, config.beta2,
                          config.eps, config.weight_decay)
            else:
                sgd_step(net, opt_state, lr, config.momentum, config.weight_decay)
            step += 1
            batch_losses.append(loss)
        train_loss, train_metric = evaluate(net, train_ds)
        epoch_rows.append({
            "epoch": epoch,
            "mean_batch_loss": float(np.mean(batch_losses)),
            "train_loss": train_loss,
            f"train_{metric_name(train_ds.task)}": train_metric,
        })

    final = {"train_loss": train_loss,
             f"train_{metric_name(train_ds.task)}": train_metric}
    if val_ds is not None:
        val_loss, val_metric = evaluate(net, val_ds)
        final["val_loss"] = val_loss
        final[f"val_{metric_name(val_ds.task)}"] = val_metric
    return TrainReport(task=train_ds.task, config=asdict(config),
                       epochs=epoch_rows, final=final)
