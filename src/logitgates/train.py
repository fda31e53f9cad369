"""The training recipe (Adam on the one-cycle schedule), losses, and the training loop."""

import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset
from .network import Network
from .numerics import BLOCK, check_fields, count, sigmoid


@dataclass
class TrainConfig:
    """A run of Adam on the one-cycle schedule; the constants below fix the rest."""

    epochs: int = count(1)
    batch_size: int = count(1)
    max_lr: float = 0.01
    weight_decay: float = 0.0
    seed: int = count(0, default=0)
    loss: str = "bce-with-logits"  # the loss of a dataset kind in KINDS

    def __post_init__(self):
        check_fields(self)
        for name in ("max_lr", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):  # JSON reads NaN and Infinity
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if self.loss not in _LOSSES:
            raise ValueError(f"loss must be one of {sorted(_LOSSES)}, got {self.loss!r}")


class NaNLossError(RuntimeError):
    """Training hit a non-finite loss; carries the first offending location."""

    def __init__(self, epoch, batch, layer):
        self.epoch, self.batch, self.layer = epoch, batch, layer
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}, first NaN in {layer}")


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------

ONE_CYCLE_PEAK = 0.3  # share of the steps spent warming up
ONE_CYCLE_START_DIV = 25.0
ONE_CYCLE_END_DIV = 1e4


def one_cycle_lr(step: int, total_steps: int, max_lr: float) -> float:
    """Linear warmup from max_lr/25 to max_lr over the first 30% of the steps,
    then cosine decay to max_lr/1e4."""
    if not 0 <= step < total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps})")
    start = max_lr / ONE_CYCLE_START_DIV
    end = max_lr / ONE_CYCLE_END_DIV
    peak = ONE_CYCLE_PEAK * total_steps
    if step <= peak:
        return start + (max_lr - start) * (step / peak)
    # step > peak > 0 means total_steps >= 2, so the decay spans > 0 steps.
    t = (step - peak) / ((total_steps - 1) - peak)
    return end + (max_lr - end) * 0.5 * (1.0 + math.cos(math.pi * t))


# ---------------------------------------------------------------------------
# Optimizer: Adam with coupled weight decay (added to the gradient, weights
# only). The two moments are the rows of one (2, P) array, so each operation
# that is the same for both, with its own beta, runs once for the pair. The
# step walks Network.flat_params/flat_grads in BLOCK-element slices, so its
# temporaries stay in cache, and writes them into block-sized scratch buffers
# kept in the state, so no step allocates. The state is bound to the network
# it steps: its constructor cuts the views of every slice once, since a small
# network's step takes microseconds, and slicing anew would add to each of them.
# ---------------------------------------------------------------------------

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
_BETAS = np.array(ADAM_BETAS).reshape(2, 1)
_ONE_MINUS_BETAS = 1 - _BETAS


class AdamState:
    def __init__(self, net: Network):
        self.t = 0
        self.mv = np.zeros((2, net.flat_params.size))  # row 0 is m, row 1 is v
        self.bias_correction = np.empty((2, 1))  # 1 - beta ** t per row
        # Per BLOCK-element slice: (params, grads, mv, s, s_m, s_v, b, decay),
        # where s is a (2, BLOCK) scratch buffer cut to the slice's length with
        # s_m, s_v its rows, b a BLOCK-element one, and decay None where no
        # element of the slice is in the weight-decayed prefix, else the views
        # (p[:d], g[:d], b[:d], g[d:], b[d:]) for its first d decayed elements.
        size = min(BLOCK, net.flat_params.size)
        scratch, decayed_grad = np.empty((2, size)), np.empty(size)
        self.blocks = []
        for i in range(0, net.flat_params.size, BLOCK):
            p, g = net.flat_params[i:i + BLOCK], net.flat_grads[i:i + BLOCK]
            s, b = scratch[:, :p.size], decayed_grad[:p.size]
            d = min(max(net.n_decayed - i, 0), p.size)
            decay = (p[:d], g[:d], b[:d], g[d:], b[d:]) if d else None
            self.blocks.append((p, g, self.mv[:, i:i + BLOCK], s, s[0], s[1], b, decay))


def adam_step(state: AdamState, lr, weight_decay=0.0):
    """One Adam step on the network that state was made from."""
    b1, b2 = ADAM_BETAS
    state.t += 1
    bc = state.bias_correction
    bc[0, 0] = 1.0 - b1 ** state.t
    bc[1, 0] = 1.0 - b2 ** state.t
    for p, g, mv, s, s_m, s_v, b, decay in state.blocks:
        if weight_decay and decay:
            # g plus weight_decay * p on the decayed elements, into b; where
            # nothing decays g stays a slice of flat_grads, which is only read.
            p_d, g_d, b_d, g_rest, b_rest = decay
            np.multiply(weight_decay, p_d, out=b_d)
            b_d += g_d
            b_rest[...] = g_rest
            g = b
        # m = b1 * m + (1 - b1) * g and v = b2 * v + ((1 - b2) * g) * g.
        mv *= _BETAS
        np.multiply(_ONE_MINUS_BETAS, g, out=s)
        s_v *= g
        mv += s
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), in this operation order.
        np.divide(mv, bc, out=s)
        s_m *= lr
        np.sqrt(s_v, out=s_v)
        s_v += ADAM_EPS
        s_m /= s_v
        p -= s_m


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
    sq = diff * diff
    # np.mean's own reduction and divide, without its per-call dispatch.
    loss = float(np.add.reduce(sq, axis=None) / sq.size)
    return loss, (2.0 / z.size) * diff


# A dataset kind's loss and metric, each by name and routine; the metric
# routine takes (outputs, targets, mean loss).
Kind = namedtuple("Kind", "loss loss_fn metric metric_fn")

# Keyed by Dataset.task.
KINDS = {
    "binary": Kind("bce-with-logits", bce_with_logits, "accuracy",
                   lambda z, t, loss: float(np.mean((z >= 0) == (t >= 0.5)))),
    "classification": Kind("cross-entropy", cross_entropy, "accuracy",
                           lambda z, t, loss: float(np.mean(z.argmax(axis=1) == t))),
    "regression": Kind("mse", mse, "rmse", lambda z, t, loss: math.sqrt(loss)),
}

# By loss name. fit looks its loss up here on each call, so a wrapped entry
# times training steps only; evaluate calls its kind's routine directly.
_LOSSES = {kind.loss: kind.loss_fn for kind in KINDS.values()}


def _kind(net: Network, ds: Dataset):
    """ds's entry in KINDS, once its inputs and targets are known to fit net."""
    if ds.task not in KINDS:
        raise ValueError(f"unknown dataset kind {ds.task!r}; kinds are {sorted(KINDS)}")
    if ds.inputs.shape[1] != net.input_width:
        raise ValueError("dataset width does not match network input width")
    # A class label picks one output; any other target row is one output row.
    width = ds.n_classes if ds.task == "classification" else ds.targets.shape[1]
    if width != net.output_width:
        raise ValueError(f"{ds.task} targets are {width} wide, the network's output is "
                         f"{net.output_width}")
    return KINDS[ds.task]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def evaluate(net: Network, ds: Dataset):
    """(loss, metric) on a dataset, by its kind in KINDS."""
    kind = _kind(net, ds)
    # The fewest forward passes that keep the widest layer output within
    # 3 * BLOCK elements (768 KB), so memory does not grow with the data, cut
    # into equal passes of ceil(n / passes) rows, so no short tail pass is
    # left. BLAS may round a product differently by its row count, so the
    # scores keep their bits for a fixed numpy build, BLAS build, BLAS thread
    # count and this pass rule, not at any pass size.
    passes = -(-ds.n // max(1, 3 * BLOCK // net.widest_output))
    rows = -(-ds.n // passes)
    if passes == 1:
        z = net.forward(ds.inputs, training=False)
    else:
        z = np.concatenate([net.forward(ds.inputs[i:i + rows], training=False)
                            for i in range(0, ds.n, rows)])
    loss, _ = kind.loss_fn(z, ds.targets)
    return loss, kind.metric_fn(z, ds.targets, loss)


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
    """Train the network on config.loss, which must be train_ds's kind's loss.

    Deterministic for a fixed (net seed, config, data) under a fixed numpy
    build, BLAS build and BLAS thread count: the BLAS blocks its products by
    thread count, so an MNIST-sized run's bytes differ between 1 and 2 threads.
    """
    for ds in (train_ds, val_ds):  # before any forward pass
        if ds is not None:
            _kind(net, ds)
    if config.loss != (expected := KINDS[train_ds.task].loss):
        raise ValueError(f"loss: {train_ds.task} data trains on {expected!r}, got {config.loss!r}")
    loss_fn = _LOSSES[config.loss]
    n = train_ds.inputs.shape[0]
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = steps_per_epoch * config.epochs
    rng = np.random.default_rng(config.seed)
    state = AdamState(net)

    epoch_rows = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for b in range(steps_per_epoch):
            idx = order[b * config.batch_size:(b + 1) * config.batch_size]
            # take gives the same fresh C-contiguous batch as fancy indexing, for
            # less per-call overhead.
            x = train_ds.inputs.take(idx, axis=0)
            z = net.forward(x, training=True)
            loss, dz = loss_fn(z, train_ds.targets.take(idx, axis=0))
            if not math.isfinite(loss):
                raise NaNLossError(epoch, b, _first_nan_layer(net, x))
            net.backward(dz)
            if not np.logical_and.reduce(np.isfinite(net.flat_grads)):
                raise NaNLossError(epoch, b, f"{_first_nan_grad(net)} (backward pass)")
            adam_step(state, one_cycle_lr(state.t, total_steps, config.max_lr),
                      config.weight_decay)
            batch_losses.append(loss)
        epoch_rows.append({"epoch": epoch, "mean_batch_loss": float(np.mean(batch_losses))})

    final = {}  # each split is scored once, on the trained weights
    for split, ds in (("train", train_ds), ("val", val_ds)):
        if ds is not None:
            loss, metric = evaluate(net, ds)
            final |= {f"{split}_loss": loss, f"{split}_{KINDS[ds.task].metric}": metric}
    return TrainReport(task=train_ds.task, config=asdict(config),
                       epochs=epoch_rows, final=final)
