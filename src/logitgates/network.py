"""Feed-forward network: affine layers, batch norm, and activation blocks.

Forward and backward passes are explicit; each layer caches what its own
backward needs when run in training mode. Parameter layout, initialization,
and the save format are all deterministic for a given seed. The layer specs
are Affine, BatchNorm and, for an activation block, ensemble.EnsembleSpec;
each gives its output width for an input width with ``out_channels``.

Every trainable array and its gradient is a view into one of two contiguous
buffers, ``Network.flat_params`` and ``Network.flat_grads``, so an optimizer
updates the whole network with a few vector operations. Layers therefore
write parameters and gradients in place and never rebind them.
"""

import functools
import json
import struct
from dataclasses import dataclass

import numpy as np

from . import activations as A
from .ensemble import EnsembleSpec, parse_spec
from .numerics import check_fields, count, require

_MAGIC = b"LGNET1"


class ModelFormatError(ValueError):
    """A model file that Network.load cannot read; the message names the path."""


@dataclass(frozen=True)
class Affine:
    n_in: int = count(1)
    n_out: int = count(1)

    def __post_init__(self):
        check_fields(self)

    def out_channels(self, n_c: int) -> int:
        if n_c != self.n_in:
            raise ValueError(f"affine expects {self.n_in} channels, gets {n_c}")
        return self.n_out


@dataclass(frozen=True)
class BatchNorm:
    channels: int = count(1)
    momentum: float = 0.1
    epsilon: float = 1e-5

    def __post_init__(self):
        check_fields(self)
        if not 0 <= self.momentum <= 1:
            raise ValueError(f"batch norm momentum must lie in [0, 1], got {self.momentum}")
        if not 0 < self.epsilon <= 1:  # also rejects nan and inf
            raise ValueError(f"batch norm epsilon must lie in (0, 1], got {self.epsilon}")

    def out_channels(self, n_c: int) -> int:
        if n_c != self.channels:
            raise ValueError(f"batch norm over {self.channels} channels, gets {n_c}")
        return n_c


LayerSpec = Affine | BatchNorm | EnsembleSpec


class _AffineLayer:
    # Each layer type names its trainable arrays with their weight-decay flag,
    # and the arrays a model file holds, in file order.
    TRAINABLE = (("weight", True), ("bias", False))
    SAVED = ("weight", "bias")

    def __init__(self, spec: Affine, n_in: int, rng: np.random.Generator):
        self.spec = spec
        bound = np.sqrt(1.0 / spec.n_in)
        self.weight = rng.uniform(-bound, bound, size=(spec.n_in, spec.n_out))
        self.bias = np.zeros(spec.n_out)
        self._x = None

    # The products go through dot, not the matmul operator: both reach the
    # same BLAS routine with the same bits, but matmul's ufunc dispatch costs
    # about a microsecond more per call, which counts on a small network.
    def forward(self, x, training):
        self._x = x if training else None
        out = x.dot(self.weight)
        out += self.bias
        return out

    def param_grads(self, dout):
        """Write the weight and bias gradients; the input gradient is not formed."""
        # np.dot's BLAS product and ndarray.sum's reduction, without their dispatch.
        self._x.T.dot(dout, out=self.grad_weight)
        np.add.reduce(dout, 0, out=self.grad_bias)

    def backward(self, dout):
        self.param_grads(dout)
        return dout.dot(self.weight.T)


class _BatchNormLayer:
    TRAINABLE = (("gamma", False), ("beta", False))
    SAVED = ("gamma", "beta", "running_mean", "running_var")

    def __init__(self, spec: BatchNorm, n_in: int, rng: np.random.Generator):
        self.spec = spec
        c = spec.channels
        self.gamma = np.ones(c)
        self.beta = np.zeros(c)
        self.running_mean = np.zeros(c)
        self.running_var = np.ones(c)
        self._xhat = None
        self._inv_std = None

    def forward(self, x, training):
        # xhat is written over x. That is safe because no layer keeps its
        # output (Affine keeps its input, and the first layer is always
        # Affine, so x is never the caller's array).
        xhat = x
        if training:
            mean = x.mean(axis=0)
            xhat -= mean
            # np.var's own steps on the centred input, so var keeps its bits.
            n = x.shape[0]
            var = (xhat * xhat).sum(axis=0) / n
            m = self.spec.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean
            # Running variance keeps the unbiased estimate, like the batch
            # statistics conventions everywhere else.
            unbiased = var * (n / (n - 1)) if n > 1 else var
            self.running_var = (1 - m) * self.running_var + m * unbiased
        else:
            xhat -= self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.spec.epsilon)
        xhat *= inv_std
        self._xhat = xhat if training else None
        self._inv_std = inv_std if training else None
        # The training backward reads xhat, so only then is the output a new array.
        out = np.multiply(self.gamma, xhat, out=None if training else xhat)
        out += self.beta
        return out

    def backward(self, dout):
        """Gradients through batch norm; consumes the cached xhat, so it runs once per forward."""
        xhat = self._xhat
        n = dout.shape[0]
        prod = np.multiply(dout, xhat)
        prod.sum(axis=0, out=self.grad_gamma)
        dout.sum(axis=0, out=self.grad_beta)
        dxhat = dout * self.gamma
        # Backprop through the batch statistics themselves:
        # (inv_std / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
        # in that operation order, written over dxhat and xhat.
        s1 = dxhat.sum(axis=0)
        s2 = np.multiply(dxhat, xhat, out=prod).sum(axis=0)
        dxhat *= n
        dxhat -= s1
        xhat *= s2
        dxhat -= xhat
        dxhat *= self._inv_std / n
        return dxhat


class _ActLayer:
    """An activation block, routed once at build from its spec and input width.

    ``plan`` holds one entry per act, ``(routine, xs, ys, up_cols, writes)``: its
    routine, the raw gate or, for a normalized act, ``activations.apply`` bound to it;
    the indices of its x and y operands in the operand view (ys is None for an
    elementwise act); its output columns, ``[:, j*act_width:(j+1)*act_width]`` for act
    j, which its backward reads from the upstream gradient; and whether that
    backward writes its operands' gradient (the first act, and every act under
    partition) or adds to it (later acts under duplication, in act order).
    Under partition act j reads the j-th contiguous block of pairs, as column
    slices of the input; under duplication every act reads every pair from a
    view with one row per pair (per channel if elementwise), so its gate takes
    1-D operands and runs one loop, not one per row. No entry depends on the
    row count, so a short final batch runs the same plan.

    Each pass is one loop over the plan. Training keeps each act's partials as
    its routine returns them. The backward writes or adds partial * upstream
    through the same operand view of dz.
    """

    TRAINABLE = SAVED = ()

    def __init__(self, spec: EnsembleSpec, n_in: int, rng: np.random.Generator):
        self.spec = spec
        self.n_in = n_in
        partition = spec.strategy == "partition"
        if partition:
            self.view_width, cols = n_in, n_in // spec.m  # operand columns per act
            operands = [(np.s_[:, lo:lo + cols:2], np.s_[:, lo + 1:lo + cols:2])
                        for lo in range(0, n_in, cols)]
        else:  # every act reads every pair, or every channel if elementwise
            self.view_width = spec.acts[0].arity
            operands = [(np.s_[:, 0], None if spec.elementwise else np.s_[:, 1])] * spec.m
        self.act_width = w = spec.out_channels(n_in) // spec.m  # output columns per act
        self.plan = [(functools.partial(A.apply, act) if act.normalized else act.gate, xs, ys,
                      np.s_[:, j * w:(j + 1) * w], j == 0 or partition)
                     for j, (act, (xs, ys)) in enumerate(zip(spec.acts, operands))]
        self._partials = None  # per act: d value / d x and d value / d y, or d / dz alone

    def forward(self, z, training):
        v, shape = z.reshape(-1, self.view_width), (len(z), self.act_width)
        values, self._partials = [], [] if training else None
        for routine, xs, ys, _, _ in self.plan:
            out = routine(v[xs], training) if ys is None else routine(v[xs], v[ys], training)
            if training:
                self._partials.append(out[1:])
                out = out[0]
            values.append(out.reshape(shape))
        return values[0] if len(values) == 1 else np.concatenate(values, axis=-1)

    def backward(self, dout):
        dz = np.empty((len(dout), self.n_in))
        v = dz.reshape(-1, self.view_width)
        for (_, xs, ys, up_cols, writes), partials in zip(self.plan, self._partials):
            up = dout[up_cols].reshape(partials[0].shape)
            for index, partial in zip((xs, ys), partials):  # relu: one operand, one partial
                if writes:
                    np.multiply(partial, up, out=v[index])
                else:
                    v[index] += partial * up
        return dz


def _as_matrix(data) -> np.ndarray:
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2D matrix, got shape {m.shape}")
    return m


_LAYER_TYPES = {Affine: _AffineLayer, BatchNorm: _BatchNormLayer, EnsembleSpec: _ActLayer}


class Network:
    """Layer stack with explicit forward/backward and seeded initialization."""

    def __init__(self, specs, seed: int = 0):
        self.specs = list(specs)
        require("seed", int, seed, 0)
        self.seed = int(seed)  # a numpy integer too is saved as plain JSON
        if not self.specs:
            raise ValueError("network needs at least one layer")
        first = self.specs[0]
        if not isinstance(first, Affine):
            raise ValueError("first layer must be affine (it fixes the input width)")
        widths = [first.n_in]  # each layer's input width, then the output width
        for i, spec in enumerate(self.specs):
            if type(spec) not in _LAYER_TYPES:
                raise ValueError(f"layer {i}: {spec!r} is not a layer spec (one of "
                                 f"{', '.join(t.__name__ for t in _LAYER_TYPES)})")
            try:
                widths.append(spec.out_channels(widths[-1]))
            except ValueError as exc:
                raise ValueError(f"layer {i}: {exc}") from exc
        self.input_width, self.output_width = widths[0], widths[-1]
        self.widest_output = max(widths[1:])  # of any layer
        rng = np.random.default_rng(self.seed)
        self.layers = [_LAYER_TYPES[type(s)](s, n, rng) for s, n in zip(self.specs, widths)]
        self._training_cache = False
        self._build_flat_store()

    def _build_flat_store(self):
        """Move every parameter into ``flat_params`` and bind its gradient in ``flat_grads``.

        Decayed weights come first, in layer order, so weight decay touches
        the prefix ``[:n_decayed]``; the undecayed arrays follow in layer order.
        """
        slots = [(layer, attr, decayed) for layer in self.layers
                 for attr, decayed in layer.TRAINABLE]
        slots.sort(key=lambda slot: not slot[2])  # stable: layer order within each group
        total = sum(getattr(layer, attr).size for layer, attr, _ in slots)
        self.flat_params = np.empty(total)
        self.flat_grads = np.zeros(total)
        self.n_decayed = sum(getattr(layer, attr).size for layer, attr, d in slots if d)
        offset = 0
        for layer, attr, _ in slots:
            value = getattr(layer, attr)
            end = offset + value.size
            view = self.flat_params[offset:end].reshape(value.shape)
            view[...] = value
            setattr(layer, attr, view)
            setattr(layer, "grad_" + attr, self.flat_grads[offset:end].reshape(value.shape))
            offset = end

    def forward(self, x, training: bool = False):
        x = _as_matrix(x)
        if x.shape[1] != self.input_width:
            raise ValueError(f"input has {x.shape[1]} columns, network expects {self.input_width}")
        for layer in self.layers:
            x = layer.forward(x, training)
        self._training_cache = training
        return x

    def backward(self, dLdy):
        """Fill ``flat_grads`` with dL/dparameters for upstream gradient dLdy.

        Needs a preceding ``forward(training=True)``, one per backward: batch
        norm's backward overwrites what its forward cached. The first layer is
        always affine and only its parameter gradients are taken, so the
        gradient with respect to the network input is never formed; nothing is
        returned.
        """
        if not self._training_cache:
            raise RuntimeError("backward requires a preceding forward(training=True)")
        d = _as_matrix(dLdy)
        if d.shape[1] != self.output_width:
            raise ValueError(f"upstream has {d.shape[1]} columns, output is {self.output_width}")
        self._training_cache = False
        for layer in reversed(self.layers[1:]):
            d = layer.backward(d)
        self.layers[0].param_grads(d)

    def parameters(self):
        """(name, param, grad, is_decayed_weight) for every trainable array."""
        return [(f"layer{i}.{attr}", getattr(layer, attr), getattr(layer, "grad_" + attr), decay)
                for i, layer in enumerate(self.layers) for attr, decay in layer.TRAINABLE]

    # -- serialization ------------------------------------------------------

    def _arrays(self):
        """(name, array) for every array a model file holds, in file order."""
        return [(f"layer{i}.{attr}", getattr(layer, attr))
                for i, layer in enumerate(self.layers) for attr in layer.SAVED]

    def _header(self) -> dict:
        return {"layers": [spec_to_dict(s) for s in self.specs], "seed": self.seed}

    def save(self, path):
        header = json.dumps(self._header(), sort_keys=True).encode()
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<I", len(header)))
            f.write(header)
            for _, arr in self._arrays():
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path):
        """Read a file written by ``save``; a malformed one raises ModelFormatError."""
        with open(path, "rb") as f:
            try:
                if f.read(len(_MAGIC)) != _MAGIC:
                    raise ValueError("not a network file (bad magic)")
                (hlen,) = struct.unpack("<I", f.read(4))
                meta = json.loads(f.read(hlen).decode())
                net = cls([spec_from_dict(d) for d in meta["layers"]], seed=meta["seed"])
                _refuse_unknown_keys(meta, net._header(), "header")
                for name, arr in net._arrays():
                    raw = f.read(arr.size * 8)
                    if len(raw) != arr.size * 8:
                        raise ValueError("truncated parameter data")
                    arr[...] = np.frombuffer(raw, dtype="<f8").reshape(arr.shape)
                    # fit stops on a non-finite loss or gradient, and a running
                    # variance is an average of variances, so no trained
                    # network holds either.
                    if not np.isfinite(arr).all():
                        raise ValueError(f"{name} holds a non-finite value")
                    if name.endswith(".running_var") and (arr < 0).any():
                        raise ValueError(f"{name} holds a negative variance")
                if f.read(1):
                    raise ValueError("trailing bytes after parameters")
            except (ValueError, KeyError, TypeError, AttributeError, struct.error) as exc:
                # JSON and UTF-8 decoding errors are ValueErrors; struct.error
                # comes from a short length field, the others from a bad header.
                raise ModelFormatError(f"{path}: {exc}") from exc
        return net


def spec_to_dict(spec: LayerSpec) -> dict:
    if isinstance(spec, Affine):
        return {"type": "affine", "in": spec.n_in, "out": spec.n_out}
    if isinstance(spec, BatchNorm):
        return {"type": "batch_norm", "channels": spec.channels,
                "momentum": spec.momentum, "epsilon": spec.epsilon}
    if isinstance(spec, EnsembleSpec):
        return {"type": "act", "spec": spec.name}
    raise TypeError(f"unknown layer spec {spec!r}")


def spec_from_dict(d: dict) -> LayerSpec:
    t = d["type"]
    if t == "affine":
        spec = Affine(d["in"], d["out"])
    elif t == "batch_norm":
        spec = BatchNorm(d["channels"], d["momentum"], d["epsilon"])
    elif t == "act":
        spec = parse_spec(d["spec"])
    else:
        raise ValueError(f"unknown layer type {t!r}")
    _refuse_unknown_keys(d, spec_to_dict(spec), f"{t} layer")
    return spec


def _refuse_unknown_keys(raw: dict, written: dict, where: str) -> None:
    """Raise ValueError naming the first key of raw that save does not write."""
    unknown = sorted(raw.keys() - written.keys())
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r}")
