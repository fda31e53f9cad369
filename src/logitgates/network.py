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

import json
import struct
from dataclasses import dataclass

import numpy as np

from . import activations as A
from .ensemble import EnsembleSpec, parse_spec

_MAGIC = b"LGNET1"


class ModelFormatError(ValueError):
    """A model file that Network.load cannot read; the message names the path."""


@dataclass(frozen=True)
class Affine:
    n_in: int
    n_out: int

    def __post_init__(self):
        if min(self.n_in, self.n_out) < 1:
            raise ValueError(f"affine widths must be >= 1, got {self.n_in} -> {self.n_out}")

    def out_channels(self, n_c: int) -> int:
        if n_c != self.n_in:
            raise ValueError(f"affine expects {self.n_in} channels, gets {n_c}")
        return self.n_out


@dataclass(frozen=True)
class BatchNorm:
    channels: int
    momentum: float = 0.1
    epsilon: float = 1e-5

    def __post_init__(self):
        if not self.channels >= 1:
            raise ValueError(f"batch norm channels must be >= 1, got {self.channels}")
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
        np.dot(self._x.T, dout, out=self.grad_weight)
        dout.sum(axis=0, out=self.grad_bias)

    def backward(self, dout):
        self.param_grads(dout)
        return dout.dot(self.weight.T)

    def params(self):
        return [("weight", True), ("bias", False)]


class _BatchNormLayer:
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
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            n = x.shape[0]
            m = self.spec.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean
            # Running variance keeps the unbiased estimate, like the batch
            # statistics conventions everywhere else.
            unbiased = var * (n / (n - 1)) if n > 1 else var
            self.running_var = (1 - m) * self.running_var + m * unbiased
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.spec.epsilon)
        # xhat is written over x. That is safe because no layer keeps its
        # output (Affine keeps its input, and the first layer is always
        # Affine, so x is never the caller's array).
        xhat = x
        xhat -= mean
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

    def params(self):
        return [("gamma", False), ("beta", False)]


def _act_output(z, gate, xs, ys, normalized, training):
    """One act's output from its plan entry: the value, or with training (value, *partials)."""
    out = gate(z[..., xs], training) if ys is None else gate(z[..., xs], z[..., ys], training)
    if normalized is None:
        return out
    return A.standardize(normalized, *out) if training else A.standardize(normalized, out)


class _ActLayer:
    """An activation block, routed once at build from its spec and input width.

    ``plan`` holds one entry per act: its gate, the slices of its x and y
    operand columns on the last axis (y is None for an elementwise act), and
    the act itself when it is normalized, else None. Under partition act j
    reads the j-th contiguous block of pairs; under duplication every act
    reads every pair, so the backward sums the acts' shares per pair.
    """

    def __init__(self, spec: EnsembleSpec, n_in: int, rng: np.random.Generator):
        self.spec = spec
        self.n_in = n_in
        if spec.elementwise:
            self.plan = [(spec.acts[0].gate, slice(None), None, None)]
        else:
            partition = spec.strategy == "partition"
            cols = n_in // spec.m if partition else n_in  # operand columns per act
            self.plan = []
            for j, act in enumerate(spec.acts):
                lo = j * cols if partition else 0
                self.plan.append((act.gate, slice(lo, lo + cols, 2), slice(lo + 1, lo + cols, 2),
                                  act if act.normalized else None))
        self.acts_per_pair = spec.m if spec.strategy == "duplication" else 1
        self._partials = None

    def forward(self, z, training):
        if len(self.plan) == 1:
            out = _act_output(z, *self.plan[0], training)
        elif training:
            results = [_act_output(z, *entry, True) for entry in self.plan]
            out = [np.concatenate(parts, axis=-1) for parts in zip(*results)]
        else:
            out = np.concatenate([_act_output(z, *entry, False) for entry in self.plan], axis=-1)
        if not training:
            self._partials = None
            return out
        # d output / d x and d output / d y per output column; d output / d z alone if elementwise.
        self._partials = out[1:]
        return out[0]

    def backward(self, dout):
        if len(self._partials) == 1:
            return dout * self._partials[0]
        gx, gy = self._partials
        dz = np.empty(dout.shape[:-1] + (self.n_in,))
        if self.acts_per_pair > 1:
            # Every act saw the whole pair list: sum the acts' shares per pair.
            shape = dout.shape[:-1] + (self.acts_per_pair, -1)
            dz[..., 0::2] = (gx * dout).reshape(shape).sum(axis=-2)
            dz[..., 1::2] = (gy * dout).reshape(shape).sum(axis=-2)
        else:
            np.multiply(gx, dout, out=dz[..., 0::2])
            np.multiply(gy, dout, out=dz[..., 1::2])
        return dz

    def params(self):
        return []


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
        self.seed = int(seed)
        if not self.specs:
            raise ValueError("network needs at least one layer")
        first = self.specs[0]
        if not isinstance(first, Affine):
            raise ValueError("first layer must be affine (it fixes the input width)")
        widths = [first.n_in]  # each layer's input width, then the output width
        for i, spec in enumerate(self.specs):
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
                 for attr, decayed in layer.params()]
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
        out = []
        for i, layer in enumerate(self.layers):
            for attr, decay in layer.params():
                out.append((
                    f"layer{i}.{attr}",
                    getattr(layer, attr),
                    getattr(layer, "grad_" + attr),
                    decay,
                ))
        return out

    # -- serialization ------------------------------------------------------

    def _arrays(self):
        for layer in self.layers:
            if isinstance(layer, _AffineLayer):
                yield from (layer.weight, layer.bias)
            elif isinstance(layer, _BatchNormLayer):
                yield from (layer.gamma, layer.beta, layer.running_mean, layer.running_var)

    def save(self, path):
        header = json.dumps({"layers": [spec_to_dict(s) for s in self.specs],
                             "seed": self.seed}, sort_keys=True).encode()
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<I", len(header)))
            f.write(header)
            for arr in self._arrays():
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
                for arr in net._arrays():
                    raw = f.read(arr.size * 8)
                    if len(raw) != arr.size * 8:
                        raise ValueError("truncated parameter data")
                    arr[...] = np.frombuffer(raw, dtype="<f8").reshape(arr.shape)
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
        return Affine(d["in"], d["out"])
    if t == "batch_norm":
        return BatchNorm(d["channels"], d["momentum"], d["epsilon"])
    if t == "act":
        return parse_spec(d["spec"])
    raise ValueError(f"unknown layer type {t!r}")
