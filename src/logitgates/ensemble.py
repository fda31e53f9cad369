"""Routing of pre-activation channels through one or more 2-input gates.

Operands are adjacent channel pairs (2i, 2i+1). Two strategies:

* partition: channels split into m contiguous blocks, acts[j] applied to the
  pairs of block j, outputs concatenated in block order (n_c -> n_c/2).
* duplication: every act applied to the full pair list, outputs concatenated
  in act order (n_c -> m * n_c/2).

A lone 1-input activation (relu) passes through elementwise; mixing 1-input
and 2-input kinds in one ensemble is rejected.
"""

from dataclasses import dataclass

import numpy as np

from . import activations as A
from .activations import Activation, family_label, parse_activation, parse_family

_STRATEGY_SUFFIX = {"partition": "p", "duplication": "d"}
_SUFFIX_STRATEGY = {v: k for k, v in _STRATEGY_SUFFIX.items()}


@dataclass(frozen=True)
class EnsembleSpec:
    """Ordered activations plus the channel-routing strategy."""

    acts: tuple[Activation, ...]
    strategy: str = "duplication"

    def __post_init__(self):
        if not self.acts:
            raise ValueError("ensemble needs at least one activation")
        object.__setattr__(self, "acts", tuple(self.acts))
        if self.strategy not in _STRATEGY_SUFFIX:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        arities = {act.arity for act in self.acts}
        if arities == {1} and len(self.acts) != 1:
            raise ValueError("1-input activations cannot be ensembled")
        if arities == {1, 2}:
            raise ValueError("cannot mix 1-input and 2-input activations")

    @property
    def m(self) -> int:
        return len(self.acts)

    @property
    def elementwise(self) -> bool:
        return self.acts[0].arity == 1

    def out_channels(self, n_c: int) -> int:
        """Output width for an n_c-wide input; validates divisibility."""
        if self.elementwise:
            return n_c
        if self.strategy == "partition":
            if n_c % (2 * self.m) != 0:
                raise ValueError(
                    f"partition over {self.m} acts needs channels divisible by "
                    f"{2 * self.m}, got {n_c}"
                )
            return n_c // 2
        if n_c % 2 != 0:
            raise ValueError(f"duplication needs an even channel count, got {n_c}")
        return self.m * (n_c // 2)

    @property
    def name(self) -> str:
        """Canonical text form, e.g. 'or_ail' or 'nail:or+and+xnor:d'."""
        if self.m == 1:
            return self.acts[0].name
        first = self.acts[0]
        if any((a.family, a.normalized) != (first.family, first.normalized) for a in self.acts):
            raise ValueError("text form requires a single family across the ensemble")
        family = family_label(first.family, first.normalized)
        kinds = "+".join(a.kind for a in self.acts)
        return f"{family}:{kinds}:{_STRATEGY_SUFFIX[self.strategy]}"

    def __str__(self) -> str:
        return self.name


def parse_spec(text: str) -> EnsembleSpec:
    """Parse the canonical text form (family prefix, +-joined kinds, strategy)."""
    text = text.strip().lower()
    parts = text.split(":")
    if len(parts) == 1:
        return EnsembleSpec((parse_activation(parts[0]),))
    if len(parts) != 3:
        raise ValueError(f"malformed ensemble spec {text!r}")
    family, kinds, suffix = parts
    if suffix not in _SUFFIX_STRATEGY:
        raise ValueError(f"unknown strategy suffix {suffix!r} in {text!r}")
    family, normalized = parse_family(family)
    acts = tuple(Activation(kind, family, normalized) for kind in kinds.split("+"))
    return EnsembleSpec(acts, _SUFFIX_STRATEGY[suffix])


def _act_pair_slices(spec: EnsembleSpec, n_c: int) -> list[slice]:
    """Per-act slices into the global pair list (pairs never straddle blocks)."""
    n_pairs = n_c // 2
    if spec.strategy == "duplication":
        return [slice(0, n_pairs)] * spec.m
    per_block = n_pairs // spec.m
    return [slice(j * per_block, (j + 1) * per_block) for j in range(spec.m)]


def _join(parts):
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def forward(spec: EnsembleSpec, z: np.ndarray, training: bool = False):
    """Apply the ensemble to a (batch, n_c) pre-activation matrix.

    With ``training``, returns (output, partials) instead: partials holds
    d output / d x and d output / d y, each shaped like the output, for the
    operand pair behind every output column (d output / d z and None for an
    elementwise block). ``backward`` needs nothing else.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("expected a (batch, channels) matrix")
    n_c = z.shape[1]
    spec.out_channels(n_c)  # validates the width
    if spec.elementwise:
        out = A.apply(spec.acts[0], z, grad=training)
        return (out[0], (out[1], None)) if training else out
    x, y = z[:, 0::2], z[:, 1::2]
    results = [A.apply(act, x[:, sl], y[:, sl], grad=training)
               for act, sl in zip(spec.acts, _act_pair_slices(spec, n_c))]
    if not training:
        return _join(results)
    values, gxs, gys = zip(*results)
    return _join(values), (_join(gxs), _join(gys))


def backward(spec: EnsembleSpec, partials, upstream: np.ndarray) -> np.ndarray:
    """Chain upstream gradients back to the operand channels.

    ``partials`` is what forward(..., training=True) returned with the output.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    gx, gy = partials
    if upstream.shape != gx.shape:
        raise ValueError(f"upstream shape {upstream.shape} != forward output {gx.shape}")
    if spec.elementwise:
        return upstream * gx
    dx, dy = gx * upstream, gy * upstream
    if spec.strategy == "duplication" and spec.m > 1:
        # Every act saw the whole pair list: sum the acts' shares per pair.
        dx = dx.reshape(dx.shape[0], spec.m, -1).sum(axis=1)
        dy = dy.reshape(dy.shape[0], spec.m, -1).sum(axis=1)
    dz = np.empty((dx.shape[0], 2 * dx.shape[1]))
    dz[:, 0::2] = dx
    dz[:, 1::2] = dy
    return dz
