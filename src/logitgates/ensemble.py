"""An activation block's spec: one or more gates and how channels reach them.

Operands are adjacent channel pairs (2i, 2i+1). Two strategies:

* partition: channels split into m contiguous blocks, acts[j] applied to the
  pairs of block j, outputs concatenated in block order (n_c -> n_c/2).
* duplication: every act applied to the full pair list, outputs concatenated
  in act order (n_c -> m * n_c/2).

A lone 1-input activation (relu) passes through elementwise; mixing 1-input
and 2-input kinds, or two families, in one ensemble is rejected.

The text form is the only grammar: a single activation is its name
('xnor_nail', 'relu'), an ensemble is family:kinds:strategy
('nail:or+and+xnor:d', 'ail:or+xnor:p').

The network's activation layer routes a block by its spec: it builds the
routing once, from the spec and the input width, when the network is built.
"""

from dataclasses import dataclass

from .activations import Activation

_STRATEGY_SUFFIX = {"partition": "p", "duplication": "d"}
_SUFFIX_STRATEGY = {v: k for k, v in _STRATEGY_SUFFIX.items()}


@dataclass(frozen=True)
class EnsembleSpec:
    """Ordered activations of one family plus the channel-routing strategy.

    This is an activation block's layer spec in a network.
    """

    acts: tuple[Activation, ...]
    strategy: str = "duplication"

    def __post_init__(self):
        if not self.acts:
            raise ValueError("ensemble needs at least one activation")
        object.__setattr__(self, "acts", tuple(self.acts))
        if self.strategy not in _STRATEGY_SUFFIX:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if len(self.acts) == 1:  # one act routes alike either way; the text form says duplication
            object.__setattr__(self, "strategy", "duplication")
        arities = {act.arity for act in self.acts}
        if arities == {1} and len(self.acts) != 1:
            raise ValueError("1-input activations cannot be ensembled")
        if arities == {1, 2}:
            raise ValueError("cannot mix 1-input and 2-input activations")
        labels = {act.label for act in self.acts}
        if len(labels) > 1:
            raise ValueError(f"an ensemble takes a single family, got {sorted(labels)}")

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
        kinds = "+".join(a.kind for a in self.acts)
        return f"{self.acts[0].label}:{kinds}:{_STRATEGY_SUFFIX[self.strategy]}"


def parse_spec(text: str) -> EnsembleSpec:
    """Inverse of EnsembleSpec.name: 'or_ail', 'relu' or 'nail:or+and+xnor:d'."""
    text = text.strip().lower()
    parts = text.split(":")
    if len(parts) == 1:  # an activation name: kind_label, or a raw kind alone
        kind, _, label = text.rpartition("_")
        parts = [label, kind, "d"] if label in ("il", "ail", "nil", "nail") else ["raw", text, "d"]
    if len(parts) != 3:
        raise ValueError(f"malformed ensemble spec {text!r}")
    label, kinds, suffix = parts
    if suffix not in _SUFFIX_STRATEGY:
        raise ValueError(f"unknown strategy suffix {suffix!r} in {text!r}")
    normalized = label in ("nil", "nail")
    family = label[1:] if normalized else label
    acts = tuple(Activation(kind, family, normalized) for kind in kinds.split("+"))
    return EnsembleSpec(acts, _SUFFIX_STRATEGY[suffix])
