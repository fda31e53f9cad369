"""Logit-space probabilistic Boolean gates as neural activation functions."""

from .activations import (
    Activation,
    NORMALIZATION_TABLE,
    and_ail,
    and_il,
    apply,
    gradient,
    or_ail,
    or_il,
    relu,
    signed_geomean,
    xnor_ail,
    xnor_il,
)
from .data import Dataset, gen_nested_xnor8, gen_parity4, gen_xor2, load_mnist_idx
from .ensemble import EnsembleSpec, parse_spec
from .network import Affine, BatchNorm, Network
from .numerics import sigmoid
from .train import TrainConfig, TrainReport, fit, one_cycle_lr
from .verify import bayes_identity_check, grid_compare, normal_moments

__all__ = [
    "Activation", "NORMALIZATION_TABLE", "and_ail", "and_il", "apply", "gradient",
    "or_ail", "or_il", "relu", "signed_geomean", "xnor_ail", "xnor_il", "Dataset",
    "gen_nested_xnor8", "gen_parity4", "gen_xor2", "load_mnist_idx", "EnsembleSpec",
    "parse_spec", "Affine", "BatchNorm", "Network", "sigmoid", "TrainConfig",
    "TrainReport", "fit", "one_cycle_lr", "bayes_identity_check", "grid_compare",
    "normal_moments",
]

__version__ = "0.1.0"
