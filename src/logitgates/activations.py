"""Two-input logit-space Boolean gates and baseline nonlinearities.

Exact gates (``*_il``) treat their inputs as logits of independent events and
return the logit of the combined event. Approximate gates (``*_ail``) are the
piecewise-linear counterparts built from comparisons and addition only.

Every gate is a single routine ``gate(x, y, grad=False)`` that returns its
value, or with ``grad`` the triple (value, d/dx, d/dy), so value and partials
come from the same intermediates. The partials are hand-derived; agreement
with finite differences is enforced by the test suite rather than assumed.

All routines are elementwise over floats or numpy arrays and broadcast their
operands.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import LOGIT_CLAMP


def _f64(x):
    return np.asarray(x, dtype=np.float64)


def _negated(out, grad):
    """De Morgan dual -gate(-x, -y) from gate's output at (-x, -y).

    The two negations cancel in the chain rule, so the partials keep their sign.
    """
    if not grad:
        return -out
    value, gx, gy = out
    return -value, gx, gy


# ---------------------------------------------------------------------------
# Exact gates, in log-probabilities. Each operand gives log sigma(x) and
# log sigma(-x) from one r = log1p(exp(-|x|)). The gate builds log p of its
# event and log q of the complement event directly from those, never as
# log(1 - p) of a rounded p, and returns logit = log p - log q.
# ---------------------------------------------------------------------------


def _log_sigmoids(x):
    """(log sigma(x), log sigma(-x)), finite for every finite x."""
    x = _f64(x)
    r = np.log1p(np.exp(-np.abs(x)))
    return np.minimum(x, 0.0) - r, np.minimum(-x, 0.0) - r


def _logit(logp, logq):
    # Clamped so a saturated gate never hands inf to the next layer.
    return np.clip(logp - logq, -LOGIT_CLAMP, LOGIT_CLAMP)


def and_il(x, y, grad=False):
    """Logit of p = sigma(x)*sigma(y); d/dx = sigma(-x) / (1 - p)."""
    lpx, lnx = _log_sigmoids(x)
    lpy, lny = _log_sigmoids(y)
    with np.errstate(over="ignore"):  # a sum past -1.8e308 is p = 0: -inf is right
        logp = lpx + lpy
        logq = np.logaddexp(lnx + lny, np.logaddexp(lpx + lny, lnx + lpy))
    value = _logit(logp, logq)
    if not grad:
        return value
    return value, np.exp(lnx - logq), np.exp(lny - logq)


def or_il(x, y, grad=False):
    """Logit of 1 - sigma(-x)*sigma(-y); De Morgan dual of and_il, bit-exact."""
    return _negated(and_il(-_f64(x), -_f64(y), grad), grad)


def xnor_il(x, y, grad=False):
    """Logit of p = sigma(x)sigma(y) + sigma(-x)sigma(-y) (both or neither).

    The complement is XOR; d/dx = sigma(x)sigma(-x)tanh(y/2) / (p(1-p)).
    """
    x, y = _f64(x), _f64(y)
    lpx, lnx = _log_sigmoids(x)
    lpy, lny = _log_sigmoids(y)
    with np.errstate(over="ignore"):
        logp = np.logaddexp(lpx + lpy, lnx + lny)
        logq = np.logaddexp(lpx + lny, lnx + lpy)
    value = _logit(logp, logq)
    if not grad:
        return value
    logpq = logp + logq
    gx = np.exp(lpx + lnx - logpq) * np.tanh(y / 2.0)
    gy = np.exp(lpy + lny - logpq) * np.tanh(x / 2.0)
    return value, gx, gy


# ---------------------------------------------------------------------------
# Approximate gates and baselines
# ---------------------------------------------------------------------------

# Subgradient conventions on the measure-zero boundaries: the sum branch owns
# its closure (quadrant edges included), and min/max ties resolve to the
# x-partial. Any fixed deterministic choice works for SGD; this one keeps
# and/or duality consistent.


def and_ail(x, y, grad=False):
    """x + y in the both-negative quadrant, min(x, y) elsewhere."""
    x, y = _f64(x), _f64(y)
    in_sum = (x <= 0) & (y <= 0)
    value = np.where(in_sum, x + y, np.minimum(x, y))
    if not grad:
        return value
    x_branch = x <= y
    return value, (in_sum | x_branch).astype(np.float64), (in_sum | ~x_branch).astype(np.float64)


def or_ail(x, y, grad=False):
    """x + y in the both-positive quadrant, max(x, y) elsewhere."""
    return _negated(and_ail(-_f64(x), -_f64(y), grad), grad)


def xnor_ail(x, y, grad=False):
    """sign(x*y) * min(|x|, |y|); zero when either operand is zero."""
    x, y = _f64(x), _f64(y)
    if not grad:
        # one expression, so numpy reuses its temporaries in place
        return np.sign(x) * np.sign(y) * np.minimum(np.abs(x), np.abs(y))
    sx, sy = np.sign(x), np.sign(y)
    ax, ay = np.abs(x), np.abs(y)
    x_branch = ax <= ay
    # The smaller-magnitude operand carries the slope; a zero operand gets a
    # (0, 0) subgradient, matching the odd symmetry.
    return sx * sy * np.minimum(ax, ay), sy * (x_branch & (x != 0)), sx * ~(x_branch | (y == 0))


def signed_geomean(x, y, grad=False):
    """sign(x*y) * sqrt(|x*y|); partials pinned to (0, 0) on the axes."""
    x, y = _f64(x), _f64(y)
    value = np.sign(x) * np.sign(y) * np.sqrt(np.abs(x) * np.abs(y))
    if not grad:
        return value
    # d/dx = value / (2x), which diverges along the axes; value is 0 there,
    # so a unit denominator pins the partial to 0.
    return value, 0.5 * value / np.where(x == 0, 1.0, x), 0.5 * value / np.where(y == 0, 1.0, y)


def min_pair(x, y, grad=False):
    """Elementwise min over an operand pair."""
    x, y = _f64(x), _f64(y)
    value = np.minimum(x, y)
    if not grad:
        return value
    gx = (x <= y).astype(np.float64)
    return value, gx, 1.0 - gx


def max_pair(x, y, grad=False):
    """Elementwise max over an operand pair (MaxOut with two pieces)."""
    return _negated(min_pair(-_f64(x), -_f64(y), grad), grad)


def relu(x, grad=False):
    """max(0, x); with grad, (value, d/dx)."""
    x = _f64(x)
    value = np.maximum(x, 0.0)
    if not grad:
        return value
    return value, (x > 0).astype(np.float64)


# ---------------------------------------------------------------------------
# Standardization constants under independent N(0, 1) operands
# ---------------------------------------------------------------------------

# Exact-gate rows are empirical reference constants (Monte Carlo, ~6e8
# samples); they are data, not formulas, and the verification suite re-checks
# them by independent sampling. Approximate-gate rows use the closed forms.
OR_AIL_MEAN = 1.0 / math.sqrt(2.0 * math.pi) + 1.0 / (2.0 * math.sqrt(math.pi))
OR_AIL_STD = math.sqrt(5.0 / 4.0 - 1.0 / (math.sqrt(2.0) * math.pi) - 1.0 / (4.0 * math.pi))
XNOR_AIL_STD = math.sqrt(1.0 - 2.0 / math.pi)

NORMALIZATION_TABLE = {
    ("or", "il"): (1.29895, 0.94834),
    ("and", "il"): (-1.29895, 0.94834),
    ("xnor", "il"): (0.0, 0.36641),
    ("or", "ail"): (OR_AIL_MEAN, OR_AIL_STD),
    ("and", "ail"): (-OR_AIL_MEAN, OR_AIL_STD),
    ("xnor", "ail"): (0.0, XNOR_AIL_STD),
}

GATE_KINDS = ("and", "or", "xnor")
RAW_2D_KINDS = ("signed_geomean", "max", "min")
RAW_1D_KINDS = ("relu",)
ALL_KINDS = GATE_KINDS + RAW_2D_KINDS + RAW_1D_KINDS

_GATES = {
    ("and", "il"): and_il,
    ("or", "il"): or_il,
    ("xnor", "il"): xnor_il,
    ("and", "ail"): and_ail,
    ("or", "ail"): or_ail,
    ("xnor", "ail"): xnor_ail,
    ("signed_geomean", "raw"): signed_geomean,
    ("max", "raw"): max_pair,
    ("min", "raw"): min_pair,
    ("relu", "raw"): relu,
}


@dataclass(frozen=True)
class Activation:
    """A gate or baseline nonlinearity plus its normalization mode.

    kind: one of and/or/xnor (families il or ail), or one of
    signed_geomean/max/min/relu (family raw). ``normalized`` standardizes the
    output by the table mean/std and is only valid for the gate kinds.
    """

    kind: str
    family: str = "raw"
    normalized: bool = False

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind in GATE_KINDS:
            if self.family not in ("il", "ail"):
                raise ValueError(f"{self.kind} requires family 'il' or 'ail'")
        else:
            if self.family != "raw":
                raise ValueError(f"{self.kind} only exists in family 'raw'")
            if self.normalized:
                raise ValueError(f"{self.kind} has no normalization constants")

    @property
    def arity(self) -> int:
        return 1 if self.kind in RAW_1D_KINDS else 2

    @property
    def name(self) -> str:
        if self.kind in GATE_KINDS:
            family = ("n" + self.family) if self.normalized else self.family
            return f"{self.kind}_{family}"
        return self.kind

    def __str__(self) -> str:
        return self.name


def parse_activation(name: str) -> Activation:
    """Inverse of Activation.name (e.g. 'or_ail', 'xnor_nil', 'relu')."""
    name = name.strip().lower()
    if name in RAW_2D_KINDS or name in RAW_1D_KINDS:
        return Activation(name, "raw")
    if "_" in name:
        kind, _, family = name.rpartition("_")
        normalized = family in ("nil", "nail")
        if normalized:
            family = family[1:]
        if kind in GATE_KINDS and family in ("il", "ail"):
            return Activation(kind, family, normalized)
    raise ValueError(f"cannot parse activation name {name!r}")


def evaluate(act: Activation, x, y=None, grad: bool = False):
    """The activation's value, or with ``grad`` (value, d/dx, d/dy).

    1-input kinds take x alone and give (value, d/dx) with ``grad``.
    """
    gate = _GATES[(act.kind, act.family)]
    if act.arity == 1:
        if y is not None:
            raise ValueError(f"{act.name} maps one input; got two operands")
        return gate(x, grad=grad)
    if y is None:
        raise ValueError(f"{act.name} maps an operand pair; y is missing")
    out = gate(x, y, grad)
    if not act.normalized:
        return out
    mean, std = NORMALIZATION_TABLE[(act.kind, act.family)]
    if not grad:
        return (out - mean) / std
    value, gx, gy = out
    return (value - mean) / std, gx / std, gy / std


def apply(act: Activation, x, y=None):
    """Evaluate the activation; 2-input kinds require both operands."""
    return evaluate(act, x, y)


def gradient(act: Activation, x, y=None):
    """Analytical partials (d/dx, d/dy), or d/dx alone for 1-input kinds."""
    partials = evaluate(act, x, y, grad=True)[1:]
    return partials if act.arity == 2 else partials[0]
