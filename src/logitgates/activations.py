"""Two-input logit-space Boolean gates and baseline nonlinearities.

Exact gates (``*_il``) treat their inputs as logits of independent events and
return the logit of the combined event. Approximate gates (``*_ail``) are the
piecewise-linear counterparts built from comparisons and addition only. Each
exact gate is the soft (log-sum-exp) form of the terms its approximate gate
picks between, and is computed as that gate plus a bounded correction.

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

from .numerics import LOGIT_CLAMP, check_fields


def _f64(x):
    return np.asarray(x, dtype=np.float64)


def _out(t):
    """``t`` as a ufunc ``out=`` target, or None when it is a numpy scalar (which takes none)."""
    return t if isinstance(t, np.ndarray) else None


def _negated(out, grad):
    """De Morgan dual -gate(-x, -y) from gate's output at (-x, -y), negated in place.

    The two negations cancel in the chain rule, so the partials keep their sign.
    """
    if not grad:
        return np.negative(out, out=_out(out))
    value, gx, gy = out
    return np.negative(value, out=_out(value)), gx, gy


# ---------------------------------------------------------------------------
# Approximate gates and baselines
# ---------------------------------------------------------------------------

# Subgradient conventions on the measure-zero boundaries: the sum branch owns
# its closure (quadrant edges included), and min/max ties resolve to the
# x-partial. Any fixed deterministic choice works for SGD; this one keeps
# and/or duality consistent.


def and_ail(x, y, grad=False):
    """min(x, y, x + y): x + y in the both-negative quadrant, min(x, y) elsewhere."""
    x, y = _f64(x), _f64(y)
    # This operand order keeps x + y's +0.0 at (+-0.0, -+0.0); (inf, -inf) gives NaN.
    value = np.minimum(np.minimum(x, y), x + y)
    if not grad:
        return value
    in_sum = (x <= 0) & (y <= 0)
    x_branch = x <= y
    return value, (in_sum | x_branch).astype(np.float64), (in_sum | ~x_branch).astype(np.float64)


def or_ail(x, y, grad=False):
    """x + y in the both-positive quadrant, max(x, y) elsewhere."""
    return _negated(and_ail(-_f64(x), -_f64(y), grad), grad)


def xnor_ail(x, y, grad=False):
    """sign(x*y) * min(|x|, |y|); zero when either operand is zero."""
    x, y = _f64(x), _f64(y)
    sx, sy = np.sign(x), np.sign(y)
    ax, ay = np.abs(x), np.abs(y)
    value = sx * sy * np.minimum(ax, ay)
    if not grad:
        return value
    # The smaller-magnitude operand carries the slope; a zero operand gets a
    # (0, 0) subgradient, matching the odd symmetry. The value is zero exactly
    # when the slope-carrying operand is (NaN operands give the same bits as
    # testing x and y). Casting a mask and scaling it in place costs a small
    # batch less than a bool-by-float multiply.
    x_branch = ax <= ay
    live = value != 0
    gx = (x_branch & live).astype(np.float64)
    gy = (live > x_branch).astype(np.float64)  # live and not x_branch
    gx *= sy
    gy *= sx
    return value, gx, gy


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
# Exact gates. Each is the soft (log-sum-exp) form of the terms its
# approximate gate picks between, computed as that gate plus the log of a sum
# of exponentials whose exponents are all <= 0: nothing overflows, and no
# partial cancels at any finite operand. Fresh temporaries are overwritten in
# place: the gates run on large arrays, where every new array costs memory
# and page faults.
# ---------------------------------------------------------------------------


def _exp_min(t, b):
    """exp(min(t, b, 0)), written over t, a fresh temporary."""
    o = _out(t)
    t = np.minimum(t, b, out=o)
    return np.exp(np.minimum(t, 0.0, out=o), out=o)


def _lse_gap(t):
    """log1p(exp(-|t|)) = log(e^a + e^b) - max(a, b) for t = a - b, written over t."""
    o = _out(t)
    t = np.negative(np.abs(t, out=o), out=o)
    return np.log1p(np.exp(t, out=o), out=o)


def _clamped(v):
    # A saturated gate never hands inf to the next layer.
    return np.clip(v, -LOGIT_CLAMP, LOGIT_CLAMP, out=_out(v))


# x +- y past the float64 range rounds to +-inf, which is the right limit.
@np.errstate(over="ignore")
def and_il(x, y, grad=False):
    """Logit of p = sigma(x)*sigma(y), which is -log(e^-x + e^-y + e^-(x+y)).

    With m = and_ail(x, y) = min(x, y, x + y), that is m - log(ex + ey + es)
    for ex, ey, es = e^(m-x), e^(m-y), e^(m-x-y): every exponent is <= 0 and
    one is 0, so the sum lies in [1, 3]. d/dx = (ex + es) / (ex + ey + es).
    """
    x, y = _f64(x), _f64(y)
    ex = _exp_min(y - x, y)
    ey = _exp_min(x - y, x)
    # Without grad, the sum goes into ex's buffer and es into ey's, so a
    # full-size call holds two arrays at a time.
    total = ex + ey if grad else np.add(ex, ey, out=_out(ex))
    es = np.maximum(np.maximum(x, 0.0), y, out=None if grad else _out(ey))
    es = np.exp(np.negative(es, out=_out(es)), out=_out(es))
    total += es
    if grad:
        ex += es
        ex /= total
        ey += es
        ey /= total
    value = np.add(x, y, out=_out(es))
    value = np.minimum(value, x, out=_out(value))
    value = np.minimum(value, y, out=_out(value))
    value -= np.log(total, out=_out(total))
    value = _clamped(value)
    return (value, ex, ey) if grad else value


def or_il(x, y, grad=False):
    """Logit of 1 - sigma(-x)*sigma(-y); De Morgan dual of and_il, bit-exact."""
    return _negated(and_il(-_f64(x), -_f64(y), grad), grad)


@np.errstate(over="ignore")
def xnor_il(x, y, grad=False):
    """Logit of p = sigma(x)sigma(y) + sigma(-x)sigma(-y) (both or neither).

    That is log(1 + e^-(x+y)) - log(e^-x + e^-y), or xnor_ail(x, y) +
    log1p(e^-|x+y|) - log1p(e^-|x-y|); d/dx = (tanh((x+y)/2) - tanh((x-y)/2)) / 2
    and d/dy = (tanh((x+y)/2) + tanh((x-y)/2)) / 2.
    """
    x, y = _f64(x), _f64(y)
    # xnor_ail(x, y), with the sign taken from x*y (np.sign is slow).
    value = np.minimum(np.abs(x), np.abs(y))
    value = np.copysign(value, x * y, out=_out(value))
    s, d = x + y, x - y
    if grad:
        ts, td = np.tanh(s / 2.0), np.tanh(d / 2.0)
    s = _lse_gap(s)
    s -= _lse_gap(d)
    # The correction is added as one term, so xnor(-x, y) = -xnor(x, y) bit for bit.
    value += s
    value = _clamped(value)
    return (value, 0.5 * (ts - td), 0.5 * (ts + td)) if grad else value


# ---------------------------------------------------------------------------
# Standardization constants under independent N(0, 1) operands
# ---------------------------------------------------------------------------

# Exact-gate rows are empirical 5-digit reference constants (Monte Carlo, ~6e8
# samples); they are data, not formulas, and the verification suite re-checks
# them by quadrature, which puts them within 2e-5 of the exact moments.
# Approximate-gate rows use the closed forms.
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

# Every valid (kind, family), in listing order; the gate kinds are the rows
# of the "il" family, and relu is the only 1-input kind.
_GATES = {
    ("and", "il"): and_il,
    ("and", "ail"): and_ail,
    ("or", "il"): or_il,
    ("or", "ail"): or_ail,
    ("xnor", "il"): xnor_il,
    ("xnor", "ail"): xnor_ail,
    ("signed_geomean", "raw"): signed_geomean,
    ("max", "raw"): max_pair,
    ("min", "raw"): min_pair,
    ("relu", "raw"): relu,
}
GATE_KINDS = tuple(kind for kind, family in _GATES if family == "il")


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
        check_fields(self)
        if (self.kind, self.family) not in _GATES:
            raise ValueError(f"no activation {self.kind!r} in family {self.family!r}")
        if self.normalized and (self.kind, self.family) not in NORMALIZATION_TABLE:
            raise ValueError(f"{self.kind} has no normalization constants")

    @property
    def arity(self) -> int:
        return 1 if self.kind == "relu" else 2

    @property
    def label(self) -> str:
        """The family as written in names: 'il', 'ail', 'raw', or 'nil'/'nail' when normalized."""
        return "n" + self.family if self.normalized else self.family

    @property
    def name(self) -> str:
        return self.kind if self.family == "raw" else f"{self.kind}_{self.label}"

    @property
    def gate(self):
        """The raw routine: gate(x, y, grad), or gate(x, grad) for a 1-input kind."""
        return _GATES[(self.kind, self.family)]


def apply(act: Activation, x, y=None, grad: bool = False):
    """The activation's value, or with ``grad`` (value, d/dx, d/dy).

    1-input kinds take x alone and give (value, d/dx) with ``grad``.
    """
    if (y is None) != (act.arity == 1):
        raise ValueError(f"{act.name} takes {act.arity} operand(s), got {1 if y is None else 2}")
    result = act.gate(x, grad=grad) if y is None else act.gate(x, y, grad)
    return standardize(act, *result) if grad else standardize(act, result)


def standardize(act: Activation, value, *partials):
    """act's output from its raw gate's ``value``, and partials if given.

    A normalized act gives (value - mean) / std and each partial / std, by its
    NORMALIZATION_TABLE row; any other act gives its arguments back. With
    partials the result is the tuple (value, *partials), as ``apply`` gives
    with ``grad``.
    """
    if act.normalized:
        mean, std = NORMALIZATION_TABLE[(act.kind, act.family)]
        value, partials = (value - mean) / std, [g / std for g in partials]
    return (value, *partials) if partials else value


def gradient(act: Activation, x, y=None):
    """Analytical partials (d/dx, d/dy), or d/dx alone for 1-input kinds."""
    partials = apply(act, x, y, grad=True)[1:]
    return partials if act.arity == 2 else partials[0]
