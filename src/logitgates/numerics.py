"""Numerically stable scalar primitives for logit-space arithmetic.

All functions accept floats or numpy arrays and are elementwise. The losses
are built on them, so their stability in the saturated regimes matters more
than their speed.
"""

import numpy as np

# Exact logit values diverge as the underlying probability reaches 0 or 1;
# gate outputs are clamped here so saturated inputs can never produce inf/NaN.
LOGIT_CLAMP = 1e15


def sigmoid(x):
    """Logistic function 1/(1+e^-x), stable for any finite input.

    Computed from exp(-|x|) so it never overflows; saturates to exactly
    0.0/1.0 for large |x|.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def softplus(x):
    """log(1 + e^x) without overflow: x + log1p(e^-x) for x > 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.logaddexp(0.0, x)
