"""Numerically stable scalar primitives for logit-space arithmetic.

All functions accept floats or numpy arrays and are elementwise. The losses
are built on them, so their stability in the saturated regimes matters more
than their speed.
"""

import numpy as np

# Exact logit values diverge as the underlying probability reaches 0 or 1;
# gate outputs are clamped here so saturated inputs can never produce inf/NaN.
LOGIT_CLAMP = 1e15

# Elements per block in the loops that walk large arrays a slice at a time
# (verify's grids, the optimizer step): 256 KB of float64, so a block's
# temporaries stay in a core's L2 cache.
BLOCK = 1 << 15


def sigmoid(x):
    """Logistic function 1/(1+e^-x), stable for any finite input.

    Computed from exp(-|x|) so it never overflows; saturates to exactly
    0.0/1.0 for large |x|.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
