"""Numerically stable primitives for logit-space arithmetic, and the dataclass field check.

The primitives accept floats or numpy arrays and are elementwise. The losses
are built on them, so their stability in the saturated regimes matters more
than their speed.
"""

from dataclasses import MISSING, field, fields

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


def count(least: int, default=MISSING):
    """An int or tuple field of integers >= least; check_fields needs it on every int field."""
    return field(default=default, metadata={"least": least})


# What a declared int or float accepts; any other type, a union included, is
# its own test. (An isinstance against a numbers ABC would cost ten times more.)
_ACCEPTS = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}


def check_fields(obj) -> None:
    """Raise ValueError naming the first field of dataclass obj not of its declared type.

    A bool is no number and a number no flag; a union such as ``str | None``
    takes any member; a count is no integer below its least.
    """
    for f in fields(obj):
        require(f.name, f.type, getattr(obj, f.name), f.metadata.get("least"))


def require(name: str, kind, value, least) -> None:
    """check_fields' rule for one value: ``kind`` int is a count of at least ``least``.

    ``kind`` tuple is a list or tuple of such counts; its message says list, as JSON writes it.
    """
    if kind is tuple and isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            require(f"{name}[{i}]", int, item, least)
    elif (isinstance(value, bool) != (kind is bool)
          or not isinstance(value, _ACCEPTS.get(kind, kind)) or (kind is int and value < least)):
        wanted = (f"an integer >= {least}" if kind is int else "list" if kind is tuple
                  else getattr(kind, "__name__", kind))
        raise ValueError(f"{name} must be {wanted}, got {value!r}")
