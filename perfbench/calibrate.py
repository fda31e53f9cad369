"""Fixed reference computations that track how fast the host runs right now.

On a shared host the speed of a core drifts by up to a third within minutes,
as the other tenants' load comes and goes; a run's median cannot average
that out, because the drift is slower than a run. The drift hits code bound
by Python per-call overhead hardest and large-array numpy code much less, so
there are two reference computations, one of each kind, and each workload is
measured against the one that does its kind of work. Each timed operation is
bracketed by its workload's computation, and a run's median times are
reported scaled to a host on which that computation takes ``REFERENCE_S``:

    reference seconds = median wall seconds * REFERENCE_S / median calibration seconds

Ratios of medians, not per-operation ratios: a single calibration is short
and noisy, and the drift is slow enough for the medians to share it.

Neither computation touches the library, and neither allocates: a change to
the library moves the scaled times exactly as it moves the wall times at
constant host speed, whatever it does to the allocator's state.
"""

import time

import numpy as np

# Medians of each computation on a 2-vCPU Intel Xeon VM with one BLAS thread.
REFERENCE_S = {"calls": 0.055, "arrays": 0.055}
CALLS_ITERS = 1200
ARRAYS_ITERS = 6
MATMUL_ITERS = 4

_rng = np.random.default_rng(0)
# Python loop of numpy calls on 128x8 arrays, the shape of a small-net batch.
_A, _W = _rng.normal(size=(128, 8)), _rng.normal(size=(8, 8))
_Z, _Y, _A_BUF, _COLS = np.empty((128, 8)), np.empty((128, 8)), np.empty((128, 8)), np.empty(8)
# Transcendental functions on 8 MB operands, and a BLAS matrix product.
_X = _rng.normal(size=1 << 20)
_X_BUF, _X_BUF2 = np.empty_like(_X), np.empty_like(_X)
_M, _V, _MV = _rng.normal(size=(256, 784)), _rng.normal(size=(784, 256)), np.empty((256, 256))


def _calls():
    a = _A_BUF
    np.copyto(a, _A)
    for _ in range(CALLS_ITERS):
        np.matmul(a, _W, out=_Z)
        np.logaddexp(0.0, _Z, out=_Y)
        _Y.sum(axis=0, out=_COLS)
        np.tanh(_Z, out=_Y)
        np.add(a, _Y, out=a)
        np.multiply(a, 0.5, out=a)


def _arrays():
    b, c = _X_BUF, _X_BUF2
    for _ in range(ARRAYS_ITERS):
        np.abs(_X, out=b)
        np.negative(b, out=b)
        np.exp(b, out=b)
        np.log1p(b, out=b)
        np.maximum(_X, 0.0, out=c)
        np.add(b, c, out=b)
    for _ in range(MATMUL_ITERS):
        np.matmul(_M, _V, out=_MV)


_KERNELS = {"calls": _calls, "arrays": _arrays}


def calibrate(kind):
    """Wall seconds of the reference computation of this kind (about 50 ms)."""
    kernel = _KERNELS[kind]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
