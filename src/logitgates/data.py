"""Synthetic task generators and MNIST IDX ingestion."""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .activations import xnor_ail
from .numerics import require

# An IDX magic's low byte is its array's rank; the 0x08 above it means u8 elements.
IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Operand pairing of the nested gate tree, innermost level first.
NESTED_PAIRS = ((2, 5), (3, 4), (6, 7), (0, 1))


@dataclass
class Dataset:
    inputs: np.ndarray            # (n, d) float64
    targets: np.ndarray           # (n, t) float64, or (n,) int labels
    task: str                     # the dataset kind, a key of train.KINDS
    n_classes: int | None = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ValueError("inputs must be a non-empty (n, d) matrix")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs contain non-finite values")
        if self.task == "classification":
            require("n_classes", int, self.n_classes, 1)
            targets = np.asarray(self.targets).ravel()
        else:
            targets = np.asarray(self.targets, dtype=np.float64)
            if targets.ndim != 2:
                raise ValueError(f"{self.task} targets must be an (n, t) matrix, "
                                 f"got shape {targets.shape}")
        if len(targets) != len(self.inputs):
            raise ValueError(f"{len(targets)} target rows for {len(self.inputs)} input rows")
        if self.task == "classification":
            # Only bool and real numbers are labels. A fraction differs from its
            # trunc; a NaN or an infinity is not finite.
            if targets.dtype.kind not in "biuf" \
                    or not np.all(np.isfinite(targets) & (np.trunc(targets) == targets)) \
                    or targets.min() < 0 or targets.max() >= self.n_classes:
                raise ValueError("classification targets must be whole-number labels "
                                 "in [0, n_classes)")
            targets = targets.astype(np.int64)
        elif not np.all(np.isfinite(targets)):
            raise ValueError("targets contain non-finite values")
        self.targets = targets

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


# ---------------------------------------------------------------------------
# Parity of the number of positive inputs (4 logits)
# ---------------------------------------------------------------------------


def _parity_labels(x: np.ndarray) -> np.ndarray:
    # Convention: an even count of positive inputs is the positive class.
    even = (x > 0).sum(axis=1) % 2 == 0
    return even.astype(np.float64).reshape(-1, 1)


def gen_parity4(n: int, seed: int) -> Dataset:
    """n samples from Uniform(-1, 1)^4 (no exact zeros), binary parity target."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 4))
    while np.any(x == 0.0):
        x[x == 0.0] = rng.uniform(-1.0, 1.0, size=int((x == 0.0).sum()))
    return Dataset(x, _parity_labels(x), "binary")


def parity4_lattice() -> Dataset:
    """The 16-point sign lattice {-1, +1}^4 used for exact evaluation."""
    grid = np.array([[(i >> b) & 1 for b in range(3, -1, -1)] for i in range(16)])
    x = 2.0 * grid - 1.0
    return Dataset(x, _parity_labels(x), "binary")


# ---------------------------------------------------------------------------
# Nested-gate regression (8 logits)
# ---------------------------------------------------------------------------


def _nest(gate, x: np.ndarray) -> np.ndarray:
    l1 = [gate(x[:, i], x[:, j]) for i, j in NESTED_PAIRS]
    return gate(gate(l1[0], l1[1]), gate(l1[2], l1[3]))


def nested_xnor_ail_logit(x: np.ndarray) -> np.ndarray:
    """Nested approximate gates; identically sign(prod x) * min |x|."""
    return _nest(xnor_ail, x)


def gen_nested_xnor8(n: int, seed: int) -> Dataset:
    """Uniform(-2, 2)^8 inputs; regression target = nested approximate gate.

    The target equals sign(prod x_i) * min_i |x_i|: the parity of the input
    signs carrying the magnitude of the least-confident input.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(n, 8))
    t = nested_xnor_ail_logit(x).reshape(-1, 1)
    return Dataset(x, t, "regression")


# ---------------------------------------------------------------------------
# XOR (2 inputs, 4 points)
# ---------------------------------------------------------------------------


def gen_xor2() -> Dataset:
    """The four corners (+-1, +-1); differing signs are the positive class."""
    x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    t = np.array([[0.0], [1.0], [1.0], [0.0]])
    return Dataset(x, t, "binary")


def xor2_grid(step: float = 0.05) -> np.ndarray:
    """Dense [-2, 2]^2 grid (n, 2) for decision-surface export."""
    axis = np.arange(-2.0, 2.0 + step / 2, step)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


# ---------------------------------------------------------------------------
# MNIST IDX format
# ---------------------------------------------------------------------------


class IdxFormatError(ValueError):
    pass


def _read_exact(f, count, path, what):
    # Header counts are untrusted: compare them with the bytes left in the
    # file before asking read() for that many.
    offset = f.tell()
    left = os.fstat(f.fileno()).st_size - offset
    data = f.read(count) if count <= left else b""
    if len(data) != count:
        raise IdxFormatError(
            f"{path}: truncated {what} (wanted {count} bytes at offset {offset}, {left} left)"
        )
    return data


def _read_idx(path, magic, noun, payload) -> np.ndarray:
    """The u8 array in an IDX file of this magic; noun and payload name the file and its data."""
    rank = magic & 0xFF
    with open(path, "rb") as f:
        found, *dims = struct.unpack(f">{rank + 1}i", _read_exact(f, 4 * (rank + 1), path, "header"))
        if found != magic:
            raise IdxFormatError(f"{path}: bad {noun} magic 0x{found:08x}, expected 0x{magic:08x}")
        if min(dims) < 0:
            raise IdxFormatError(f"{path}: negative size in header ({' x '.join(map(str, dims))})")
        data = _read_exact(f, math.prod(dims), path, payload)
        return np.frombuffer(data, dtype=np.uint8).reshape(dims)


def _write_idx(path, magic, noun, values):
    """Write values, an array of the magic's rank holding whole numbers in 0..255."""
    rank = magic & 0xFF
    values = np.asarray(values)
    if values.ndim != rank:
        raise ValueError(f"IDX {noun}s must be a rank-{rank} array, got shape {values.shape}")
    # Checked before the cast, which would wrap, truncate or warn: NaN fails every comparison.
    if values.dtype.kind not in "iuf" or not np.all((values >= 0) & (values <= 255)
                                                     & (np.trunc(values) == values)):
        raise ValueError(f"IDX {noun}s must be whole numbers in 0..255")
    with open(path, "wb") as f:
        f.write(struct.pack(f">{rank + 1}i", magic, *values.shape))
        f.write(values.astype(np.uint8).tobytes())


def read_idx_images(path) -> np.ndarray:
    """Parse a big-endian IDX image file into a (count, rows, cols) u8 array."""
    return _read_idx(path, IDX_IMAGES_MAGIC, "image", "pixel payload")


def read_idx_labels(path) -> np.ndarray:
    return _read_idx(path, IDX_LABELS_MAGIC, "label", "label payload")


def write_idx_images(path, images: np.ndarray):
    """Emit the format read_idx_images parses (cache re-export)."""
    _write_idx(path, IDX_IMAGES_MAGIC, "image", images)


def write_idx_labels(path, labels: np.ndarray):
    _write_idx(path, IDX_LABELS_MAGIC, "label", labels)


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """Load an MNIST-shaped IDX pair (28x28 images, labels 0-9): pixels scaled
    to [0, 1], flattened."""
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images_path} has {images.shape[0]} images, "
            f"{labels_path} has {labels.shape[0]} labels"
        )
    if images.shape[0] == 0:
        raise IdxFormatError(f"{images_path}: no images")
    if images.shape[1:] != (28, 28):
        raise IdxFormatError(f"{images_path}: images are {images.shape[1]}x{images.shape[2]}, "
                             "not 28x28")
    if labels.max() >= 10:
        raise IdxFormatError(f"{labels_path}: label {labels.max()} is not a digit 0-9")
    flat = images.reshape(images.shape[0], -1).astype(np.float64)
    flat /= 255.0  # in place: one float copy, whether or not numpy elides a temporary
    return Dataset(flat, labels, "classification", n_classes=10)
