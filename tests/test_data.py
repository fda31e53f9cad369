import re
import struct

import numpy as np
import pytest

from logitgates import data
from logitgates.activations import xnor_il
from logitgates.data import (
    Dataset,
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    IdxFormatError,
    gen_nested_xnor8,
    gen_parity4,
    gen_xor2,
    load_mnist_idx,
    nested_xnor_ail_logit,
    parity4_lattice,
    read_idx_images,
    read_idx_labels,
    write_idx_images,
    write_idx_labels,
    xor2_grid,
)
from logitgates.numerics import sigmoid


def nested_xnor_il_logit(x: np.ndarray) -> np.ndarray:
    """The nested target's tree through the exact gate (log-space evaluation)."""
    return data._nest(xnor_il, x)


def nested_xnor_il_logit_naive(x: np.ndarray) -> np.ndarray:
    """Probability-space evaluation of the exact-gate tree.

    Independent oracle for nested_xnor_il_logit: for moderate inputs both
    code paths are well-conditioned and must agree to ~1e-12.
    """

    def gate(a, b):
        p = sigmoid(a) * sigmoid(b) + sigmoid(-a) * sigmoid(-b)
        return np.log(p / (1.0 - p))

    return data._nest(gate, x)


class TestParity4:
    def test_label_convention(self):
        x = np.array([[1.0, 1.0, 1.0, 1.0],
                      [1.0, -1.0, -1.0, -1.0],
                      [1.0, 1.0, -1.0, -1.0]])
        labels = data._parity_labels(x).ravel()
        assert labels.tolist() == [1.0, 0.0, 1.0]  # 4, 1, 2 positives

    def test_generator_properties(self):
        ds = gen_parity4(512, 0)
        assert ds.inputs.shape == (512, 4)
        assert np.all(np.abs(ds.inputs) < 1.0) and np.all(ds.inputs != 0.0)
        assert set(np.unique(ds.targets)) <= {0.0, 1.0}

    def test_seed_determinism(self):
        a, b = gen_parity4(100, 5), gen_parity4(100, 5)
        assert np.array_equal(a.inputs, b.inputs)
        assert not np.array_equal(a.inputs, gen_parity4(100, 6).inputs)

    def test_lattice_balance(self):
        lat = parity4_lattice()
        assert lat.n == 16
        assert lat.targets.sum() == 8  # exactly 8 per class


class TestNestedXnor8:
    def test_target_equals_sign_times_min(self):
        ds = gen_nested_xnor8(2000, 1)
        direct = (np.sign(np.prod(ds.inputs, axis=1))
                  * np.abs(ds.inputs).min(axis=1)).reshape(-1, 1)
        assert np.abs(ds.targets - direct).max() < 1e-12

    def test_zero_input_gives_zero_logit(self):
        assert nested_xnor_ail_logit(np.zeros((1, 8)))[0] == 0.0
        assert nested_xnor_il_logit(np.zeros((1, 8)))[0] == 0.0

    def test_inner_pair_commutes(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-2, 2, (500, 8))
        sw = x.copy()
        sw[:, [2, 5]] = sw[:, [5, 2]]
        assert np.array_equal(nested_xnor_ail_logit(x), nested_xnor_ail_logit(sw))
        assert np.allclose(nested_xnor_il_logit(x), nested_xnor_il_logit(sw))

    def test_single_negation_flips_target(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-2, 2, (500, 8))
        flipped = x.copy()
        flipped[:, 3] *= -1
        assert np.abs(nested_xnor_ail_logit(flipped) + nested_xnor_ail_logit(x)).max() < 1e-12
        assert np.abs(nested_xnor_il_logit(flipped) + nested_xnor_il_logit(x)).max() < 1e-9

    def test_exact_gate_nesting_dual_path_oracle(self):
        # log-space and naive probability-space evaluation must agree closely
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 2, (5000, 8))
        assert np.abs(nested_xnor_il_logit(x) - nested_xnor_il_logit_naive(x)).max() < 1e-12

    def test_inputs_range(self):
        ds = gen_nested_xnor8(1000, 7)
        assert np.all(np.abs(ds.inputs) <= 2.0)
        assert ds.task == "regression"


class TestXor2:
    def test_labels(self):
        ds = gen_xor2()
        lookup = {tuple(row): t for row, t in zip(ds.inputs, ds.targets.ravel())}
        assert lookup[(1.0, 1.0)] == 0.0
        assert lookup[(1.0, -1.0)] == 1.0
        assert lookup[(-1.0, 1.0)] == 1.0
        assert lookup[(-1.0, -1.0)] == 0.0

    def test_grid(self):
        grid = xor2_grid(0.5)
        assert grid.shape == (81, 2)
        assert grid.min() == -2.0 and grid.max() == 2.0


class TestIdx:
    def _write_pair(self, tmp_path, n=10):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n, dtype=np.uint8)
        ip, lp = tmp_path / "imgs", tmp_path / "lbls"
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        return ip, lp, images, labels

    def test_round_trip(self, tmp_path):
        ip, lp, images, labels = self._write_pair(tmp_path)
        ds = load_mnist_idx(ip, lp)
        assert ds.inputs.shape == (10, 784)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
        assert np.array_equal(ds.targets, labels)
        assert np.allclose(ds.inputs[0], images[0].ravel() / 255.0)

    def test_files_hold_the_header_then_the_bytes(self, tmp_path):
        # Whole numbers of any dtype write the bytes their uint8 cast holds.
        ip, lp, images, labels = self._write_pair(tmp_path, n=3)
        assert ip.read_bytes() == struct.pack(">iiii", IDX_IMAGES_MAGIC, 3, 28, 28) + images.tobytes()
        assert lp.read_bytes() == struct.pack(">ii", IDX_LABELS_MAGIC, 3) + labels.tobytes()
        write_idx_images(ip, images.astype(np.float64))
        write_idx_labels(lp, labels.tolist())
        assert read_idx_images(ip).tobytes() == images.tobytes()
        assert read_idx_labels(lp).tobytes() == labels.tobytes()

    @pytest.mark.parametrize("writer, values", [
        (write_idx_labels, [300, -1]), (write_idx_labels, [255, 256]), (write_idx_labels, [-1]),
        (write_idx_images, np.full((1, 2, 2), 2.7)), (write_idx_labels, [0.0, np.nan]),
        (write_idx_images, np.full((1, 2, 2), np.inf)), (write_idx_labels, [True, False]),
        (write_idx_labels, ["3"]),
    ], ids=["300,-1", "256", "-1", "fraction", "nan", "inf", "bool", "text"])
    def test_writers_refuse_what_a_byte_cannot_hold(self, tmp_path, writer, values):
        # A cast would wrap, truncate or warn; no file is made.
        path = tmp_path / "idx"
        with pytest.raises(ValueError, match="must be whole numbers in 0..255"):
            writer(path, values)
        assert not path.exists()

    @pytest.mark.parametrize("writer, shape, message", [
        (write_idx_images, (4, 28), "IDX images must be a rank-3 array, got shape (4, 28)"),
        (write_idx_images, (2, 1, 28, 28), "IDX images must be a rank-3 array"),
        (write_idx_labels, (4, 2), "IDX labels must be a rank-1 array, got shape (4, 2)"),
        (write_idx_labels, (), "IDX labels must be a rank-1 array, got shape ()"),
    ], ids=["images-rank-2", "images-rank-4", "labels-rank-2", "labels-rank-0"])
    def test_writers_refuse_an_array_of_another_rank(self, tmp_path, writer, shape, message):
        path = tmp_path / "idx"
        with pytest.raises(ValueError, match=re.escape(message)):
            writer(path, np.zeros(shape, np.uint8))
        assert not path.exists()

    def test_wrong_magic_rejected(self, tmp_path):
        ip, lp, _, _ = self._write_pair(tmp_path)
        # labels file parsed as images: magic 0x801 != 0x803
        with pytest.raises(IdxFormatError, match="magic"):
            read_idx_images(lp)
        with pytest.raises(IdxFormatError, match="magic"):
            load_mnist_idx(lp, ip)

    def test_truncated_payload_names_offset(self, tmp_path):
        ip, lp, _, _ = self._write_pair(tmp_path)
        raw = ip.read_bytes()
        ip.write_bytes(raw[:-100])
        with pytest.raises(IdxFormatError, match="offset"):
            read_idx_images(ip)

    @pytest.mark.parametrize("dims", [(-1, -1, 3), (-5, 28, 28), (1, 28, -28), (1 << 30,) * 3],
                             ids=str)
    def test_bad_image_header_sizes_rejected(self, tmp_path, dims):
        path = tmp_path / "imgs"
        path.write_bytes(struct.pack(">iiii", IDX_IMAGES_MAGIC, *dims) + bytes(784))
        with pytest.raises(IdxFormatError, match="negative|truncated"):
            read_idx_images(path)

    @pytest.mark.parametrize("count", [-1, -(1 << 31), 1 << 30], ids=str)
    def test_bad_label_header_count_rejected(self, tmp_path, count):
        path = tmp_path / "lbls"
        path.write_bytes(struct.pack(">ii", IDX_LABELS_MAGIC, count) + bytes(10))
        with pytest.raises(IdxFormatError, match="negative|truncated"):
            read_idx_labels(path)

    @pytest.mark.parametrize("reader, header, ndim", [(read_idx_images, 16, 3),
                                                      (read_idx_labels, 8, 1)],
                             ids=["images", "labels"])
    def test_fuzzed_headers_raise_only_idx_format_error(self, tmp_path, reader, header, ndim):
        # Seeded flips of one to three header bytes either parse into a
        # well-formed uint8 array of the header's shape or fail with
        # IdxFormatError, never with a reader's own exception.
        ip, lp, _, _ = self._write_pair(tmp_path, n=3)
        good = (ip if reader is read_idx_images else lp).read_bytes()
        bad = tmp_path / "bad"
        rng = np.random.default_rng(11)
        for _ in range(500):
            flipped = bytearray(good)
            for pos in rng.integers(0, header, rng.integers(1, 4)):
                flipped[pos] = rng.integers(0, 256)
            bad.write_bytes(flipped)
            try:
                arr = reader(bad)
            except IdxFormatError:
                continue
            dims = struct.unpack(">" + "i" * ndim, flipped[4:header])
            assert arr.dtype == np.uint8 and arr.shape == dims

    def test_empty_pair_rejected(self, tmp_path):
        ip, lp, _, _ = self._write_pair(tmp_path, n=0)
        with pytest.raises(IdxFormatError, match="no images"):
            load_mnist_idx(ip, lp)

    @pytest.mark.parametrize("shape", [(5, 5), (28, 27), (784, 1)], ids=str)
    def test_non_mnist_image_size_rejected(self, tmp_path, shape):
        ip, lp = tmp_path / "imgs", tmp_path / "lbls"
        write_idx_images(ip, np.zeros((4, *shape), np.uint8))
        write_idx_labels(lp, np.zeros(4, np.uint8))
        with pytest.raises(IdxFormatError, match=re.escape(str(ip)) + ": images are .*not 28x28"):
            load_mnist_idx(ip, lp)

    @pytest.mark.parametrize("label", [10, 12, 255])
    def test_label_out_of_range_rejected(self, tmp_path, label):
        ip, lp, _, labels = self._write_pair(tmp_path)
        labels[3] = label
        write_idx_labels(lp, labels)
        with pytest.raises(IdxFormatError, match=re.escape(f"{lp}: label {label} ")):
            load_mnist_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, lp, _, _ = self._write_pair(tmp_path)
        write_idx_labels(lp, np.zeros(7, dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="mismatch"):
            load_mnist_idx(ip, lp)


class TestDatasetType:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan]]), np.array([[0.0]]), "regression")

    @pytest.mark.parametrize("task", ["regression", "binary"])
    def test_rejects_non_finite_targets(self, task):
        with pytest.raises(ValueError, match="targets contain non-finite values"):
            Dataset(np.zeros((2, 2)), np.array([[0.0], [np.inf]]), task)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 10]), "classification", n_classes=10)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros((0, 1)), "regression")

    @pytest.mark.parametrize("task", ["regression", "binary"])
    def test_rejects_targets_that_are_not_a_matrix(self, task):
        # (n,) targets against (n, 1) outputs would broadcast to (n, n) in a loss.
        x = np.zeros((4, 2))
        with pytest.raises(ValueError, match=re.escape(f"{task} targets must be an (n, t) matrix")):
            Dataset(x, np.zeros(4), task)
        with pytest.raises(ValueError, match="matrix"):
            Dataset(x, np.zeros((4, 1, 1)), task)

    @pytest.mark.parametrize("targets, task, n_classes", [
        (np.zeros((3, 1)), "regression", None),
        (np.zeros((5, 1)), "binary", None),
        (np.zeros(3, dtype=int), "classification", 10),
        (np.zeros(0), "classification", 10),
    ], ids=["regression", "binary", "classification", "no-labels"])
    def test_rejects_a_target_row_count_unlike_the_inputs(self, targets, task, n_classes):
        with pytest.raises(ValueError, match=f"{len(targets)} target rows for 4 input rows"):
            Dataset(np.zeros((4, 2)), targets, task, n_classes=n_classes)

    def test_labels_may_come_as_a_column(self):
        ds = Dataset(np.zeros((3, 2)), np.array([[0], [2], [1]]), "classification", n_classes=3)
        assert ds.targets.shape == (3,) and ds.targets.tolist() == [0, 2, 1]

    @pytest.mark.parametrize("labels", [
        [0.5, 1.7], [0.0, np.nan], [np.inf, 1.0], [-np.inf, 1.0],
        ["a", "b"], np.array([1, 2], dtype=object), np.array([1, 2], dtype=complex),
    ], ids=["fraction", "nan", "inf", "minus-inf", "string", "object", "complex"])
    def test_rejects_labels_that_are_not_whole_numbers(self, labels):
        # Truncated by the int64 cast, a fraction would become another class.
        # numpy's isfinite and trunc take no string, object or complex label.
        with pytest.raises(ValueError, match="whole-number labels"):
            Dataset(np.zeros((2, 3)), labels, "classification", n_classes=3)

    @pytest.mark.parametrize("labels", [[1.0, 2.0], np.array([1, 2], dtype=np.uint8)],
                             ids=["whole-float", "uint8"])
    def test_whole_labels_keep_their_values(self, labels):
        ds = Dataset(np.zeros((2, 3)), labels, "classification", n_classes=3)
        assert ds.targets.dtype == np.int64 and ds.targets.tolist() == [1, 2]

    def test_bool_labels_are_classes_0_and_1(self):
        ds = Dataset(np.zeros((2, 3)), [True, False], "classification", n_classes=2)
        assert ds.targets.dtype == np.int64 and ds.targets.tolist() == [1, 0]

    @pytest.mark.parametrize("n_classes", [None, 0, 2.5, 3.0, True])
    def test_rejects_a_class_count_that_is_no_count(self, n_classes):
        with pytest.raises(ValueError, match="n_classes must be an integer >= 1"):
            Dataset(np.zeros((2, 3)), [0, 0], "classification", n_classes=n_classes)
