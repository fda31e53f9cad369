"""The benchmark workloads: inputs from a seed, one closed-loop operation each.

Every workload has a gradient-carrying pass and a value-only pass, so the two
end-to-end times mean the same kind of thing on all of them:

* ``mnist_il``: ``run_experiment`` (1 epoch of a 784-256-256-10 batch-norm
  net with the exact ``il:or+and+xnor:d`` ensemble) on synthetic IDX files,
  then forward-only ``evaluate`` of the held-out split in batches of 256.
* ``nested_xnor8_ail``: the bundled ``nested_xnor8_xnor_ail`` config
  (8-8-8-1, batch 128, 16384 samples) cut to a few epochs, then ``evaluate``
  of its validation set in batches of 128.
* ``verify_suite``: ``logitgates verify --gradients`` in-process, then the
  value-only suites (constants, diff-bound grids, Bayes identities) at a
  fixed Monte Carlo size and seed.
"""

import contextlib
import io
import json
import math
import os
import time

import numpy as np


def write_mnist_fixture(lg, directory, seed, n_train, n_test, flip=0.1, noise=48.0):
    """MNIST-shaped IDX files: a 28x28 template per class plus pixel noise.

    Both splits draw from the same templates (a held-out loss is only
    meaningful then), and a fraction ``flip`` of labels is moved to another
    class so the loss stays well above zero.
    """
    rng = np.random.default_rng(seed)
    templates = np.kron(rng.uniform(0.0, 1.0, size=(10, 7, 7)), np.ones((4, 4))) * 255.0
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        labels = rng.integers(0, 10, size=n)
        images = templates[labels] + rng.normal(0.0, noise, size=(n, 28, 28))
        images = np.clip(np.rint(images), 0, 255).astype(np.uint8)
        flipped = rng.random(n) < flip
        labels = np.where(flipped, (labels + rng.integers(1, 10, size=n)) % 10, labels)
        lg.data.write_idx_images(os.path.join(directory, f"{prefix}-images-idx3-ubyte"), images)
        lg.data.write_idx_labels(os.path.join(directory, f"{prefix}-labels-idx1-ubyte"), labels)


def _batches(lg, ds, size):
    return [lg.data.Dataset(ds.inputs[i:i + size], ds.targets[i:i + size], ds.task,
                            n_classes=ds.n_classes)
            for i in range(0, ds.n, size)]


def _finite(*values):
    return all(math.isfinite(v) for v in values)


# Spans whose durations make up a training run's set-up (IDX read or data
# generation, and network construction).
SETUP_SPANS = ("experiments.task_datasets", "experiments.build_network")


class OpResult:
    """What one operation did: timings, operations attempted and failed."""

    def __init__(self):
        self.setup_s = 0.0
        self.grad_s = []
        self.value_s = []
        self.attempted = 0
        self.failed = 0
        self.val_loss = None
        self.errors = []

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)


class TrainingWorkload:
    """run_experiment on a fixed config, then held-out evaluation batches."""

    # The reference computation (calibrate.py) doing this workload's kind of work.
    calibration = "arrays"

    def __init__(self, lg, cfg, eval_batch):
        self.lg = lg
        self.cfg = cfg
        train_ds, val_ds = lg.experiments.task_datasets(cfg)
        self.val_batches = _batches(lg, val_ds, eval_batch)
        self.train_samples = train_ds.n * cfg.train.epochs
        self.n_val = val_ds.n
        targets = np.asarray(val_ds.targets, dtype=np.float64)
        # A trained model must beat chance (classification) or a constant
        # zero prediction by a wide margin: a coarse quality floor that
        # catches broken gradients without tracking the loss itself.
        self.loss_ceiling = (math.log(val_ds.n_classes) if val_ds.task == "classification"
                             else 1.5 * float(np.mean(targets ** 2)))

    def run_op(self, tracer):
        lg, res = self.lg, OpResult()
        res.attempted += 1
        try:
            report, net = lg.experiments.run_experiment(self.cfg)
        except lg.train.NaNLossError as exc:
            res.fail(f"training run: {exc}")
            return res
        res.grad_s.append(tracer.durations("train.fit", tracer.op)[-1])
        res.setup_s = sum(tracer.durations(name, tracer.op)[-1] for name in SETUP_SPANS)
        final = report.final
        losses = [row["mean_batch_loss"] for row in report.epochs] + list(final.values())
        if not _finite(*losses):
            res.fail(f"training run: non-finite loss in report {final}")
        res.val_loss = final["val_loss"]
        if not res.val_loss < self.loss_ceiling:
            res.fail(f"val_loss {res.val_loss!r} not below {self.loss_ceiling!r}")
        for _ in range(self.value_repeats):
            start = time.perf_counter()
            for batch in self.val_batches:
                res.attempted += 1
                loss, metric = lg.train.evaluate(net, batch)
                if not _finite(loss, metric):
                    res.fail(f"evaluation batch: loss {loss!r}, metric {metric!r}")
            res.value_s.append(time.perf_counter() - start)
        return res


class MnistIl(TrainingWorkload):
    value_repeats = 4
    n_train, n_test = 4096, 1024

    def __init__(self, lg, seed, scratch):
        write_mnist_fixture(lg, scratch, seed, self.n_train, self.n_test)
        cfg = lg.experiments.ExperimentConfig(
            task="mnist", activation="il:or+and+xnor:d", widths=[256, 256],
            batch_norm=True, mnist_dir=scratch,
            train=lg.train.TrainConfig(epochs=1, batch_size=256, max_lr=0.01,
                                       weight_decay=1e-4, seed=seed,
                                       loss="cross-entropy"))
        super().__init__(lg, cfg, eval_batch=256)


class NestedXnor8Ail(TrainingWorkload):
    calibration = "calls"
    value_repeats = 40
    epochs = 16

    def __init__(self, lg, seed, scratch):
        cfg = lg.experiments.resolve_config("nested_xnor8_xnor_ail")
        cfg.train.epochs = self.epochs
        cfg.train.seed = seed
        super().__init__(lg, cfg, eval_batch=cfg.train.batch_size)


class VerifySuite:
    """The verify command in-process: gradient checks, then value-only suites.

    The Monte Carlo size and seed are fixed, so every run does the same work;
    the workload seed does not change the inputs.
    """

    calibration = "arrays"
    grad_repeats = 10
    mc_n = 2_000_000
    mc_seed = 0

    def __init__(self, lg, seed, scratch):
        self.lg = lg
        self.json_path = os.path.join(scratch, "verify.json")
        common = ["--seed", str(self.mc_seed), "--json-out", self.json_path]
        self.grad_args = ["verify", "--gradients"] + common
        self.value_args = ["verify", "--constants", "--diff-bound", "--bayes",
                           "--n", str(self.mc_n)] + common

    def _verify(self, args, res):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.lg.cli.main(args)
        with open(self.json_path) as f:
            checks = json.load(f)["checks"]
        for check in checks:
            res.attempted += 1
            if not check["passed"]:
                res.fail(f"verify check failed: {check['name']} value={check['value']!r}")
        if code != 0 and not res.failed:
            res.fail(f"verify exited {code} with every check passed")

    def run_op(self, tracer):
        res = OpResult()
        for _ in range(self.grad_repeats):
            start = time.perf_counter()
            self._verify(self.grad_args, res)
            res.grad_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        self._verify(self.value_args, res)
        res.value_s.append(time.perf_counter() - start)
        return res


WORKLOADS = {"mnist_il": MnistIl, "nested_xnor8_ail": NestedXnor8Ail,
             "verify_suite": VerifySuite}
