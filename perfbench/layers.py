"""Where the tracer wraps the library, and the per-layer metrics it yields.

Every wrap goes through a module or class attribute that the library itself
looks up at call time, so the library's code runs unchanged. A name the
library no longer has is skipped, and its metrics read 0.
"""

import os
import statistics
import time

import numpy as np

# Layer classes of logitgates.network, by the metric name of their type.
NETWORK_LAYERS = {"affine": "_AffineLayer", "batchnorm": "_BatchNormLayer", "act": "_ActLayer"}
NUMERICS = ("softplus", "log1mexp", "logit_from_logp")
TENSOR_FUNCS = ("as_matrix", "zeros", "matmul", "elementwise", "scale", "transpose",
                "row_broadcast_add", "sum_rows")
DATA_FUNCS = ("load_mnist_idx", "read_idx_images", "read_idx_labels", "gen_parity4",
              "gen_nested_xnor8", "gen_xor2", "parity4_lattice")
VERIFY_FUNCS = ("mc_constants", "grid_compare", "gradcheck_activation", "bayes_identity_check",
                "constants_report", "gradients_suite", "diff_bound_suite", "bayes_suite")

# Elements per operand in the per-variant gate cost table (a quarter of the
# verify suite's 1M-element Monte Carlo chunk, to keep traced runs short).
TABLE_ELEMS = 1 << 18
TABLE_REPEATS = 3


def _size_of_first(args):
    return int(np.size(args[0]))


def install_phases(tracer, lg):
    """The spans every run needs: set-up and the training call."""
    tracer.wrap(lg.experiments, "task_datasets", "experiments.task_datasets")
    tracer.wrap(lg.experiments, "build_network", "experiments.build_network")
    tracer.wrap(lg.experiments, "fit", "train.fit")


def install_layers(tracer, lg):
    """Spans at every layer boundary, plus the training-step span."""
    install_phases(tracer, lg)
    for name in NUMERICS:
        tracer.wrap(lg.activations, name, f"numerics.{name}", count_in=_size_of_first)
    for name in ("apply", "gradient"):
        count = (lambda args: int(np.size(args[1])))
        tracer.wrap(lg.activations, name, f"activations.{name}", count_in=count)
        # verify binds apply/gradient by name at import.
        tracer.wrap(lg.verify, name, f"activations.{name}", count_in=count)
    tracer.wrap(lg.ensemble, "forward", "ensemble.forward")
    tracer.wrap(lg.ensemble, "backward", "ensemble.backward")
    tensor = getattr(lg, "tensor", None)
    if tensor is not None:
        for name in TENSOR_FUNCS:
            count_out = (lambda r: int(r.nbytes)) if name == "transpose" else None
            tracer.wrap(tensor, name, f"tensor.{name}", count_out=count_out)
    for metric, cls_name in NETWORK_LAYERS.items():
        cls = getattr(lg.network, cls_name, None)
        if cls is not None:
            tracer.wrap(cls, "forward", f"network.{metric}.fwd")
            tracer.wrap(cls, "backward", f"network.{metric}.bwd")

    def open_step(args, kwargs):
        training = kwargs.get("training", args[2] if len(args) > 2 else False)
        if training and tracer.is_open("train.fit") and not tracer.is_open("train.step"):
            tracer.begin("train.step")

    # A step runs from the training forward pass to the end of the optimizer
    # update; batch gathering before it stays in fit's self time.
    tracer.hook(lg.network.Network, "forward", open_step)
    for opt in ("adam_step", "sgd_step"):
        tracer.wrap(lg.train, opt, f"train.{opt}")
        tracer.hook(lg.train, opt, after=lambda: tracer.end_open("train.step"))
    for key in list(lg.train._LOSSES):
        tracer.wrap_item(lg.train._LOSSES, key, "train.loss")
    tracer.wrap(lg.train, "evaluate", "train.evaluate")
    for name in DATA_FUNCS:
        count_in = (lambda args: os.path.getsize(args[0])) if name == "read_idx_images" else None
        tracer.wrap(lg.data, name, f"data.{name}", count_in=count_in)
    for name in VERIFY_FUNCS:
        count_in = (lambda args: int(args[1])) if name == "mc_constants" else None
        tracer.wrap(lg.verify, name, f"verify.{name}", count_in=count_in)


def gate_table(lg):
    """Value and gradient ns per element for every activation variant."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(TABLE_ELEMS) * 3.0
    y = rng.standard_normal(TABLE_ELEMS) * 3.0
    out = {}
    for act in lg.verify.all_activation_variants():
        operands = (x,) if act.arity == 1 else (x, y)
        for label, fn in (("value", lg.activations.apply), ("grad", lg.activations.gradient)):
            times = []
            for _ in range(TABLE_REPEATS):
                start = time.perf_counter()
                fn(act, *operands)
                times.append(time.perf_counter() - start)
            out[f"activations.{act.name}.{label}_ns_per_elem"] = (
                statistics.median(times) / TABLE_ELEMS * 1e9)
    return out


def layer_metrics(tracer, op):
    """Per-layer metrics over one traced operation (totals unless named p50/p99).

    Also returns the number of training steps the percentiles cover.
    """
    totals = tracer.totals(op)

    def row(name):
        return totals.get(name, [0, 0.0, 0.0, 0])

    def ms(name):
        return row(name)[1] * 1e3

    def self_ms(name):
        return row(name)[2] * 1e3

    m = {}
    for name in NUMERICS:
        m[f"numerics.{name}.elems"] = row(f"numerics.{name}")[3]
    for name in ("apply", "gradient"):
        m[f"activations.{name}.self_ms"] = self_ms(f"activations.{name}")
        m[f"activations.{name}.calls"] = row(f"activations.{name}")[0]
    m["ensemble.forward.self_ms"] = self_ms("ensemble.forward")
    m["ensemble.backward.self_ms"] = self_ms("ensemble.backward")
    m["tensor.self_ms"] = sum(r[2] for n, r in totals.items() if n.startswith("tensor.")) * 1e3
    m["tensor.transpose.bytes_copied"] = row("tensor.transpose")[3]
    for metric in NETWORK_LAYERS:
        m[f"network.{metric}.fwd_ms"] = ms(f"network.{metric}.fwd")
        m[f"network.{metric}.bwd_ms"] = ms(f"network.{metric}.bwd")

    steps = [d * 1e3 for d in tracer.durations("train.step", op)]
    m["train.step_ms.p50"] = float(np.percentile(steps, 50)) if steps else 0.0
    m["train.step_ms.p99"] = float(np.percentile(steps, 99)) if steps else 0.0
    m["train.adam_step.ms"] = ms("train.adam_step")
    m["train.loss.ms"] = ms("train.loss")
    m["train.evaluate.s"] = row("train.evaluate")[1]
    m["train.fit.self_ms"] = self_ms("train.fit")

    m["data.load_mnist_idx.s"] = row("data.load_mnist_idx")[1]
    m["data.read_idx_images.bytes"] = row("data.read_idx_images")[3]
    m["data.gen_nested_xnor8.s"] = row("data.gen_nested_xnor8")[1]
    m["experiments.build_network.s"] = row("experiments.build_network")[1]

    mc = row("verify.mc_constants")
    m["verify.mc_constants.s"] = mc[1]
    m["verify.mc_constants.samples_per_s"] = mc[3] / mc[1] if mc[1] > 0 else 0.0
    for name in ("grid_compare", "gradcheck_activation", "bayes_identity_check"):
        m[f"verify.{name}.s"] = row(f"verify.{name}")[1]

    # Share of step time covered by the self time of the spans inside steps.
    step = row("train.step")
    m["trace.step_coverage"] = 1.0 - step[2] / step[1] if step[1] > 0 else 0.0
    m["trace.spans"] = sum(r[0] for r in totals.values())
    return m, len(steps)
