"""Command-line interface: grid export, verification suites, training, reports."""

import argparse
import contextlib
import errno
import json
import math
import os
import secrets
import stat
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import verify
from .activations import GATE_KINDS, Activation, apply
from .data import IdxFormatError
from .experiments import ConfigError, resolve_config, run_experiment
from .numerics import BLOCK
from .train import NaNLossError


def _number(kind, positive: bool):
    """An argparse type: a finite ``kind`` that is > 0, or >= 0 unless ``positive``."""
    def parse(text):
        value = kind(text)
        if not math.isfinite(value) or value < 0 or (positive and value == 0):
            raise argparse.ArgumentTypeError(
                f"expected a {'positive' if positive else 'non-negative'} number, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


def _create_beside(target: Path) -> Path:
    """Create an empty file with a fresh name beside ``target``; the umask sets its mode."""
    for _ in range(tempfile.TMP_MAX):
        tmp = target.with_name(f".{target.name}.{secrets.token_hex(4)}.tmp")
        try:
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        except FileExistsError:
            continue
        return tmp
    raise FileExistsError(errno.EEXIST, "no free temporary name", str(target))


@contextlib.contextmanager
def _output(path):
    """Yield a path to write ``path``'s contents to, moved onto it only if the block returns.

    A new or regular-file target is written through a temporary file beside
    it, made on entry, so an unwritable path fails before any work; if the
    block raises, the temporary file is removed and ``path`` is untouched.
    The file gets the mode open() would give it: the umask's for a new file,
    the old file's for one it replaces (its owner and hard links are not
    kept). Any other existing target (a device, a FIFO) is yielded unchanged
    and written directly. A None path yields None.
    """
    if path is None:
        yield None
        return
    try:
        mode = os.stat(path).st_mode  # follows symlinks and /dev/stdout, as open() does
    except OSError:  # a new file, or a path the temporary file fails on too
        mode = None
    if mode is not None and stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if mode is not None and not stat.S_ISREG(mode):
        yield path
        return
    if mode is not None and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
    target = Path(os.path.realpath(path))  # a symlink is written through, as open() would
    try:
        tmp = _create_beside(target)
    except OSError as exc:  # name the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        yield tmp
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_pgm(path, values: np.ndarray):
    """8-bit binary PGM, min-max scaled over the grid."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    pixels = np.round(255.0 * (values - lo) / span).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{values.shape[1]} {values.shape[0]}\n255\n".encode())
        f.write(pixels.tobytes())


def _cmd_grid(args) -> int:
    try:
        with _output(args.out) as csv_path, _output(args.pgm) as pgm_path:
            axes = verify.grid_axes(args.range, args.step)
            # Whole rows in bands of about BLOCK cells; only the PGM's surface is kept.
            n, rows = axes.size, max(1, BLOCK // axes.size)
            surface = None if pgm_path is None else np.empty((n, n))
            gates = Activation(args.kind, "il"), Activation(args.kind, "ail")
            worst, at = -math.inf, None  # the strict max and its first cell, row-major
            with open(csv_path, "w") as csv:
                for r in range(0, n, rows):
                    x, y = axes[r:r + rows, np.newaxis], axes[np.newaxis, :]
                    exact, approx = (apply(act, x, y) for act in gates)
                    diff = approx - exact
                    cols = np.column_stack([np.repeat(x, n), np.tile(axes, x.size),
                                            exact.ravel(), approx.ravel(), diff.ravel()])
                    np.savetxt(csv, cols, delimiter=",", comments="", fmt="%.12g",
                               header="" if r else "x,y,exact,approx,diff")
                    if surface is not None:
                        surface[r:r + rows] = {"il": exact, "ail": approx}.get(args.family, diff)
                    np.abs(diff, out=diff)
                    k = int(np.argmax(diff))  # the band's first NaN, or else its first maximum
                    top = diff.flat[k]
                    if top > worst or (math.isnan(top) and not math.isnan(worst)):
                        worst, at = top, (float(axes[r + k // n]), float(axes[k % n]))
            if surface is not None:
                write_pgm(pgm_path, surface)
            [report] = verify.grid_compare([args.kind], args.range, args.step)
    except (ValueError, MemoryError) as exc:  # a range too wide for its step, or too fine to hold
        print(f"grid: {exc}", file=sys.stderr)
        return 2
    print(f"grid {args.kind}: strict max |approx - exact| = {worst:.6f} "
          f"at {at}; off-boundary max = {report.masked_max_abs_diff:.6f}")
    return 0


def _cmd_verify(args) -> int:
    suites = ("constants", "gradients", "diff_bound", "bayes")
    selected = [name for name in suites if getattr(args, name)] or suites
    with _output(args.json_out) as json_path:
        results = []
        moments = {}
        if "constants" in selected:
            const_results, moments = verify.constants_report()
            results += const_results
        if "gradients" in selected:
            results += verify.gradients_suite(seed=args.seed)
        if "diff_bound" in selected:
            results += verify.diff_bound_suite()
        if "bayes" in selected:
            results += verify.bayes_suite(seed=args.seed)
        width = max(len(r.name) for r in results)
        ok = True
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            bound = "reported" if r.bound == float("inf") else f"< {r.bound:.3e}"
            print(f"{status}  {r.name:<{width}}  value={r.value:.6e}  {bound}")
            ok &= r.passed
        print("all checks passed" if ok else "FAILURES present")
        if json_path is not None:
            payload = {
                "passed": ok,
                "checks": [asdict(r) for r in results],
                "estimates": {name: {"mean": mean, "std": std}
                              for name, (mean, std) in moments.items()},
            }
            Path(json_path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0 if ok else 1


def _cmd_train(args) -> int:
    try:
        cfg = resolve_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"train: bad config {args.config!r}: {exc}", file=sys.stderr)
        return 2
    seed = cfg.train.seed if args.seed is None else args.seed
    out_dir = args.out_dir or cfg.output_dir or "runs/" + Path(args.config).stem
    try:
        report, _ = run_experiment(replace(cfg, train=replace(cfg.train, seed=seed),
                                           output_dir=out_dir))
    except NaNLossError as exc:
        print(f"train: aborted: {exc}", file=sys.stderr)
        return 3
    except (OSError, IdxFormatError) as exc:  # OSError: missing data or an unusable --out-dir
        print(f"train: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report.final | report.extras, sort_keys=True))
    print(f"artifacts written to {out_dir}")
    return 0


def _metric_sort_key(summary: dict):
    """Sort key of a report's first metric, or None when that metric is not a number."""
    for key in ("val_accuracy", "lattice_accuracy", "val_rmse", "train_accuracy",
                "train_rmse"):
        if key in summary:
            value = summary[key]
            if type(value) not in (int, float):  # json's numbers; a bool is no number
                return None
            return -value if "accuracy" in key else value  # accuracy descending, RMSE ascending
    return 0.0


def _cmd_report(args) -> int:
    rows = []
    candidates = sorted(set(Path(args.in_dir).glob("**/report.json"))
                        | set(Path(args.in_dir).glob("*.json")))
    for path in candidates:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):  # JSON and UTF-8 decoding errors are ValueErrors
            continue
        if not (isinstance(payload, dict) and isinstance(payload.get("final"), dict)
                and isinstance(payload.get("extras", {}), dict)):
            continue  # not a train report
        summary = dict(payload["final"])
        summary.update(payload.get("extras", {}))
        if (order := _metric_sort_key(summary)) is None:
            continue  # nor is a report whose metric is not a number
        rows.append((order, path, summary))
    if not rows:
        print(f"report: no train reports under {args.in_dir}", file=sys.stderr)
        return 2
    rows.sort(key=lambda row: row[0])
    keys = sorted({k for _, _, s in rows for k in s if isinstance(s[k], (int, float, str))})
    lines = ["| report | " + " | ".join(keys) + " |",
             "| --- | " + " | ".join("---" for _ in keys) + " |"]
    for _, path, summary in rows:
        cells = [f"{summary.get(k, '')}" for k in keys]
        lines.append(f"| {path} | " + " | ".join(cells) + " |")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="logitgates",
                                     description="Logit-space Boolean gates: experiments and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grid", help="export exact/approximate gate surfaces over a grid")
    g.add_argument("--kind", required=True, choices=GATE_KINDS)
    g.add_argument("--family", default="both", choices=["both", "il", "ail"],
                   help="surface for the PGM heatmap (CSV always carries both)")
    g.add_argument("--range", type=_number(float, positive=False), default=10.0)
    g.add_argument("--step", type=_number(float, positive=True), default=0.05)
    g.add_argument("--out", required=True, help="CSV output path")
    g.add_argument("--pgm", help="also write a grayscale PGM heatmap")
    g.set_defaults(func=_cmd_grid)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--constants", action="store_true")
    v.add_argument("--gradients", action="store_true")
    v.add_argument("--diff-bound", dest="diff_bound", action="store_true")
    v.add_argument("--bayes", action="store_true")
    v.add_argument("--n", type=_number(int, positive=True), default=None,
                   help="accepted and ignored: the constants are checked by quadrature")
    v.add_argument("--seed", type=_number(int, positive=False), default=0,
                   help="seed of the gradient and identity check points")
    v.add_argument("--json-out", dest="json_out", default=None,
                   help="also write the checks and the quadrature means and stds as JSON")
    v.set_defaults(func=_cmd_verify)

    t = sub.add_parser("train", help="run a training experiment from a config")
    t.add_argument("config", help="config JSON path or bundled config name")
    t.add_argument("--seed", type=_number(int, positive=False), default=None,
                   help="override the config seed")
    t.add_argument("--out-dir", default=None)
    t.set_defaults(func=_cmd_train)

    r = sub.add_parser("report", help="summarize train reports as a markdown table")
    r.add_argument("--in", dest="in_dir", required=True)
    r.add_argument("--out", default=None)
    r.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # an output path that cannot be written; the message names it
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
