import itertools
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

import logitgates.cli as cli
import logitgates.verify as verify
from logitgates.activations import GATE_KINDS, Activation, apply
from logitgates.cli import main, write_pgm
from logitgates.experiments import resolve_config


def test_grid_command_row_count(tmp_path):
    out = tmp_path / "or.csv"
    rc = main(["grid", "--kind", "or", "--family", "both", "--range", "10",
               "--step", "0.05", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 401 * 401
    assert lines[0] == "x,y,exact,approx,diff"


def test_grid_pgm_magic(tmp_path):
    out = tmp_path / "xnor.csv"
    pgm = tmp_path / "xnor.pgm"
    rc = main(["grid", "--kind", "xnor", "--range", "2", "--step", "0.1",
               "--out", str(out), "--pgm", str(pgm)])
    assert rc == 0
    raw = pgm.read_bytes()
    assert raw.startswith(b"P5\n41 41\n255\n")
    assert len(raw) == len(b"P5\n41 41\n255\n") + 41 * 41


def test_grid_diff_column_matches_verify(tmp_path, capsys):
    out = tmp_path / "and.csv"
    main(["grid", "--kind", "and", "--range", "3", "--step", "0.1", "--out", str(out)])
    cols = np.loadtxt(out, delimiter=",", skiprows=1)
    [rep] = verify.grid_compare(["and"], 3.0, 0.1)
    assert np.abs(cols[:, 4]).max() == pytest.approx(rep.max_abs_diff, abs=1e-9)
    assert capsys.readouterr().out == (
        f"grid and: strict max |approx - exact| = {rep.max_abs_diff:.6f} at {rep.argmax}; "
        f"off-boundary max = {rep.masked_max_abs_diff:.6f}\n")


@pytest.mark.parametrize("family", ["both", "il", "ail"])
@pytest.mark.parametrize("block", [7, 20])
@pytest.mark.parametrize("kind", GATE_KINDS)
def test_grid_bands_match_whole_grid(kind, block, family, monkeypatch, tmp_path):
    # 9 rows in bands of 1 or 2: the CSV and the PGM hold the whole grid's bits.
    monkeypatch.setattr(cli, "BLOCK", block)
    axes = -1.0 + 0.25 * np.arange(9)
    x, y = np.meshgrid(axes, axes, indexing="ij", sparse=True)
    exact = apply(Activation(kind, "il"), x, y)
    approx = apply(Activation(kind, "ail"), x, y)
    whole_csv, whole_pgm = tmp_path / "whole.csv", tmp_path / "whole.pgm"
    np.savetxt(whole_csv, np.column_stack([np.broadcast_to(x, exact.shape).ravel(),
                                           np.broadcast_to(y, exact.shape).ravel(),
                                           exact.ravel(), approx.ravel(),
                                           (approx - exact).ravel()]),
               delimiter=",", header="x,y,exact,approx,diff", comments="", fmt="%.12g")
    write_pgm(whole_pgm, {"both": approx - exact, "il": exact, "ail": approx}[family])

    bands_csv, bands_pgm = tmp_path / "bands.csv", tmp_path / "bands.pgm"
    assert main(["grid", "--kind", kind, "--family", family, "--range", "1", "--step", "0.25",
                 "--out", str(bands_csv), "--pgm", str(bands_pgm)]) == 0
    assert bands_csv.read_bytes() == whole_csv.read_bytes()
    assert bands_pgm.read_bytes() == whole_pgm.read_bytes()


def test_grid_is_centred_on_the_origin(tmp_path):
    # 2 / 0.3 rounds to 7 steps: 8 points from -1.05 to 1.05, not -1.0 to 1.1.
    out = tmp_path / "or.csv"
    assert main(["grid", "--kind", "or", "--range", "1", "--step", "0.3", "--out", str(out)]) == 0
    cols = np.loadtxt(out, delimiter=",", skiprows=1)
    assert cols.shape == (8 * 8, 5)
    x = cols[::8, 0]
    assert np.array_equal(x[::-1], -x)
    assert (x[0], x[-1]) == (-1.05, 1.05)
    assert np.array_equal(cols[:8, 1], x)


def _never_runs(*args, **kwargs):
    raise AssertionError("ran before the output path was opened")


def test_grid_unwritable_path_fails(tmp_path, capsys, monkeypatch):
    # Both output paths are opened before the export or the walk runs.
    monkeypatch.setattr(cli, "apply", _never_runs)
    monkeypatch.setattr(verify, "grid_compare", _never_runs)
    missing = tmp_path / "missing_dir"
    argv = ["grid", "--kind", "or", "--range", "1", "--step", "0.5"]
    for outputs in (["--out", str(missing / "x.csv")],
                    ["--out", str(tmp_path / "x.csv"), "--pgm", str(missing / "x.pgm")]):
        assert main(argv + outputs) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("grid: ") and str(missing) in err[0]
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid_range, step", [("1e308", "1"), ("1e300", "1e-10")])
def test_grid_overflowing_point_count_exits_2(grid_range, step, tmp_path, capsys):
    argv = ["grid", "--kind", "and", "--range", grid_range, "--step", step,
            "--out", str(tmp_path / "x.csv"), "--pgm", str(tmp_path / "x.pgm")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("grid: ") and "half_range" in err[0], err
    assert list(tmp_path.iterdir()) == []  # neither output, nor a temporary file


@pytest.mark.parametrize("argv", [
    ["grid", "--kind", "and", "--step", "0"],
    ["grid", "--kind", "and", "--range", "-1"],
    ["verify", "--constants", "--n", "0"],
    ["verify", "--bayes", "--seed", "-1"],
    ["train", "parity4_relu", "--seed", "-1"],
])
def test_bad_numbers_exit_with_usage(argv, tmp_path, capsys):
    flag = argv[-2]
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--out", str(tmp_path / "g.csv")] if argv[0] == "grid" else []))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {flag}:" in err


def test_verify_selected_suites_pass(capsys):
    rc = main(["verify", "--bayes", "--diff-bound", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "probability identities" in out
    assert "PASS" in out


def test_verify_fault_injection_names_quantity(monkeypatch, capsys):
    broken = dict(verify.NORMALIZATION_TABLE)
    mean, _ = broken[("or", "ail")]
    broken[("or", "ail")] = (mean, 1.5)
    monkeypatch.setattr(verify, "NORMALIZATION_TABLE", broken)
    rc = main(["verify", "--constants"])
    out = capsys.readouterr().out
    assert rc == 1
    assert any("FAIL" in line and "OR_AIL std" in line for line in out.splitlines())


def test_verify_seed_reproducible(capsys):
    main(["verify", "--gradients", "--bayes", "--seed", "7"])
    first = capsys.readouterr().out
    main(["verify", "--gradients", "--bayes", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_ignores_sample_count(tmp_path, capsys):
    # The benchmark's command line still passes --n; it changes nothing.
    runs = []
    for extra in (["--n", "2000000"], []):
        out = tmp_path / f"verify{len(runs)}.json"
        assert main(["verify", "--constants", *extra, "--seed", "0", "--json-out", str(out)]) == 0
        runs.append((capsys.readouterr().out, out.read_text()))
    assert runs[0] == runs[1]


def test_train_bundled_xor_config(tmp_path, capsys):
    rc = main(["train", "xor2_xnor_nail", "--out-dir", str(tmp_path / "run")])
    assert rc == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["extras"]["train_points_correct"] == 4
    assert (tmp_path / "run" / "model.bin").exists()
    surface = (tmp_path / "run" / "surface.csv").read_text().splitlines()
    assert surface[0] == "x,y,prob"
    assert len(surface) == 1 + 81 * 81


def test_train_config_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    for text in ('{"task": "unknown-task"}', "{not json", '[1, 2]',
                 '{"task": "xor2", "activation": "relu", "widths": [2], "bogus": 1,'
                 ' "train": {"epochs": 1, "batch_size": 4}}',
                 '{"task": "parity4", "activation": "ail:or+and+xnor:p", "widths": [4, 2],'
                 ' "train": {"epochs": 1, "batch_size": 4}}',
                 '{"task": "parity4", "activation": "xnor_ail", "widths": [5],'
                 ' "train": {"epochs": 1, "batch_size": 4}}'):
        bad.write_text(text)
        assert main(["train", str(bad)]) == 2
    assert main(["train", str(tmp_path / "none.json")]) == 2


@pytest.mark.parametrize("field", ["max_lr", "weight_decay"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_train_non_finite_rate_is_a_bad_config(field, literal, tmp_path, capsys):
    # Python's json reads NaN and Infinity; such a rate must fail as a config, not as a NaN loss.
    path = tmp_path / "rate.json"
    path.write_text('{"task": "xor2", "activation": "relu", "widths": [2],'
                    f' "train": {{"epochs": 1, "batch_size": 4, "{field}": {literal}}}}}')
    assert main(["train", str(path), "--out-dir", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and field in err
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("ignore:invalid value encountered", "ignore:overflow")
def test_train_nan_abort_exit_3(tmp_path):
    cfg = {
        "task": "nested_xnor8",
        "activation": "relu",
        "widths": [8, 8, 8],
        "n_train": 64,
        "train": {"epochs": 3, "batch_size": 16, "max_lr": 1e160,
                  "seed": 0, "loss": "mse"},
    }
    path = tmp_path / "explode.json"
    path.write_text(json.dumps(cfg))
    rc = main(["train", str(path), "--out-dir", str(tmp_path / "run")])
    assert rc == 3


@pytest.mark.parametrize("side, cut, message", [(28, 100, "truncated pixel payload"),
                                                (5, 0, "images are 5x5, not 28x28")],
                         ids=["truncated", "5x5"])
def test_train_malformed_idx_exit_2(tmp_path, capsys, side, cut, message):
    from logitgates.data import write_idx_images, write_idx_labels

    mnist = tmp_path / "mnist"
    mnist.mkdir()
    for prefix in ("train", "t10k"):
        write_idx_images(mnist / f"{prefix}-images-idx3-ubyte", np.zeros((4, side, side), np.uint8))
        write_idx_labels(mnist / f"{prefix}-labels-idx1-ubyte", np.zeros(4, np.uint8))
    images = mnist / "train-images-idx3-ubyte"
    raw = images.read_bytes()
    images.write_bytes(raw[:len(raw) - cut])
    cfg = {"task": "mnist", "activation": "relu", "widths": [4], "mnist_dir": str(mnist),
           "train": {"epochs": 1, "batch_size": 4}}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(cfg))
    rc = main(["train", str(path), "--out-dir", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("train: ") and message in err[0]


def test_train_unusable_out_dir_fails_before_reading_data(tmp_path, capsys, monkeypatch):
    import logitgates.experiments as experiments

    def no_data(cfg):
        raise AssertionError("data read before the output directory was made")

    monkeypatch.setattr(experiments, "task_datasets", no_data)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out_dir in (blocker / "run", blocker):
        assert main(["train", "xor2_xnor_nail", "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("train: ") and str(blocker) in err[0]


def test_verify_unwritable_json_out_fails(tmp_path, capsys, monkeypatch):
    for suite in ("constants_report", "gradients_suite", "diff_bound_suite", "bayes_suite"):
        monkeypatch.setattr(verify, suite, _never_runs)
    out = tmp_path / "missing_dir" / "x.json"
    assert main(["verify", "--json-out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("verify: ") and str(out) in err[0]


def test_report_unwritable_out_fails(tmp_path, capsys):
    run = tmp_path / "runs" / "a"
    run.mkdir(parents=True)
    (run / "report.json").write_text(json.dumps({"final": {"val_accuracy": 0.5}}))
    out = tmp_path / "missing_dir" / "summary.md"
    assert main(["report", "--in", str(tmp_path / "runs"), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("report: ") and str(out) in err[0]


def test_report_command(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--in", str(empty)]) == 2

    run = tmp_path / "runs" / "a"
    run.mkdir(parents=True)
    payload = {"final": {"val_accuracy": 0.93}, "extras": {"activation": "or_ail"}}
    (run / "report.json").write_text(json.dumps(payload))
    out_md = tmp_path / "summary.md"
    assert main(["report", "--in", str(tmp_path / "runs"), "--out", str(out_md)]) == 0
    text = out_md.read_text()
    assert text.startswith("| report |")
    assert "or_ail" in text

    run_b = tmp_path / "runs" / "b"
    run_b.mkdir()
    payload_b = {"final": {"val_accuracy": 0.99}, "extras": {"activation": "xnor_ail"}}
    (run_b / "report.json").write_text(json.dumps(payload_b))
    assert main(["report", "--in", str(tmp_path / "runs"), "--out", str(out_md)]) == 0
    lines = out_md.read_text().splitlines()
    assert "xnor_ail" in lines[2]  # higher accuracy sorts first


def test_report_skips_json_that_is_not_a_report(tmp_path, capsys):
    # Like an object without "final", these are not train reports: a top-level
    # number or list, bytes that are not UTF-8, and a "final" or "extras" that
    # is not an object.
    stray = {"number.json": b"3", "list.json": b"[1, 2]",
             "latin1.json": b'{"final": {"activation": "\xe9"}}',
             "final.json": b'{"final": [1]}',
             "extras.json": b'{"final": {"val_accuracy": 0.5}, "extras": 7}'}
    only_stray, mixed = tmp_path / "only_stray", tmp_path / "mixed"
    for directory in (only_stray, mixed):
        directory.mkdir()
        for name, raw in stray.items():
            (directory / name).write_bytes(raw)
    assert main(["report", "--in", str(only_stray)]) == 2
    assert "no train reports" in capsys.readouterr().err

    (mixed / "report.json").write_text(json.dumps({"final": {"val_accuracy": 0.9}}))
    assert main(["report", "--in", str(mixed)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert len(table) == 3 and str(mixed / "report.json") in table[2]


@pytest.mark.parametrize("bad", ['"bad"', "null"])
def test_report_skips_a_metric_that_is_not_a_number(bad, tmp_path, capsys):
    only_bad, mixed = tmp_path / "only_bad", tmp_path / "mixed"
    for directory in (only_bad, mixed):
        (directory / "a").mkdir(parents=True)
        (directory / "a" / "report.json").write_text(f'{{"final": {{"val_accuracy": {bad}}}}}')
    assert main(["report", "--in", str(only_bad)]) == 2
    assert "no train reports" in capsys.readouterr().err

    (mixed / "b").mkdir()
    (mixed / "b" / "report.json").write_text(json.dumps({"final": {"val_accuracy": 0.9}}))
    assert main(["report", "--in", str(mixed)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert len(table) == 3 and str(mixed / "b" / "report.json") in table[2]


def test_train_seed_override_leaves_the_resolved_config(tmp_path, monkeypatch, capsys):
    cfg = resolve_config("parity4_xnor_ail")
    runs = []

    def run_experiment(run_cfg):
        runs.append(run_cfg)
        return SimpleNamespace(final={}, extras={}), None

    monkeypatch.setattr(cli, "resolve_config", lambda path_or_name: cfg)
    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    assert main(["train", "parity4_xnor_ail", "--seed", "7", "--out-dir", str(tmp_path)]) == 0
    [run_cfg] = runs
    assert (run_cfg.train.seed, run_cfg.output_dir) == (7, str(tmp_path))
    assert (cfg.train.seed, cfg.output_dir) == (0, None)


def test_seed_env_fallback(tmp_path):
    cfg = {
        "task": "parity4",
        "activation": "xnor_ail",
        "widths": [4, 2],
        "n_train": 32,
        "train": {"epochs": 1, "batch_size": 16},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["train", str(path), "--seed", "99", "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["seed"] == 99


def test_help_exists_for_every_subcommand(capsys):
    for cmd in ("grid", "verify", "train", "report"):
        with pytest.raises(SystemExit) as exit_info:
            main([cmd, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out


def test_exported_names_resolve():
    # A name deleted from the package cannot stay in its export list.
    import logitgates

    assert len(set(logitgates.__all__)) == len(logitgates.__all__)
    assert [name for name in logitgates.__all__ if not hasattr(logitgates, name)] == []


def test_write_pgm_scaling(tmp_path):
    path = tmp_path / "t.pgm"
    write_pgm(path, np.array([[0.0, 1.0], [2.0, 4.0]]))
    raw = path.read_bytes()
    header = b"P5\n2 2\n255\n"
    assert raw.startswith(header)
    assert list(raw[len(header):]) == [0, 64, 128, 255]


def test_verify_json_out(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--constants", "--json-out", str(out)])
    payload = json.loads(out.read_text())
    assert rc == 0 and payload["passed"] is True
    assert len(payload["estimates"]) == 6
    assert set(payload["estimates"]["or_ail"]) == {"mean", "std"}
    assert len(payload["checks"]) == 12


def test_outputs_get_the_mode_open_gives(tmp_path):
    # Outputs are written to a temporary file and moved into place; the file
    # still gets the mode the umask allows, as open() would give it.
    out = tmp_path / "verify.json"
    umask = os.umask(0o027)
    try:
        assert main(["verify", "--bayes", "--json-out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o640


def test_overwritten_output_keeps_its_mode(tmp_path):
    out = tmp_path / "verify.json"
    out.write_text("earlier")
    out.chmod(0o600)
    assert main(["verify", "--bayes", "--json-out", str(out)]) == 0
    assert out.stat().st_mode & 0o777 == 0o600 and json.loads(out.read_text())["passed"] is True


_GRID = ["grid", "--kind", "or", "--range", "1", "--step", "0.5"]


@pytest.mark.parametrize("argv, files", [
    (_GRID + ["--out"], ["fifo"]),
    (_GRID + ["--out", "x.csv", "--pgm"], ["fifo", "x.csv"]),
    (["verify", "--bayes", "--json-out"], ["fifo"]),
])
def test_output_to_fifo_is_written_directly(argv, files, tmp_path, monkeypatch):
    # A target that is not a regular file (a FIFO here, like /dev/null or a
    # pipe) is opened as it is, not replaced by a regular file.
    monkeypatch.chdir(tmp_path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the writer's open() need not wait
    try:
        assert main(argv + [str(fifo)]) == 0
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert fifo.is_fifo() and data
    assert sorted(p.name for p in tmp_path.iterdir()) == files


def test_output_through_symlink_replaces_its_target(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("earlier")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["verify", "--bayes", "--json-out", str(link)]) == 0
    assert link.is_symlink() and json.loads(target.read_text())["passed"] is True
    assert sorted(tmp_path.iterdir()) == [link, target]


def _fails_on_call(k, fn):
    calls = itertools.count(1)

    def run(*args, **kwargs):
        if next(calls) == k:
            raise RuntimeError("failed partway")
        return fn(*args, **kwargs)

    return run


@pytest.mark.parametrize("module, name, call", [(cli, "apply", 3), (verify, "grid_compare", 1)],
                         ids=["export", "walk"])
def test_failed_grid_leaves_no_partial_csv(module, name, call, tmp_path, monkeypatch):
    # The export writes the first of five bands of rows before the second
    # fails; or the whole CSV and PGM are written before the walk that gives
    # the printed line fails.
    monkeypatch.setattr(module, name, _fails_on_call(call, getattr(module, name)))
    with pytest.raises(RuntimeError, match="partway"):
        main(["grid", "--kind", "or", "--range", "10", "--step", "0.05",
              "--out", str(tmp_path / "x.csv"), "--pgm", str(tmp_path / "x.pgm")])
    assert list(tmp_path.iterdir()) == []


def test_failed_verify_keeps_earlier_json(tmp_path, monkeypatch, capsys):
    out = tmp_path / "verify.json"
    out.write_text("earlier")
    monkeypatch.setattr(verify, "bayes_suite", _fails_on_call(1, verify.bayes_suite))
    with pytest.raises(RuntimeError, match="partway"):
        main(["verify", "--constants", "--bayes", "--json-out", str(out)])
    assert list(tmp_path.iterdir()) == [out] and out.read_text() == "earlier"


def test_train_bundled_parity_configs(tmp_path):
    rc = main(["train", "parity4_xnor_ail", "--out-dir", str(tmp_path / "xnor")])
    assert rc == 0
    xnor = json.loads((tmp_path / "xnor" / "report.json").read_text())
    assert xnor["extras"]["lattice_accuracy"] == 1.0
    assert (tmp_path / "xnor" / "curves.csv").read_text().startswith("epoch,")

    rc = main(["train", "parity4_relu", "--out-dir", str(tmp_path / "relu")])
    assert rc == 0
    relu = json.loads((tmp_path / "relu" / "report.json").read_text())
    assert relu["extras"]["lattice_accuracy"] < 1.0
