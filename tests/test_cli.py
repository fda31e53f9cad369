import json

import numpy as np
import pytest

import logitgates.verify as verify
from logitgates.cli import main, write_pgm


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


def test_grid_diff_column_matches_verify(tmp_path):
    out = tmp_path / "and.csv"
    main(["grid", "--kind", "and", "--range", "3", "--step", "0.1", "--out", str(out)])
    cols = np.loadtxt(out, delimiter=",", skiprows=1)
    [rep] = verify.grid_compare(["and"], 3.0, 0.1)
    assert np.abs(cols[:, 4]).max() == pytest.approx(rep.max_abs_diff, abs=1e-9)


def _never_runs(*args, **kwargs):
    raise AssertionError("ran before the output path was opened")


def test_grid_unwritable_path_fails(tmp_path, capsys, monkeypatch):
    # grid_compare opens the CSV before its first band; the PGM path is
    # opened before grid_compare is called.
    missing = tmp_path / "missing_dir"
    argv = ["grid", "--kind", "or", "--range", "1", "--step", "0.5"]
    for outputs, patched in ((["--out", str(missing / "x.csv")], "apply"),
                             (["--out", str(tmp_path / "x.csv"), "--pgm", str(missing / "x.pgm")],
                              "grid_compare")):
        with monkeypatch.context() as m:
            m.setattr(verify, patched, _never_runs)
            assert main(argv + outputs) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("grid: ") and str(missing) in err[0]


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
    rc = main(["verify", "--constants", "--n", "200000", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert any("FAIL" in line and "OR_AIL std" in line for line in out.splitlines())


def test_verify_seed_reproducible(capsys):
    main(["verify", "--constants", "--n", "100000", "--seed", "7"])
    first = capsys.readouterr().out
    main(["verify", "--constants", "--n", "100000", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


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
    # n here is far below what the absolute tolerances are calibrated for, so
    # only the JSON payload contract is asserted, not a pass verdict
    out = tmp_path / "verify.json"
    rc = main(["verify", "--constants", "--n", "100000", "--seed", "1",
               "--json-out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["passed"] == (rc == 0)
    assert {"mean", "std", "n", "se_mean"} <= set(payload["estimates"]["or_ail"])
    assert len(payload["checks"]) == 12


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
