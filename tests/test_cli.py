"""Command-line driver: exit codes, artifacts, option precedence."""

import json

import numpy as np
import pytest

import helpers
from dmapnet import load_dataset, load_model, save_dataset
from dmapnet.cli import main


def test_no_arguments_prints_usage(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert "error" in err


def test_unknown_flag_is_exit_one(capsys):
    assert main(["gen-data", "--bogus", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_subcommand_is_exit_one(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_option(capsys):
    assert main(["gen-data", "--n", "20"]) == 1
    assert "--out" in capsys.readouterr().err


def test_pipeline_end_to_end(tmp_path, capsys):
    data_path = tmp_path / "data.tsv"
    model_path = tmp_path / "model.bin"
    trained_path = tmp_path / "trained.bin"
    log_path = tmp_path / "log.tsv"
    report_path = tmp_path / "report.json"

    assert main(["gen-data", "--out", str(data_path), "--n", "40", "--d", "4",
                 "--k", "2", "--noise", "0.05", "--seed", "3"]) == 0
    data = load_dataset(data_path)
    assert data.num_samples == 40
    assert data.num_features == 4
    assert data.num_classes == 2

    assert main(["build-dmn", "--data", str(data_path), "--out",
                 str(model_path), "--anchors", "14", "--seed", "3"]) == 0
    model, head = load_model(model_path)
    assert head is None
    assert model.anchor_count == 14
    assert model.anchor_ids == data.ids[:14]

    assert main(["train", "--model", str(model_path), "--data", str(data_path),
                 "--out", str(trained_path), "--log", str(log_path),
                 "--c", "1.0", "--max-iters", "4", "--seed", "3"]) == 0
    trained, trained_head = load_model(trained_path)
    assert trained_head is not None
    assert trained_head.num_classes == 2
    log_lines = log_path.read_text().strip().split("\n")
    assert len(log_lines) == 4
    assert int(log_lines[0].split("\t")[0]) == 1

    assert main(["eval", "--model", str(trained_path), "--data",
                 str(data_path), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    for key in ("mf_samples", "mf_concepts", "mean_ap", "per_concept_f",
                "per_concept_ap", "excluded_concepts"):
        assert key in report
    assert 0.0 <= report["mf_samples"] <= 1.0
    capsys.readouterr()


def test_train_with_cross_validation(tmp_path, capsys):
    data_path = tmp_path / "data.tsv"
    model_path = tmp_path / "model.bin"
    out_path = tmp_path / "trained.bin"
    assert main(["gen-data", "--out", str(data_path), "--n", "24", "--d", "3",
                 "--k", "2", "--seed", "5"]) == 0
    assert main(["build-dmn", "--data", str(data_path), "--out",
                 str(model_path), "--anchors", "10", "--seed", "5"]) == 0
    assert main(["train", "--model", str(model_path), "--data", str(data_path),
                 "--out", str(out_path), "--max-iters", "2", "--cv-folds", "2",
                 "--cv-grid", "0.5,2", "--seed", "5"]) == 0
    err = capsys.readouterr().err
    assert "cross-validated trade-offs" in err
    _, head = load_model(out_path)
    assert set(np.unique(head.trade_offs)) <= {0.5, 2.0}


def _small_model(tmp_path):
    data_path = tmp_path / "data.tsv"
    model_path = tmp_path / "model.bin"
    assert main(["gen-data", "--out", str(data_path), "--n", "40", "--d", "4",
                 "--k", "2", "--noise", "0.05", "--seed", "3"]) == 0
    assert main(["build-dmn", "--data", str(data_path), "--out",
                 str(model_path), "--anchors", "14", "--seed", "3"]) == 0
    return data_path, model_path


def test_train_halves_an_unstable_eta(tmp_path, capsys):
    # at 1e-3 the objective goes uphill on this problem; the loop backs up
    # and halves the rate twice, and the written log is non-increasing
    data_path, model_path = _small_model(tmp_path)
    log_path = tmp_path / "log.tsv"
    capsys.readouterr()
    assert main(["train", "--model", str(model_path), "--data", str(data_path),
                 "--out", str(tmp_path / "trained.bin"), "--log",
                 str(log_path), "--c", "1.0", "--max-iters", "10",
                 "--eta", "1e-3"]) == 0
    assert "accepted learning rate 0.00025" in capsys.readouterr().err
    objectives = [float(line.split("\t")[1])
                  for line in log_path.read_text().strip().split("\n")]
    assert len(objectives) == 10
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))


def test_train_overflowing_eta_is_halved(tmp_path, capsys):
    # a rate large enough to overflow the class solve is a rejected step,
    # not a traceback
    data_path, model_path = _small_model(tmp_path)
    assert main(["train", "--model", str(model_path), "--data", str(data_path),
                 "--out", str(tmp_path / "trained.bin"), "--c", "1.0",
                 "--max-iters", "10", "--eta", "1"]) == 0
    assert "accepted learning rate" in capsys.readouterr().err


def test_eval_malformed_model_header_is_exit_one(tmp_path, capsys):
    model_path = helpers.saved_with_header(
        tmp_path / "model.bin", helpers.setting("anchor_count", value="abc"))
    data_path = tmp_path / "data.tsv"
    save_dataset(helpers.toy_dataset(), data_path)
    assert main(["eval", "--model", str(model_path), "--data", str(data_path),
                 "--out", str(tmp_path / "report.json")]) == 1
    assert "anchor_count" in capsys.readouterr().err


def test_eval_without_head_is_input_error(tmp_path, capsys):
    data_path = tmp_path / "data.tsv"
    model_path = tmp_path / "model.bin"
    assert main(["gen-data", "--out", str(data_path), "--n", "20", "--d", "3",
                 "--k", "2", "--seed", "7"]) == 0
    assert main(["build-dmn", "--data", str(data_path), "--out",
                 str(model_path), "--anchors", "8", "--seed", "7"]) == 0
    report_path = tmp_path / "report.json"
    assert main(["eval", "--model", str(model_path), "--data", str(data_path),
                 "--out", str(report_path)]) == 1
    assert not report_path.exists()
    capsys.readouterr()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    out_a = tmp_path / "a.tsv"
    out_b = tmp_path / "b.tsv"
    config_path.write_text(json.dumps({"n": 30, "d": 3, "k": 2, "seed": 1}))

    assert main(["gen-data", "--config", str(config_path), "--out",
                 str(out_a)]) == 0
    assert load_dataset(out_a).num_samples == 30

    # an explicit flag overrides the config value
    assert main(["gen-data", "--config", str(config_path), "--out",
                 str(out_b), "--n", "22"]) == 0
    assert load_dataset(out_b).num_samples == 22
    capsys.readouterr()


def test_config_unknown_key(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"samples": 30}))
    assert main(["gen-data", "--config", str(config_path), "--out",
                 str(tmp_path / "x.tsv")]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_config_invalid_json(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text("{not json")
    assert main(["gen-data", "--config", str(config_path), "--out",
                 str(tmp_path / "x.tsv")]) == 1
    config_path.write_bytes(b'{"n": "\xff"}')
    assert main(["gen-data", "--config", str(config_path), "--out",
                 str(tmp_path / "x.tsv")]) == 1
    capsys.readouterr()


def test_build_rejects_malformed_text_inputs(tmp_path, capsys):
    data_path = tmp_path / "data.tsv"
    assert main(["gen-data", "--out", str(data_path), "--n", "20", "--d", "3",
                 "--k", "2", "--seed", "7"]) == 0
    arch_path = tmp_path / "arch.json"
    arch_path.write_text(json.dumps({
        "input_kernels": [{"kind": "polynomial", "degree": "two"}],
        "layers": [{"width": 1, "activation": "exp"}]}))
    assert main(["build-dmn", "--data", str(data_path), "--out",
                 str(tmp_path / "m.bin"), "--anchors", "8",
                 "--arch", str(arch_path)]) == 1
    assert "degree" in capsys.readouterr().err
    data_path.write_bytes(b"\xff" + data_path.read_bytes())
    assert main(["build-dmn", "--data", str(data_path), "--out",
                 str(tmp_path / "m.bin"), "--anchors", "8"]) == 1
    assert "UTF-8" in capsys.readouterr().err


def test_gen_data_invalid_noise(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path / "x.tsv"),
                 "--noise", "0.9"]) == 1
    capsys.readouterr()


def test_build_more_anchors_than_samples(tmp_path, capsys):
    data_path = tmp_path / "data.tsv"
    assert main(["gen-data", "--out", str(data_path), "--n", "10", "--d", "3",
                 "--k", "2", "--seed", "2"]) == 0
    assert main(["build-dmn", "--data", str(data_path), "--out",
                 str(tmp_path / "m.bin"), "--anchors", "50"]) == 1
    capsys.readouterr()


def test_gradcheck_command(tmp_path, capsys):
    out = tmp_path / "table.tsv"
    assert main(["gradcheck", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("coordinate\t")
    assert len(lines) > 100
    assert all(line.endswith("ok") for line in lines[1:])
    capsys.readouterr()


def test_prop1_check_command(capsys):
    assert main(["prop1-check", "--anchors", "24", "--d", "4",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    # 4 input kernels + 8 hidden units + 1 output unit
    assert len(lines) == 13
    assert all(float(line.split("\t")[2]) <= 1e-6 for line in lines)


def test_prop1_check_tight_tolerance_fails_numerically(capsys):
    assert main(["prop1-check", "--anchors", "16", "--d", "3", "--seed", "1",
                 "--tol", "1e-18"]) == 2
    assert "numeric error" in capsys.readouterr().err


def test_prop1_check_bad_scale(capsys):
    assert main(["prop1-check", "--scale", "-1"]) == 1
    capsys.readouterr()


def test_bench_command_writes_reports(tmp_path, capsys):
    prefix = tmp_path / "bench"
    assert main(["bench", "--out", str(prefix), "--sizes", "4,8",
                 "--anchors", "10", "--d", "3", "--classes", "2",
                 "--seed", "4"]) == 0
    tsv = (tmp_path / "bench.tsv").read_text()
    obj = json.loads((tmp_path / "bench.json").read_text())
    assert len(tsv.strip().split("\n")) == 3 + 4  # header + 2 sizes x 2 rows
    assert len(obj["rows"]) == 4
    capsys.readouterr()


def test_bench_rejects_fractional_sizes(tmp_path, capsys):
    prefix = tmp_path / "bench"
    assert main(["bench", "--out", str(prefix), "--sizes", "4,1.5",
                 "--anchors", "10", "--d", "3"]) == 1
    assert "must hold integers" in capsys.readouterr().err
    assert not (tmp_path / "bench.tsv").exists()


def test_missing_dataset_file_is_exit_one(tmp_path, capsys):
    assert main(["build-dmn", "--data", str(tmp_path / "nope.tsv"),
                 "--out", str(tmp_path / "m.bin")]) == 1
    capsys.readouterr()


def test_seeded_commands_are_reproducible(tmp_path, capsys):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    for out in (a, b):
        assert main(["gen-data", "--out", str(out), "--n", "15", "--d", "3",
                     "--k", "2", "--seed", "11"]) == 0
    assert a.read_bytes() == b.read_bytes()
    ma = tmp_path / "a.bin"
    mb = tmp_path / "b.bin"
    for out in (ma, mb):
        assert main(["build-dmn", "--data", str(a), "--out", str(out),
                     "--anchors", "8", "--seed", "11"]) == 0
    assert ma.read_bytes() == mb.read_bytes()
    capsys.readouterr()
