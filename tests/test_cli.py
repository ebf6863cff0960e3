"""Command-line driver: exit codes, artifacts, option precedence."""

import json

import numpy as np
import pytest

import helpers
from dmapnet import (default_input_kernels, load_dataset, load_model,
                     save_dataset)
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
    # at 2e-3 the objective goes uphill on this problem; the loop backs up
    # and halves the rate twice, and the written log is non-increasing
    data_path, model_path = _small_model(tmp_path)
    log_path = tmp_path / "log.tsv"
    capsys.readouterr()
    assert main(["train", "--model", str(model_path), "--data", str(data_path),
                 "--out", str(tmp_path / "trained.bin"), "--log",
                 str(log_path), "--c", "1.0", "--max-iters", "10",
                 "--eta", "2e-3"]) == 0
    assert "accepted learning rate 0.0005\n" in capsys.readouterr().err
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


def test_train_refuses_an_infinite_trade_off_before_cross_validating(
        tmp_path, capsys):
    # nor does it announce a fixed trade-off it then refuses
    data_path, model_path = _small_model(tmp_path)
    for option in (["--cv-grid", "1,inf"], ["--c", "inf"]):
        capsys.readouterr()
        assert main(["train", "--model", str(model_path), "--data", str(data_path),
                     "--out", str(tmp_path / "trained.bin"), "--max-iters", "2",
                     *option]) == 1
        err = capsys.readouterr().err
        assert "error: trade-offs must be positive and finite" in err
        assert "cross-validated" not in err
        assert "using fixed trade-off" not in err


@pytest.mark.parametrize("option, message", [
    (["--max-iters", "0"], "max_iters must be an integer >= 1"),
    (["--tol", "nan"], "convergence_tol must be finite and >= 0"),
    (["--tol", "-1"], "convergence_tol must be finite and >= 0"),
    (["--tol", "inf"], "convergence_tol must be finite and >= 0"),
])
def test_train_refuses_its_configuration_before_cross_validating(
        tmp_path, capsys, option, message):
    data_path, model_path = _small_model(tmp_path)
    capsys.readouterr()
    assert main(["train", "--model", str(model_path), "--data", str(data_path),
                 "--out", str(tmp_path / "trained.bin"), *option]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "cross-validated" not in err
    assert not (tmp_path / "trained.bin").exists()


_SPECIAL_VALUES = ("nan", "inf", "-inf", "0", "-1")
_POSITIVE_FINITE = set(_SPECIAL_VALUES)

# (command, option) -> the special values the option's rule refuses
_SPECIAL_REFUSALS = {
    ("gradcheck", "step"): _POSITIVE_FINITE,
    ("gradcheck", "tol"): _POSITIVE_FINITE,
    ("prop1-check", "scale"): _POSITIVE_FINITE,
    ("prop1-check", "tol"): _POSITIVE_FINITE,
    ("train", "eta"): {"nan", "inf", "-inf", "-1"},  # finite and >= 0
    ("train", "tol"): {"nan", "inf", "-inf", "-1"},  # finite and >= 0
    ("train", "c"): _POSITIVE_FINITE,
    ("train", "cv-grid"): _POSITIVE_FINITE,
    ("build-dmn", "clip-ratio"): {"nan", "inf", "-inf", "-1"},  # finite and >= 0
    ("build-dmn", "gamma"): _POSITIVE_FINITE,
    ("build-dmn", "offset"): {"nan", "inf", "-inf", "-1"},  # finite and >= 0
    ("prop1-check", "clip-ratio"): {"nan", "inf", "-inf", "-1"},
    ("bench", "clip-ratio"): {"nan", "inf", "-inf", "-1"},
}


def test_numeric_options_take_special_values(tmp_path, capsys):
    # a value an option refuses exits 1 with an error line; any other value
    # runs and exits 0 or 2; nothing escapes main
    data_path, model_path = _small_model(tmp_path)
    runs = {
        "gradcheck": ["--out", str(tmp_path / "gradcheck.tsv")],
        "prop1-check": ["--anchors", "6", "--d", "3"],
        "train": ["--model", str(model_path), "--data", str(data_path),
                  "--out", str(tmp_path / "trained.bin"), "--max-iters", "2"],
        "build-dmn": ["--data", str(data_path), "--out", str(tmp_path / "built.bin"),
                      "--anchors", "14"],
        "bench": ["--out", str(tmp_path / "bench"), "--anchors", "6", "--d", "3",
                  "--sizes", "5", "--reps", "5"],
    }
    for (command, option), refused in _SPECIAL_REFUSALS.items():
        # --c skips cross-validation and so --cv-grid; eta and tol run
        # with --c 1 to stay fast
        fixed_c = (["--c", "1"] if command == "train"
                   and option not in ("c", "cv-grid") else [])
        for value in _SPECIAL_VALUES:
            capsys.readouterr()
            argv = [command, *runs[command], *fixed_c, f"--{option}={value}"]
            try:
                code = main(argv)
            except Exception as err:  # noqa: BLE001 - report the escaping input
                pytest.fail(f"{type(err).__name__} escaped for {argv}: {err}")
            err = capsys.readouterr().err
            if value in refused:
                assert code == 1 and "error:" in err, (argv, code, err)
            else:
                assert code in (0, 2), (argv, code, err)


def test_eval_malformed_model_header_is_exit_one(tmp_path, capsys):
    model_path = helpers.saved_with_header(
        tmp_path / "model.bin", helpers.setting("anchor_count", value="abc"))
    data_path = tmp_path / "data.tsv"
    save_dataset(helpers.toy_dataset(), data_path)
    assert main(["eval", "--model", str(model_path), "--data", str(data_path),
                 "--out", str(tmp_path / "report.json")]) == 1
    assert "anchor_count" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (helpers.setting("arch", "input_kernels", 1, value=None), "model header"),
    (helpers.setting("units", 1, 0, "width", value=2**70),
     "truncated inside the matrix payload"),
], ids=["input-unit-without-kernel", "width-past-the-payload"])
def test_eval_header_escapes_are_exit_one(tmp_path, capsys, edit, message):
    # neither edit may reach scoring or a reshape unchecked
    model_path = helpers.saved_with_header(tmp_path / "model.bin", edit)
    data_path = tmp_path / "data.tsv"
    save_dataset(helpers.toy_dataset(), data_path)
    assert main(["eval", "--model", str(model_path), "--data", str(data_path),
                 "--out", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_eval_inconsistent_model_shapes_is_exit_one(tmp_path, capsys):
    # a checksum-valid file whose layer-2 unit 1 claims one column less, so
    # every later matrix is read from the wrong offset
    def narrower(header):
        header["units"][1][0]["width"] -= 1
    model_path = helpers.saved_with_header(tmp_path / "model.bin", narrower)
    data_path = tmp_path / "data.tsv"
    save_dataset(helpers.toy_dataset(), data_path)
    assert main(["eval", "--model", str(model_path), "--data", str(data_path),
                 "--out", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: inconsistent model file")
    assert "Traceback" not in err


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
    arch_path.write_text(json.dumps({
        "input_kernels": [{"kind": "linear"}],
        "layers": [{"width": 1, "activation": "exp", "weights": [[]]}]}))
    assert main(["build-dmn", "--data", str(data_path), "--out",
                 str(tmp_path / "m.bin"), "--anchors", "8",
                 "--arch", str(arch_path)]) == 1
    assert "error: weights must have shape" in capsys.readouterr().err
    data_path.write_bytes(b"\xff" + data_path.read_bytes())
    assert main(["build-dmn", "--data", str(data_path), "--out",
                 str(tmp_path / "m.bin"), "--anchors", "8"]) == 1
    assert "UTF-8" in capsys.readouterr().err


def test_gen_data_invalid_noise(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path / "x.tsv"),
                 "--noise", "0.9"]) == 1
    capsys.readouterr()


def _assert_gen_data_config_is_exit_one(tmp_path, capsys, config):
    """gen-data with ``config`` exits 1 with an error line and no output."""
    config_path = tmp_path / "config.json"
    config_path.write_text(config)
    out = tmp_path / "x.tsv"
    assert main(["gen-data", "--config", str(config_path), "--out",
                 str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    '{"n": Infinity}',
    '{"n": 1180591620717411303424}',
    '{"k": 1000000000000000}',
], ids=["infinite-n", "n-past-numpy-dimensions", "k-past-the-address-space"])
def test_gen_data_unrepresentable_sizes_are_exit_one(tmp_path, capsys, config):
    # each request lies beyond the address space, so numpy refuses it
    # before allocating anything
    _assert_gen_data_config_is_exit_one(tmp_path, capsys, config)


@pytest.mark.parametrize("config", [
    '{"n": 30.9}',
    '{"seed": 1.5}',
    '{"seed": true}',
    '{"noise": false}',
    '{"out": null}',
], ids=["fractional-n", "fractional-seed", "boolean-seed", "boolean-noise",
        "null-out"])
def test_gen_data_config_values_are_not_coerced(tmp_path, capsys, config):
    # the flags reject "30.9" for an integer and "true" for any option, and
    # give no option null, so the config must not truncate or coerce them
    # either, even where a flag overrides the value
    _assert_gen_data_config_is_exit_one(tmp_path, capsys, config)


def test_train_config_null_log_is_exit_one(tmp_path, monkeypatch, capsys):
    # str(None) would name the objective log "None"
    data_path, model_path = _small_model(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text('{"log": null}')
    out = tmp_path / "trained.bin"
    capsys.readouterr()
    assert main(["train", "--config", "config.json", "--model",
                 str(model_path), "--data", str(data_path), "--out", str(out),
                 "--c", "1", "--max-iters", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()
    assert not (tmp_path / "None").exists()


def test_build_more_anchors_than_samples(tmp_path, capsys):
    data_path = tmp_path / "data.tsv"
    assert main(["gen-data", "--out", str(data_path), "--n", "10", "--d", "3",
                 "--k", "2", "--seed", "2"]) == 0
    assert main(["build-dmn", "--data", str(data_path), "--out",
                 str(tmp_path / "m.bin"), "--anchors", "50"]) == 1
    capsys.readouterr()
    for count in ("-3", "0", "1"):
        assert main(["build-dmn", "--data", str(data_path), "--out",
                     str(tmp_path / "m.bin"), "--anchors", count]) == 1
        assert "at least 2" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


def test_build_dmn_log_lines(tmp_path, capsys):
    # one line per unit, bottom-up, read from the built model's clip reports:
    # 4 input kernels + 8 hidden + 1 output
    data_path, model_path = _small_model(tmp_path)
    lines = capsys.readouterr().err.splitlines()[1:]
    model, _ = load_model(model_path)
    reports = [(l, p, unit.clip_report)
               for l, units in enumerate(model.layers, start=1)
               for p, unit in enumerate(units, start=1)]
    assert len(reports) == 13
    assert lines == [f"layer {l} unit {p}: retained {r.retained}, discarded "
                     f"{r.discarded} (max |eig| {r.discarded_max_abs:.3e})"
                     for l, p, r in reports] + [
        f"wrote model (14 anchors, 3 layers) to {model_path}"]


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


def test_prop1_check_rejects_too_few_anchors(capsys):
    for count in ("-3", "1"):
        assert main(["prop1-check", "--anchors", count, "--d", "3"]) == 1
        assert "at least 2" in capsys.readouterr().err


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


def test_bench_rejects_zero_classes(tmp_path, capsys):
    prefix = tmp_path / "bench"
    assert main(["bench", "--out", str(prefix), "--sizes", "4", "--classes", "0",
                 "--anchors", "10", "--d", "3"]) == 1
    assert "error: at least one class is required" in capsys.readouterr().err
    assert not (tmp_path / "bench.tsv").exists()


def test_bench_rejects_too_few_anchors(tmp_path, capsys):
    prefix = tmp_path / "bench"
    for count in ("-3", "1"):
        assert main(["bench", "--out", str(prefix), "--sizes", "4",
                     "--anchors", count, "--d", "3"]) == 1
        assert "at least 2" in capsys.readouterr().err
    assert not (tmp_path / "bench.tsv").exists()


@pytest.mark.parametrize("args", [
    ["prop1-check", "--anchors", str(10**15)],
    ["prop1-check", "--d", str(10**15)],
    ["bench", "--anchors", str(10**15)],
    ["bench", "--sizes", str(10**15), "--anchors", "10", "--d", "3"],
    ["bench", "--classes", str(10**15), "--anchors", "10", "--d", "3"],
], ids=["prop1-anchors", "prop1-d", "bench-anchors", "bench-sizes",
        "bench-classes"])
def test_oversize_draws_are_exit_one(tmp_path, capsys, args):
    # numpy refuses each array before allocating it
    if args[0] == "bench":
        args = args + ["--out", str(tmp_path / "bench")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot draw ")
    assert "Traceback" not in err
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


def test_build_default_network_is_the_architecture_readers(tmp_path, capsys):
    # the default layers read from --arch without weights draw the same
    # weights, so the two model files agree byte for byte
    data_path, model_path = _small_model(tmp_path)
    arch_path = tmp_path / "arch.json"
    arch_path.write_text(json.dumps({
        "input_kernels": [k.to_dict() for k in default_input_kernels()],
        "layers": [{"width": 8, "activation": "tanh"},
                   {"width": 1, "activation": "exp"}]}))
    read_path = tmp_path / "read.bin"
    assert main(["build-dmn", "--data", str(data_path), "--out", str(read_path),
                 "--arch", str(arch_path), "--anchors", "14", "--seed", "3"]) == 0
    assert read_path.read_bytes() == model_path.read_bytes()
    capsys.readouterr()


# values a fuzzed config field is replaced with; no count lies between
# 10**4 and 10**15, so no case can really allocate a large array
_CONFIG_FUZZ_VALUES = (None, True, False, -1, 0, 1, 2, 3, 8, 0.5, 1.5, 1e308,
                       float("inf"), float("nan"), 2**63, 2**70, 10**15, "x",
                       "", [], [1, 2], {}, {"n": 1})

_CONFIG_FUZZ_BASES = {
    "gen-data": {"out": "gen.tsv", "n": 12, "d": 3, "k": 2, "clusters": 1,
                 "noise": 0.1, "seed": 1},
    "build-dmn": {"data": "data.tsv", "out": "model.bin", "anchors": 6,
                  "hidden-width": 3, "clip-ratio": 1e-10, "gamma": 1.0,
                  "degree": 2, "offset": 1.0, "seed": 1},
    "eval": {"model": "trained.bin", "data": "data.tsv", "out": "report.json"},
    "prop1-check": {"anchors": 6, "d": 3, "scale": 0.05, "seed": 1,
                    "clip-ratio": 1e-10, "tol": 1e-6},
    "train": {"model": "base.bin", "data": "data.tsv", "out": "retrained.bin",
              "log": "train.log", "eta": 1e-6, "max-iters": 2, "tol": 1e-6,
              "c": 1.0, "cv-folds": 3, "cv-grid": "0.01,0.1,1,10", "seed": 1},
}

# bench is left out: a large "reps" is a long run, not a fault.  train runs
# with --max-iters 2 on the command line for the same reason; a fuzzed
# max-iters in its config is still validated
_CONFIG_FUZZ_COMMANDS = (["build-dmn", "gen-data"] * 300
                         + ["eval", "prop1-check"] * 150 + ["train"] * 150)
_CONFIG_FUZZ_FLAGS = {"train": ["--max-iters", "2"]}


def test_cli_config_survives_seeded_fuzz(tmp_path, monkeypatch, capsys):
    # any one-field edit of a valid config ends in exit 0, 1 or 2, never in
    # a traceback; the cases run in tmp_path, since an edited "out" such as
    # 5 is a legal file name
    monkeypatch.chdir(tmp_path)
    assert main(["gen-data", "--out", "data.tsv", "--n", "12", "--d", "3",
                 "--k", "2", "--seed", "5"]) == 0
    assert main(["build-dmn", "--data", "data.tsv", "--out", "base.bin",
                 "--anchors", "6", "--seed", "5"]) == 0
    assert main(["train", "--model", "base.bin", "--data", "data.tsv",
                 "--out", "trained.bin", "--max-iters", "2", "--c", "1"]) == 0
    rng = np.random.default_rng(59)
    codes = {}
    for command in _CONFIG_FUZZ_COMMANDS:
        config = json.loads(json.dumps(_CONFIG_FUZZ_BASES[command]))
        helpers.one_field_edit(rng, _CONFIG_FUZZ_VALUES)(config)
        (tmp_path / "config.json").write_text(json.dumps(config))
        try:
            code = main([command, "--config", "config.json",
                         *_CONFIG_FUZZ_FLAGS.get(command, [])])
        except Exception as err:  # noqa: BLE001 - report the escaping input
            pytest.fail(f"{type(err).__name__} escaped for {command} "
                        f"{json.dumps(config)}: {err}")
        assert code in (0, 1, 2), f"{command} {json.dumps(config)}"
        codes.setdefault(command, set()).add(code)
        capsys.readouterr()
    assert all({0, 1} <= found for found in codes.values()), codes
