"""Explicit map models: forward passes, classification, binary container."""

import copy
import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import helpers
from dmapnet import (AnchorSet, ClassifierHead, ConfigError, DknArchitecture,
                     DmnModel, DmnUnit, FormatError, InputError, KernelSpec,
                     LayerSpec, NumericError, NumericRangeError, VersionError,
                     build_dmn, classify, default_architecture,
                     default_input_kernels, forward_batch, load_model,
                     random_mixing_weights, save_dataset, save_model,
                     score_batch)
from dmapnet import kernels
from dmapnet import model as model_module
from dmapnet.cli import main
from dmapnet.model import (MODEL_MAGIC, MODEL_VERSION, _model_matrices,
                           input_kernel_rows, walk)


def test_forward_batch_shapes_and_maps():
    model = helpers.toy_model(seed=1, n_anchors=6, d=3)
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 0.5, size=(5, 3))
    final, maps = forward_batch(model, X)
    assert final.shape == (5, model.final_width)
    for l, units in enumerate(model.layers):
        assert len(maps[l]) == len(units)
        for p, unit in enumerate(units):
            assert maps[l][p].shape == (5, unit.width)


def test_dmn_forward_matches_batch_row():
    # a one-row batch goes through gemv and a full batch through gemm,
    # which sum in different orders, so a map entry that comes from
    # cancellation can differ elementwise far beyond rounding; relative to
    # the row's largest |entry| the two agree to rounding on every seed
    for seed in range(1, 51):
        model = helpers.toy_model(seed=seed)
        X = np.random.default_rng(seed + 1).uniform(0.0, 0.5, size=(4, 3))
        _, batch_maps = forward_batch(model, X)
        for i in range(4):
            _, maps = forward_batch(model, X[i:i + 1])
            for one, batch in zip(sum(maps, []), sum(batch_maps, [])):
                row = batch[i]
                gap = np.max(np.abs(one[0] - row))
                assert gap <= 1e-11 * np.max(np.abs(row)), (seed, i)


def test_walk_leaves_the_callers_error_state_alone():
    # numpy's error state is a context variable, so a walk suspended inside
    # np.errstate would have its caller ignore overflow
    model = helpers.toy_model(seed=5)
    X = np.random.default_rng(6).uniform(0.0, 0.5, size=(3, 3))
    before = np.geterr()
    steps = 0
    for _ in walk(model, input_kernel_rows(model, X)):
        assert np.geterr() == before
        steps += 1
    assert steps == sum(model.arch.widths)


def test_forward_rejects_dimension_mismatch():
    model = helpers.toy_model(seed=9, d=3)
    with pytest.raises(InputError):
        forward_batch(model, np.ones((2, 4)))


def test_forward_names_nonfinite_unit():
    model = helpers.toy_model(seed=10)
    model.layers[1][1].projection = model.layers[1][1].projection.copy()
    model.layers[1][1].projection[0, 0] = np.inf
    X = np.random.default_rng(11).uniform(0.0, 0.5, size=(3, 3))
    with pytest.raises(NumericRangeError, match="layer 2, unit 2"):
        forward_batch(model, X)


def test_forward_batch_holds_one_lower_product_at_a_time():
    # each activation goes once its map exists, so beyond the maps it
    # returns a forward pass holds at most one layer's activations, one
    # lower unit's product with its anchors and one weighted copy of it
    rng = np.random.default_rng(27)
    model = build_dmn(default_architecture(default_input_kernels(), seed=27),
                      AnchorSet(samples=rng.random((300, 10))))
    X = rng.random((300, 10))
    gram = 8 * X.shape[0] * model.anchor_count
    tracemalloc.start()
    try:
        final, maps = forward_batch(model, X)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert final is maps[-1][0]
    assert peak < 14 * gram
    assert held < 8 * gram
    assert held >= sum(phi.nbytes for layer in maps for phi in layer)


def _relative_gap(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_row_blocks_give_one_blocks_maps_and_scores(monkeypatch):
    # a batch of several row blocks sums each row through the same walk,
    # so only the products' summation order can differ from one block
    model, head, data = helpers.toy_problem(seed=70, n=20)
    X = data.features
    _, one_maps = forward_batch(model, X)
    one_scores = score_batch(model, head, X)
    monkeypatch.setattr(kernels, "WALK_BYTES", 3 * model.anchor_count * 8)
    assert len(kernels.walk_blocks(len(X), model.anchor_count)) == 7
    final, maps = forward_batch(model, X)
    assert final is maps[-1][0]
    for blocked, one in zip(sum(maps, []), sum(one_maps, []), strict=True):
        assert blocked.shape == one.shape
        assert _relative_gap(blocked, one) <= 1e-12
    assert _relative_gap(score_batch(model, head, X), one_scores) <= 1e-12


def test_score_batch_holds_one_block_beyond_its_scores(monkeypatch):
    # each row block's walk goes before the next block's starts; walking
    # the whole batch at once peaked at 99 block sizes here
    rng = np.random.default_rng(28)
    model = build_dmn(default_architecture(default_input_kernels(), seed=28),
                      AnchorSet(samples=rng.random((200, 10))))
    head = ClassifierHead.random(5, model.final_width, seed=28)
    block = 64 * model.anchor_count * 8
    monkeypatch.setattr(kernels, "WALK_BYTES", block)
    X = rng.random((8 * 64, 10))
    tracemalloc.start()
    try:
        scores = score_batch(model, head, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scores.shape == (len(X), 5)
    assert peak < 16 * block + scores.nbytes


def test_classify_sign_convention():
    model = helpers.toy_model(seed=12)
    width = model.final_width
    head = ClassifierHead(np.zeros((3, width)), np.ones(3))
    x = np.random.default_rng(13).uniform(0.0, 0.5, size=3)
    scores, labels = classify(model, head, x)
    assert (scores == 0.0).all()
    assert (labels == -1).all()  # zero score means absent
    head2 = ClassifierHead(np.vstack([np.ones((1, width)), -np.ones((1, width))]),
                           np.array([1.0, 1.0]))
    phi = forward_batch(model, x[None, :])[0][0]
    scores2, labels2 = classify(model, head2, x)
    npt.assert_allclose(scores2, [phi.sum(), -phi.sum()], rtol=1e-12)
    assert (labels2 == np.where(scores2 > 0, 1, -1)).all()


def test_score_batch_matches_classify():
    model, head, data = helpers.toy_problem(seed=14)
    scores = score_batch(model, head, data.features)
    for i in range(data.num_samples):
        si, _ = classify(model, head, data.features[i])
        npt.assert_allclose(scores[i], si, rtol=1e-12, atol=1e-15)


def test_two_unit_last_layer_is_refused_at_every_entry_point(tmp_path, capsys):
    # a network has one output unit: the architecture refuses a wider last
    # layer, whether it comes from code, an architecture file or a model file
    rng = np.random.default_rng(21)
    kernels = [KernelSpec("linear"), KernelSpec("rbf", gamma=0.7)]
    hidden = LayerSpec(width=3, activation="tanh",
                       weights=random_mixing_weights(3, 2, rng))
    wide = LayerSpec(width=2, activation="exp",
                     weights=random_mixing_weights(2, 3, rng))
    with pytest.raises(ConfigError, match="layer 3 .* exactly one unit, got 2"):
        DknArchitecture(input_kernels=kernels, layers=[hidden, wide])

    data, arch = tmp_path / "data.tsv", tmp_path / "arch.json"
    out = tmp_path / "model.bin"
    assert main(["gen-data", "--out", str(data), "--n", "12", "--d", "3",
                 "--k", "2", "--seed", "21"]) == 0
    arch.write_text(json.dumps({
        "input_kernels": [{"kind": "linear"}],
        "layers": [{"width": 3, "activation": "tanh"},
                   {"width": 2, "activation": "exp"}]}))
    capsys.readouterr()
    assert main(["build-dmn", "--data", str(data), "--out", str(out),
                 "--anchors", "6", "--arch", str(arch)]) == 1
    assert "exactly one unit" in capsys.readouterr().err
    assert not out.exists()

    # save_model refuses a model widened after construction
    model, head, _ = helpers.toy_problem(seed=21)
    model.arch.layers[-1] = wide
    model.layers[-1].append(model.layers[-1][0])
    with pytest.raises(ConfigError, match="exactly one unit"):
        save_model(model, head, out)
    assert not out.exists()

    # a checksum-valid two-output file: the header narrows layer 2 to two
    # units and widens layer 3 to two, so both layers' weights are read from
    # the nine nonnegative mixing weights the file holds
    def widen(header):
        layers, units = header["arch"]["layers"], header["units"]
        layers[0]["width"] = layers[1]["width"] = 2
        units[1].pop()
        units[2].append(units[2][0])
    helpers.saved_with_header(out, widen, seed=21)
    with pytest.raises(FormatError, match="exactly one unit"):
        load_model(out)


def test_head_validation():
    with pytest.raises(ConfigError):
        ClassifierHead(np.ones((2, 3)), np.array([1.0, -1.0]))
    with pytest.raises(ConfigError):
        ClassifierHead(np.ones((2, 3)), np.array([1.0]))
    with pytest.raises(ConfigError):
        ClassifierHead(np.full((1, 2), np.nan), np.array([1.0]))
    with pytest.raises(ConfigError, match="positive and finite"):
        ClassifierHead(np.ones((2, 3)), [np.inf, 1.0])
    head = ClassifierHead.random(2, 5, trade_off=2.0, seed=1)
    assert head.normals.shape == (2, 5)
    assert (head.trade_offs == 2.0).all()
    head = ClassifierHead.random(2, 5, trade_off=[1.0, 3.0], seed=1)
    assert head.trade_offs.tolist() == [1.0, 3.0]
    with pytest.raises(ConfigError, match="one trade-off per class"):
        ClassifierHead.random(3, 4, trade_off=[1.0, 2.0])
    # non-numbers and non-counts are refused as the numbers are, not by a
    # raw TypeError or ValueError
    for args, message in ((dict(scale="x"), "scale"),
                          (dict(num_classes=2.5), "num_classes"),
                          (dict(num_classes=-1), "num_classes"),
                          (dict(width="x"), "width")):
        with pytest.raises(ConfigError, match=message):
            ClassifierHead.random(**{"num_classes": 2, "width": 3, **args})
    with pytest.raises(ConfigError, match="trade-offs must be numbers"):
        ClassifierHead(np.ones((2, 3)), "x")
    # numpy refuses a head it cannot hold before allocating it
    with pytest.raises(ConfigError, match="cannot draw"):
        ClassifierHead.random(10**15, 3)


def test_save_load_round_trip_bitwise(tmp_path):
    model, head, _ = helpers.toy_problem(seed=16)
    path = tmp_path / "model.bin"
    save_model(model, head, path)
    loaded, loaded_head = load_model(path)

    assert (loaded.anchor_samples == model.anchor_samples).all()
    assert loaded.anchor_ids == model.anchor_ids
    for l in range(len(model.layers)):
        for p in range(len(model.layers[l])):
            assert (loaded.layers[l][p].anchors == model.layers[l][p].anchors).all()
            assert (loaded.layers[l][p].projection
                    == model.layers[l][p].projection).all()
            assert loaded.layers[l][p].clip_report == model.layers[l][p].clip_report
    assert loaded.arch.input_kernels == model.arch.input_kernels
    for a, b in zip(loaded.arch.layers, model.arch.layers):
        assert a.activation == b.activation
        assert (a.weights == b.weights).all()
    # activations, kernels and shapes live in the architecture only
    assert [f.name for f in dataclasses.fields(DmnUnit)] == [
        "anchors", "projection", "clip_report"]
    raw = path.read_bytes()
    at = len(MODEL_MAGIC) + 4
    size = int.from_bytes(raw[at:at + 4], "little")
    header = json.loads(raw[at + 4:at + 4 + size])
    assert {frozenset(unit) for units in header["units"] for unit in units} == {
        frozenset({"width", "clip_report"})}
    assert (loaded_head.normals == head.normals).all()
    assert (loaded_head.trade_offs == head.trade_offs).all()
    for mat in _model_matrices(loaded, loaded_head):
        assert mat.flags.aligned and mat.flags.c_contiguous
        assert mat.flags.writeable
    # every matrix, the head's trade-offs too, is a view of the file buffer
    assert not loaded_head.trade_offs.flags.owndata

    # a second save of the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.bin"
    save_model(loaded, loaded_head, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_unit_matrices_replaced_by_lists_follow_the_model_rule(tmp_path):
    # the rule reads a unit's shapes from its converted matrices, so a list
    # saves as the array it holds, and a list of the wrong shape is refused
    model, head, _ = helpers.toy_problem(seed=71)
    unit = model.layers[1][0]
    projection = unit.projection
    unit.projection = projection.tolist()
    path = tmp_path / "model.bin"
    save_model(model, head, path)
    loaded, _ = load_model(path)
    assert (loaded.layers[1][0].projection == projection).all()
    unit.projection = projection[:, :-1].tolist()
    with pytest.raises(ConfigError, match="layer 2, unit 1"):
        save_model(model, head, tmp_path / "wrong.bin")
    unit.projection = projection[0].tolist()
    with pytest.raises(ConfigError, match="layer 2, unit 1: anchors and "
                                          "projection must be 2-D"):
        save_model(model, head, tmp_path / "wrong.bin")


def test_build_and_load_read_each_unit_matrix_for_finiteness_once(
        tmp_path, monkeypatch):
    model, head, _ = helpers.toy_problem(seed=72)
    path = tmp_path / "model.bin"
    save_model(model, head, path)
    checked = []

    def counted(value, what, error):
        checked.append(what)
        return kernels._floats(value, what, error)

    monkeypatch.setattr(model_module, "_floats", counted)
    for make in (lambda: load_model(path), lambda: helpers.toy_model(seed=72)):
        checked.clear()
        make()
        units = [what for what in checked
                 if what.endswith(("anchors", "projection"))]
        assert len(units) == len(set(units)) == 2 * sum(model.arch.widths)


def test_save_load_without_head(tmp_path):
    model = helpers.toy_model(seed=17)
    path = tmp_path / "model.bin"
    save_model(model, None, path)
    loaded, head = load_model(path)
    assert head is None
    final_a, _ = forward_batch(model, model.anchor_samples)
    final_b, _ = forward_batch(loaded, loaded.anchor_samples)
    assert (final_a == final_b).all()


def test_load_rejects_corruption(tmp_path):
    model = helpers.toy_model(seed=18)
    path = tmp_path / "model.bin"
    save_model(model, None, path)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.bin"

    bad.write_bytes(b"NOTMODEL" + bytes(raw[8:]))
    with pytest.raises(FormatError, match="magic"):
        load_model(bad)

    bad.write_bytes(bytes(raw[:10]))
    with pytest.raises(FormatError, match="too short"):
        load_model(bad)

    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0xFF
    bad.write_bytes(bytes(flipped))
    with pytest.raises(FormatError, match="checksum"):
        load_model(bad)

    with pytest.raises((FormatError, OSError)):
        load_model(tmp_path / "missing.bin")


def _saved_with_u32(tmp_path, seed, at, value):
    """A model file whose little-endian uint32 at offset ``at`` reads
    ``value``, checksum fixed."""
    model = helpers.toy_model(seed=seed)
    path = tmp_path / "model.bin"
    save_model(model, None, path)
    body = bytearray(path.read_bytes()[:-32])
    body[at:at + 4] = value.to_bytes(4, "little")
    blob = bytes(body)
    path.write_bytes(blob + hashlib.sha256(blob).digest())
    return path


def test_load_rejects_payload_shorter_than_the_shapes(tmp_path):
    path = helpers.saved_with_header(
        tmp_path / "model.bin",
        helpers.setting("head", "classes", value=50), seed=24)
    with pytest.raises(FormatError, match="truncated inside the matrix payload"):
        load_model(path)


def test_load_rejects_header_length_past_the_body(tmp_path):
    path = _saved_with_u32(tmp_path, 25, len(MODEL_MAGIC) + 4, 1 << 20)
    assert path.stat().st_size < 1 << 20
    with pytest.raises(FormatError, match="truncated inside the header"):
        load_model(path)


def test_load_rejects_newer_version(tmp_path):
    # version 1 files stored per-unit anchors in the concatenated lower map
    # space, version 2 files a second copy of every unit's activation, kernel
    # and shapes; no reader for either is kept
    for version in (MODEL_VERSION + 1, 1, 2):
        path = _saved_with_u32(tmp_path, 19, len(MODEL_MAGIC), version)
        with pytest.raises(VersionError, match=f"version {version} "):
            load_model(path)


def test_load_rejects_version_zero(tmp_path):
    path = _saved_with_u32(tmp_path, 22, len(MODEL_MAGIC), 0)
    with pytest.raises(FormatError, match="version 0"):
        load_model(path)


def _huge_head_on_a_zero_width_map(header):
    # counts that pass every check but describe an empty matrix with a
    # dimension numpy cannot hold
    header["units"][-1][0]["width"] = 0
    header["units"][-1][0]["clip_report"].update(retained=0, discarded=6)
    header["head"]["classes"] = 2**70


def _no_input_units(header):
    # the layer counts still agree, but layer 2's weights have no columns
    header["arch"]["input_kernels"] = []
    header["units"][0] = []


def _one_more_discarded(header):
    header["units"][0][0]["clip_report"]["discarded"] += 1


@pytest.mark.parametrize("edit, message", [
    (helpers.setting("anchor_count", value="abc"), "model header"),
    (helpers.setting("arch", "layers", 0, "width", value="x"), "model header"),
    (helpers.setting("units", value=5), "model header"),
    (helpers.setting("units", 1, 0, "width", value=-1), "model header"),
    (helpers.setting("units", 1, 0, "width", value="x"), "model header"),
    (helpers.setting("head", "classes", value="two"), "model header"),
    (helpers.setting("arch", "input_kernels", 1, value=None), "model header"),
    (helpers.setting("units", 1, 0, "width", value=2**70),
     "truncated inside the matrix payload"),
    (_huge_head_on_a_zero_width_map, "model header"),
    (helpers.setting("anchor_ids", value=["a"] * 6), "anchor_ids"),
    (helpers.setting("anchor_ids", value=[[1], [2], {}, None, 1.5, True]),
     "anchor_ids"),
    (helpers.setting("units", 1, 0, "clip_report", value=None), "model header"),
    (helpers.setting("units", 1, 0, "clip_report", "retained", value=999),
     "layer 2, unit 1: clip report keeps 999"),
    (_one_more_discarded, "layer 1, unit 1: clip report"),
    (_no_input_units, "inconsistent model file: weights must have shape"),
], ids=["anchor-count", "layer-width", "units", "negative-shape",
        "non-integer-width", "head-classes", "input-unit-without-kernel",
        "width-past-the-payload", "huge-empty-head", "duplicate-anchor-ids",
        "unhashable-anchor-ids", "null-clip-report", "clip-report-unlike-width",
        "clip-report-unlike-anchor-count", "no-input-units"])
def test_load_rejects_malformed_header_fields(tmp_path, edit, message):
    path = helpers.saved_with_header(tmp_path / "model.bin", edit, seed=23)
    with pytest.raises(FormatError, match=message):
        load_model(path)


# values a fuzzed header field is replaced with
_FUZZ_VALUES = (None, True, -1, 0, 1, 3, 2**70, 1.5, "x", [], {}, [2**70, 0],
                [0, 2**70], [6, 0], [6, 6], {"kind": "rbf"})


def test_load_survives_seeded_header_fuzz(tmp_path):
    # a checksum-valid file with any one header field replaced either loads
    # and scores or fails with a typed error
    rng = np.random.default_rng(31)
    X = rng.uniform(0.0, 0.5, size=(4, 3))
    outcomes = set()
    for _ in range(1000):
        path = helpers.saved_with_header(
            tmp_path / "model.bin", helpers.one_field_edit(rng, _FUZZ_VALUES),
            seed=31)
        try:
            model, head = load_model(path)
            if head is not None:
                score_batch(model, head, X)
        except (InputError, NumericError) as err:
            outcomes.add(type(err).__name__)
        else:
            outcomes.add("loaded")
    assert {"loaded", "FormatError"} <= outcomes


def _without_last_column(mat):
    return mat[:, :-1]


def _with_zero_column(mat):
    return np.hstack([mat, np.zeros((mat.shape[0], 1))])


def _rows_unlike_anchor_count(model):
    unit = model.layers[1][0]
    unit.anchors, unit.projection = unit.anchors[:-1], unit.projection[:-1]


def _clip_report_keeps_one_more(model):
    unit = model.layers[1][0]
    unit.clip_report = dataclasses.replace(
        unit.clip_report, retained=unit.clip_report.retained + 1)


def _nan_anchor_sample(model):
    model.anchor_samples[2, 1] = np.nan


def _with_entry(value):
    def change(mat):
        mat = mat.copy()
        mat[0, 0] = value
        return mat
    return change


def _nan_mixing_weight(model):
    model.arch.layers[0].weights[1, 0] = np.nan


def test_model_anchor_ids_follow_the_file_rule(tmp_path):
    # the ids a model holds are the ids its file can record, so a model
    # that saves is a model that loads
    model, _, _ = helpers.toy_problem(seed=32)
    for ids in (("a",) * 6, tuple(np.arange(6)), ("a", "b")):
        with pytest.raises(ConfigError, match="anchor_ids"):
            DmnModel(layers=model.layers, arch=model.arch,
                     anchor_samples=model.anchor_samples, anchor_ids=ids)
    mixed = DmnModel(layers=model.layers, arch=model.arch,
                     anchor_samples=model.anchor_samples,
                     anchor_ids=("a", 1, "1", 2, "x", -3))
    save_model(mixed, None, tmp_path / "m.bin")
    assert load_model(tmp_path / "m.bin")[0].anchor_ids == mixed.anchor_ids


@pytest.mark.parametrize("edit, where", [
    (helpers.replacing(1, 0, "anchors", _without_last_column), "layer 2, unit 1"),
    (helpers.replacing(1, 2, "anchors", _with_zero_column), "layer 2, unit 3"),
    (helpers.replacing(1, 1, "projection", _without_last_column), "layer 2, unit 2"),
    (helpers.replacing(0, 1, "anchors", _with_zero_column), "layer 1, unit 2"),
    (_rows_unlike_anchor_count, "layer 2, unit 1"),
    (helpers.replacing(2, 0, "anchors", _with_zero_column), "layer 3, unit 1"),
    (_clip_report_keeps_one_more,
     "layer 2, unit 1: clip report keeps 5 of 6 eigenvalues, drops 2; width 4"),
    (_nan_anchor_sample, "anchor samples must be finite"),
    (helpers.replacing(1, 2, "projection", _with_entry(np.nan)),
     "layer 2, unit 3: projection must be finite"),
    (helpers.replacing(0, 1, "anchors", _with_entry(np.inf)),
     "layer 1, unit 2: anchors must be finite"),
    (_nan_mixing_weight, "layer 2: mixing weights must be finite"),
], ids=["upper-anchors-lost-a-column", "upper-anchors-extra-column",
        "lower-width-changed", "input-anchors-wrong-width",
        "rows-unlike-anchor-count", "final-anchors-not-empty",
        "clip-report-unlike-width", "nan-anchor-sample", "nan-projection",
        "inf-anchor-map", "nan-mixing-weight"])
def test_cross_layer_shapes_are_checked(tmp_path, edit, where):
    model, _, _ = helpers.toy_problem(seed=30)
    edit(model)
    with pytest.raises(ConfigError, match=where):
        DmnModel(layers=model.layers, arch=model.arch,
                 anchor_samples=model.anchor_samples)
    # saving applies the rule loading does, so such a model is not written
    path = tmp_path / "model.bin"
    with pytest.raises(ConfigError, match=where):
        helpers.saved_with_model_edit(path, edit, seed=30)
    assert not path.exists()


def _nan_entry(rng, mat):
    mat = mat.copy()
    if mat.size:
        mat.flat[rng.integers(mat.size)] = np.nan
    return mat


# ways to change one matrix, each with the matrix and an rng
_MATRIX_CHANGES = {
    "negated": lambda rng, mat: -mat,
    "one entry NaN": _nan_entry,
    "transposed": lambda rng, mat: mat.T,
    "without last column": lambda rng, mat: mat[:, :-1],
    "one more row": lambda rng, mat: np.vstack([mat, mat[:1]]),
    "flattened": lambda rng, mat: mat.ravel(),
    "as a list": lambda rng, mat: mat.tolist(),
}


def _drawn(rng, items):
    return items[rng.integers(len(items))]


def _matrix_owners(rng, model, head):
    """``field -> (owner, attribute)`` for each matrix field, one layer or
    unit drawn by ``rng``."""
    unit = _drawn(rng, [u for units in model.layers for u in units])
    return {"layer weights": (_drawn(rng, model.arch.layers), "weights"),
            "unit anchors": (unit, "anchors"),
            "unit projection": (unit, "projection"),
            "anchor samples": (model, "anchor_samples"),
            "head normals": (head, "normals")}


def _set_clip_report(rng, model, changes):
    """Change fields of a drawn unit's clip report past the report's own
    rule, each by a function of its value."""
    unit = _drawn(rng, [u for units in model.layers for u in units])
    report = copy.copy(unit.clip_report)
    for name, change in changes.items():
        object.__setattr__(report, name, change(getattr(report, name)))
    unit.clip_report = report


def _field_edits():
    """``name -> edit(rng, model, head)``: every way the property test
    changes one field of a toy model or head."""
    edits = {}
    for field in ("layer weights", "unit anchors", "unit projection",
                  "anchor samples", "head normals"):
        for how, change in _MATRIX_CHANGES.items():
            def edit(rng, model, head, field=field, change=change):
                owner, name = _matrix_owners(rng, model, head)[field]
                setattr(owner, name, change(rng, getattr(owner, name)))
            edits[f"{field} {how}"] = edit
    for activation in ("relu", "exp", None):
        edits[f"activation {activation}"] = (
            lambda rng, model, head, a=activation:
            setattr(_drawn(rng, model.arch.layers), "activation", a))
    for how, ids in (("duplicated", lambda ids: ids[:1] * len(ids)),
                     ("too few", lambda ids: ids[:-1]),
                     ("numpy integers", lambda ids: tuple(np.arange(len(ids)))),
                     ("as strings", lambda ids: [str(i) for i in ids])):
        edits[f"anchor ids {how}"] = (
            lambda rng, model, head, ids=ids:
            setattr(model, "anchor_ids", ids(model.anchor_ids)))
    for how, value in (("NaN", np.array([np.nan, 1.0])),
                       ("negative", np.array([-1.0, 1.0])),
                       ("three", np.array([1.0, 2.0, 3.0])),
                       ("as a list", [1.0, 2.0]), ("a scalar", 2.0),
                       ("a string", "x")):
        edits[f"trade-offs {how}"] = (
            lambda rng, model, head, value=value:
            setattr(head, "trade_offs", value))
    one_more, one_less = (lambda v: v + 1), (lambda v: v - 1)
    for how, changes in (("retains one more", {"retained": one_more}),
                         ("discards one more", {"discarded": one_more}),
                         ("moves one to discarded", {"retained": one_less,
                                                     "discarded": one_more}),
                         ("retained as a float", {"retained": float}),
                         ("retained as a numpy integer", {"retained": np.int64}),
                         ("a sum as a string", {"discarded_abs_sum": str})):
        edits[f"clip report {how}"] = (
            lambda rng, model, head, changes=changes:
            _set_clip_report(rng, model, changes))
    for how, change in (("without a unit", list.pop),
                        ("with a unit twice",
                         lambda units: units.append(units[0]))):
        edits[f"unit list {how}"] = (
            lambda rng, model, head, change=change:
            change(_drawn(rng, model.layers)))
    return edits


def test_a_model_that_saves_is_a_model_that_loads(tmp_path):
    # save_model applies the rule loading reaches through the constructors,
    # the head's included.  Each edit in must_refuse used to write a file
    # that load_model refused or, transposed weights, read back as another
    # model, or to raise a raw TypeError; each in must_save used to raise a
    # raw AttributeError or TypeError
    must_refuse = {"layer weights negated", "layer weights transposed",
                   "activation relu", "anchor ids duplicated",
                   "anchor ids too few", "trade-offs NaN", "trade-offs negative",
                   "trade-offs three", "head normals one entry NaN",
                   "clip report retained as a float",
                   "clip report retained as a numpy integer"}
    must_save = {"anchor samples as a list", "head normals as a list",
                 "trade-offs as a list"}
    rng = np.random.default_rng(38)
    path = tmp_path / "model.bin"
    for name, edit in _field_edits().items():
        for _ in range(4):
            model, head, _ = helpers.toy_problem(seed=38)
            edit(rng, model, head)
            try:
                save_model(model, head, path)
            except ConfigError:
                assert not path.exists() and name not in must_save, name
                continue
            assert name not in must_refuse, name
            loaded, loaded_head = load_model(path)
            path.unlink()
            for saved, read in zip(_model_matrices(model, head),
                                   _model_matrices(loaded, loaded_head),
                                   strict=True):
                assert saved.shape == read.shape and (saved == read).all(), name
            assert loaded.anchor_ids == model.anchor_ids, name
            assert ([spec.activation for spec in loaded.arch.layers]
                    == [spec.activation for spec in model.arch.layers]), name


def test_save_refuses_a_head_unlike_the_final_map(tmp_path):
    # the reader takes the normals as wide as the final map, so a wider head
    # would leave every later payload byte misread
    model, head, _ = helpers.toy_problem(seed=33)
    wide = ClassifierHead(_with_zero_column(head.normals), head.trade_offs)
    path = tmp_path / "model.bin"
    with pytest.raises(ConfigError, match="head width 7 does not match the "
                                          "final map width 6"):
        save_model(model, wide, path)
    assert not path.exists()


def test_load_refuses_a_non_finite_anchor_sample(tmp_path, capsys):
    model, head, data = helpers.toy_problem(seed=34)
    path = tmp_path / "model.bin"
    save_model(model, head, path)
    raw = bytearray(path.read_bytes()[:-32])
    at = len(MODEL_MAGIC) + 4
    payload = at + 4 + int.from_bytes(raw[at:at + 4], "little")
    raw[payload:payload + 8] = np.float64(np.nan).tobytes()  # anchor sample (1, 1)
    path.write_bytes(bytes(raw) + hashlib.sha256(raw).digest())
    with pytest.raises(FormatError, match="inconsistent model file: anchor "
                                          "samples must be finite"):
        load_model(path)
    data_path = tmp_path / "data.tsv"
    save_dataset(data, data_path)
    assert main(["eval", "--model", str(path), "--data", str(data_path),
                 "--out", str(tmp_path / "report.json")]) == 1
    assert "error: inconsistent model file: anchor samples" in capsys.readouterr().err


def test_load_refuses_a_non_finite_projection(tmp_path, capsys):
    # such a file used to load, and its first score failed numerically
    model, head, data = helpers.toy_problem(seed=35)
    path = tmp_path / "model.bin"
    save_model(model, head, path)
    matrices = _model_matrices(model, head)
    at = next(i for i, mat in enumerate(matrices)
              if mat is model.layers[1][0].projection)
    raw = bytearray(path.read_bytes()[:-32])
    header_at = len(MODEL_MAGIC) + 4
    entry = (header_at + 4 + int.from_bytes(raw[header_at:header_at + 4], "little")
             + 8 * sum(mat.size for mat in matrices[:at]))
    raw[entry:entry + 8] = np.float64(np.nan).tobytes()  # projection (1, 1)
    path.write_bytes(bytes(raw) + hashlib.sha256(raw).digest())
    with pytest.raises(FormatError, match="inconsistent model file: layer 2, "
                                          "unit 1: projection must be finite"):
        load_model(path)
    data_path = tmp_path / "data.tsv"
    save_dataset(data, data_path)
    for command in (["eval"], ["train", "--c", "1"]):
        assert main([*command, "--model", str(path), "--data", str(data_path),
                     "--out", str(tmp_path / "out")]) == 1
        assert ("error: inconsistent model file: layer 2, unit 1: projection"
                in capsys.readouterr().err)


def test_load_rejects_trailing_bytes(tmp_path):
    model = helpers.toy_model(seed=20)
    path = tmp_path / "model.bin"
    save_model(model, None, path)
    raw = path.read_bytes()
    blob = raw[:-32] + b"\x00" * 8
    path.write_bytes(blob + hashlib.sha256(blob).digest())
    with pytest.raises(FormatError, match="trailing"):
        load_model(path)


def test_save_leaves_no_partial_file_on_error(tmp_path):
    model = helpers.toy_model(seed=21)
    target = tmp_path / "sub"
    target.mkdir()
    # the destination is a directory, so the final rename must fail and
    # the staging file must be cleaned up
    with pytest.raises(OSError):
        save_model(model, None, target)
    leftovers = [p for p in tmp_path.iterdir() if p.name != "sub"]
    assert leftovers == []
    assert list(target.iterdir()) == []


def test_worked_example_in_model_format_doc(tmp_path):
    # the two-anchor model of docs/model_format.md, byte offsets as printed
    arch = DknArchitecture(
        input_kernels=[KernelSpec("linear")],
        layers=[LayerSpec(width=1, activation="exp", weights=[[1.0]])])
    model = build_dmn(arch, AnchorSet(samples=[[0.25], [1.0]], ids=("a", "b")))
    head = ClassifierHead(normals=[[0.5, -0.25]], trade_offs=[2.0])
    path = tmp_path / "example.bin"
    save_model(model, head, path)
    raw = path.read_bytes()

    assert len(raw) == 609
    assert raw[:8] == MODEL_MAGIC
    assert int.from_bytes(raw[8:12], "little") == 3
    assert int.from_bytes(raw[12:16], "little") == 449
    header = json.loads(raw[16:465])
    assert [[unit["width"] for unit in units] for units in header["units"]] == [
        [1], [2]]
    payload = np.frombuffer(raw[465:577], dtype="<f8")
    npt.assert_array_equal(payload[:7], [0.25, 1.0, 1.0, 0.25, 1.0,
                                         4 / 17, 16 / 17])
    npt.assert_allclose(payload[7:11], [0.2590, -1.4548, 0.4748, 0.7935],
                        atol=5e-5)
    npt.assert_array_equal(payload[11:], [0.5, -0.25, 2.0])
    assert raw[577:585] == bytes.fromhex("18D851484FFD9C69")
    assert raw[577:] == hashlib.sha256(raw[:577]).digest()


def test_container_round_trip_does_not_copy_the_payload(tmp_path):
    rng = np.random.default_rng(26)
    model = build_dmn(default_architecture(default_input_kernels(), seed=26),
                      AnchorSet(samples=rng.random((450, 10))))
    payload = sum(mat.nbytes for mat in _model_matrices(model, None))
    assert payload > 20e6
    path = tmp_path / "model.bin"

    tracemalloc.start()
    try:
        save_model(model, None, path)
        _, save_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        loaded, _ = load_model(path)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert save_peak < 0.5 * payload
    assert load_peak - before < 1.25 * payload
    assert (loaded.layers[-1][0].projection
            == model.layers[-1][0].projection).all()


def test_returned_final_maps_are_the_trace_final_layer():
    model = helpers.toy_model(seed=11)
    X = np.random.default_rng(12).uniform(0.0, 0.5, size=(3, 3))
    final, maps = forward_batch(model, X)
    assert final is maps[-1][0]
