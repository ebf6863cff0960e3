"""Explicit map models: forward passes, classification, binary container."""

import numpy as np
import numpy.testing as npt
import pytest

import helpers
from dmapnet import (AnchorSet, ClassifierHead, ConfigError, FormatError,
                     InputError, LayerSpec, NumericRangeError, VersionError,
                     build_dmn, classify, forward_batch, input_kernel_rows,
                     load_model, random_mixing_weights, save_model,
                     score_batch)
from dmapnet.model import MODEL_MAGIC, MODEL_VERSION, concat_with_weights


def test_forward_batch_shapes_and_trace():
    model = helpers.toy_model(seed=1, n_anchors=6, d=3)
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 0.5, size=(5, 3))
    final, trace = forward_batch(model, X)
    assert final.shape == (5, model.final_width)
    assert trace.num_samples == 5
    assert trace.final is trace.out[-1][0]
    for l, units in enumerate(model.layers):
        assert len(trace.out[l]) == len(units)
        for p, unit in enumerate(units):
            assert trace.out[l][p].shape == (5, unit.width)


def test_dmn_forward_matches_batch_row():
    # matrix products round differently for different batch shapes, so a
    # one-row batch agrees with the full batch's row to float precision, not
    # bitwise
    model = helpers.toy_model(seed=3)
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 0.5, size=(4, 3))
    batch_final, batch_trace = forward_batch(model, X)
    for i in range(4):
        phi, trace = forward_batch(model, X[i:i + 1])
        npt.assert_allclose(phi[0], batch_final[i], rtol=1e-12, atol=1e-15)
        for l in range(len(model.layers)):
            for p in range(len(model.layers[l])):
                npt.assert_allclose(trace.out[l][p][0],
                                    batch_trace.out[l][p][i],
                                    rtol=1e-12, atol=1e-15)


def test_kernel_row_cache_is_exact():
    model = helpers.toy_model(seed=7)
    rng = np.random.default_rng(8)
    X = rng.uniform(0.0, 0.5, size=(6, 3))
    rows = input_kernel_rows(model, X)
    cached, _ = forward_batch(model, X, kernel_rows=rows)
    fresh, _ = forward_batch(model, X)
    assert (cached == fresh).all()


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


def test_concat_with_weights_zero_block():
    a = np.ones((2, 2))
    b = np.ones((2, 3))
    out = concat_with_weights([a, b], np.array([0.0, 1.0]))
    assert out.shape == (2, 5)
    assert (out[:, :2] == 0.0).all()
    with pytest.raises(ConfigError):
        concat_with_weights([a, b], np.array([1.0, -1.0]))


def test_classify_sign_convention():
    model = helpers.toy_model(seed=12)
    width = model.final_width
    head = ClassifierHead.zeros(3, width)
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


def test_scoring_rejects_multi_unit_final_layer():
    # a two-unit exp final layer: batch and single-sample scoring both refuse
    # it rather than silently scoring its first unit
    rng = np.random.default_rng(21)
    arch = helpers.toy_arch(rng)
    arch.layers[-1] = LayerSpec(width=2, activation="exp",
                                weights=random_mixing_weights(2, 3, rng))
    anchors = AnchorSet(samples=rng.uniform(0.0, 0.5, size=(6, 3)))
    model = build_dmn(arch, anchors)
    head = ClassifierHead.zeros(2, model.final_width)
    X = rng.uniform(0.0, 0.5, size=(4, 3))
    with pytest.raises(ConfigError, match="exactly one unit"):
        score_batch(model, head, X)
    with pytest.raises(ConfigError, match="exactly one unit"):
        classify(model, head, X[0])


def test_head_validation():
    with pytest.raises(ConfigError):
        ClassifierHead(np.ones((2, 3)), np.array([1.0, -1.0]))
    with pytest.raises(ConfigError):
        ClassifierHead(np.ones((2, 3)), np.array([1.0]))
    with pytest.raises(ConfigError):
        ClassifierHead(np.full((1, 2), np.nan), np.array([1.0]))
    head = ClassifierHead.random(2, 5, trade_off=2.0, seed=1)
    assert head.normals.shape == (2, 5)
    assert (head.trade_offs == 2.0).all()


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
            assert loaded.layers[l][p].activation == model.layers[l][p].activation
            assert loaded.layers[l][p].kernel == model.layers[l][p].kernel
            assert loaded.layers[l][p].clip_report == model.layers[l][p].clip_report
    for a, b in zip(loaded.arch.layers, model.arch.layers):
        assert (a.weights == b.weights).all()
    assert (loaded_head.normals == head.normals).all()
    assert (loaded_head.trade_offs == head.trade_offs).all()

    # a second save of the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.bin"
    save_model(loaded, loaded_head, path2)
    assert path.read_bytes() == path2.read_bytes()


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


def _saved_with_version(tmp_path, seed, version):
    """A valid model file whose header names ``version``, checksum fixed."""
    import hashlib

    model = helpers.toy_model(seed=seed)
    path = tmp_path / "model.bin"
    save_model(model, None, path)
    body = bytearray(path.read_bytes()[:-32])
    version_at = len(MODEL_MAGIC)
    body[version_at:version_at + 4] = version.to_bytes(4, "little")
    blob = bytes(body)
    path.write_bytes(blob + hashlib.sha256(blob).digest())
    return path


def test_load_rejects_newer_version(tmp_path):
    path = _saved_with_version(tmp_path, 19, MODEL_VERSION + 1)
    with pytest.raises(VersionError):
        load_model(path)


def test_load_rejects_version_zero(tmp_path):
    path = _saved_with_version(tmp_path, 22, 0)
    with pytest.raises(FormatError, match="version 0"):
        load_model(path)


@pytest.mark.parametrize("edit", [
    helpers.setting("anchor_count", value="abc"),
    helpers.setting("arch", "layers", 0, "width", value="x"),
    helpers.setting("units", value=5),
    helpers.setting("units", 1, 0, "anchors_shape", value=[-6, -9]),
    helpers.setting("units", 1, 0, "projection_shape", value=[6, 3, 1]),
    helpers.setting("head", "classes", value="two"),
], ids=["anchor-count", "layer-width", "units", "negative-shape",
        "three-entry-shape", "head-classes"])
def test_load_rejects_malformed_header_fields(tmp_path, edit):
    path = helpers.saved_with_header(tmp_path / "model.bin", edit, seed=23)
    with pytest.raises(FormatError, match="model header"):
        load_model(path)


def test_load_rejects_trailing_bytes(tmp_path):
    import hashlib

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


def test_returned_final_maps_are_the_trace_final_layer():
    model = helpers.toy_model(seed=11)
    X = np.random.default_rng(12).uniform(0.0, 0.5, size=(3, 3))
    final, trace = forward_batch(model, X)
    assert final is trace.final
