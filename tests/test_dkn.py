"""Implicit network kernels: architectures, layer recursion, dual scoring."""

import json

import numpy as np
import numpy.testing as npt
import pytest

import helpers
from dmapnet import (ConfigError, DknArchitecture, InputError, KernelSpec,
                     LayerSpec, default_architecture, default_input_kernels,
                     dkn_classify, dkn_forward_grams, dkn_pair,
                     gram_matrix, load_architecture, random_mixing_weights)
from dmapnet.dkn import activation_apply, activation_prime


def test_activations():
    v = np.array([-1.0, 0.0, 2.0])
    npt.assert_allclose(activation_apply("tanh", v), np.tanh(v))
    npt.assert_allclose(activation_apply("exp", v), np.exp(v))
    npt.assert_allclose(activation_apply("identity", v), v)
    # derivatives take the activation's output, not its argument
    npt.assert_allclose(activation_prime("tanh", np.tanh(v)),
                        1.0 - np.tanh(v) ** 2)
    npt.assert_allclose(activation_prime("exp", np.exp(v)), np.exp(v))
    npt.assert_allclose(activation_prime("identity", v), np.ones(3))
    with pytest.raises(ConfigError):
        activation_apply("relu", v)
    with pytest.raises(ConfigError):
        activation_prime("relu", v)


def test_random_mixing_weights():
    rng = np.random.default_rng(0)
    w = random_mixing_weights(4, 3, rng)
    assert w.shape == (4, 3)
    assert (w >= 0).all()
    npt.assert_allclose(w.sum(axis=1), np.ones(4), atol=1e-12)
    again = random_mixing_weights(4, 3, np.random.default_rng(0))
    assert (w == again).all()


def test_layer_spec_validation():
    with pytest.raises(ConfigError):
        LayerSpec(width=0, activation="tanh", weights=np.ones((0, 2)))
    with pytest.raises(ConfigError):
        LayerSpec(width=2, activation="tanh", weights=np.ones((3, 2)))
    with pytest.raises(ConfigError):
        LayerSpec(width=1, activation="tanh", weights=np.array([[0.5, -0.1]]))
    with pytest.raises(ConfigError):
        LayerSpec(width=1, activation="softmax", weights=np.ones((1, 2)))
    with pytest.raises(ConfigError, match="width"):
        LayerSpec(width="x", activation="tanh", weights=np.ones((1, 2)))


def test_architecture_validation_and_shapes():
    kernels = default_input_kernels()
    arch = default_architecture(kernels, seed=1)
    assert arch.num_layers == 3
    assert arch.widths == [4, 8, 1]
    assert arch.output_width == 1
    with pytest.raises(ConfigError):
        DknArchitecture(input_kernels=[], layers=arch.layers)
    with pytest.raises(ConfigError):
        DknArchitecture(input_kernels=kernels, layers=[])
    bad = LayerSpec(width=1, activation="exp", weights=np.ones((1, 7)))
    with pytest.raises(ConfigError):
        DknArchitecture(input_kernels=kernels, layers=[bad])


def test_architecture_json_round_trip(tmp_path):
    arch = default_architecture(default_input_kernels(gamma=0.5), seed=3)
    obj = arch.to_json_dict()
    again = DknArchitecture.from_json_dict(obj)
    assert [k.to_dict() for k in again.input_kernels] \
        == [k.to_dict() for k in arch.input_kernels]
    for a, b in zip(again.layers, arch.layers):
        assert a.width == b.width and a.activation == b.activation
        assert (a.weights == b.weights).all()

    path = tmp_path / "arch.json"
    path.write_text(json.dumps(obj))
    loaded = load_architecture(path)
    assert loaded.widths == arch.widths


def test_missing_weights_are_seeded():
    obj = {
        "input_kernels": [{"kind": "linear"}, {"kind": "rbf", "gamma": 1.0}],
        "layers": [{"width": 3, "activation": "tanh"},
                   {"width": 1, "activation": "exp"}],
    }
    a = DknArchitecture.from_json_dict(obj, seed=5)
    b = DknArchitecture.from_json_dict(obj, seed=5)
    c = DknArchitecture.from_json_dict(obj, seed=6)
    assert (a.layers[0].weights == b.layers[0].weights).all()
    assert not (a.layers[0].weights == c.layers[0].weights).all()
    npt.assert_allclose(a.layers[0].weights.sum(axis=1), np.ones(3))


def test_architecture_file_rejects_malformed_fields(tmp_path):
    path = tmp_path / "arch.json"
    # a layer without weights draws them from its width, so a bad width
    # must be caught before the draw
    path.write_text(json.dumps({"input_kernels": [{"kind": "linear"}],
                                "layers": [{"width": "x", "activation": "exp"}]}))
    with pytest.raises(ConfigError, match="width"):
        load_architecture(path)
    path.write_text(json.dumps({
        "input_kernels": [{"kind": "polynomial", "degree": "two"}],
        "layers": [{"width": 1, "activation": "exp"}]}))
    with pytest.raises(ConfigError, match="degree"):
        load_architecture(path)
    for obj in ({"input_kernels": 5, "layers": []},
                {"input_kernels": [{"kind": "linear"}], "layers": [5]},
                {"input_kernels": [{"kind": "linear"}],
                 "layers": [{"width": 1, "activation": "exp", "weights": "abc"}]}):
        with pytest.raises(ConfigError):
            DknArchitecture.from_json_dict(obj)
    path.write_bytes(b'{"input_kernels": "\xff"}')
    with pytest.raises(ConfigError):
        load_architecture(path)


def test_forward_grams_match_pair_evaluations():
    # the gram recursion and the scalar pair recursion run the same
    # arithmetic, so their values agree bitwise
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 0.6, size=(6, 3))
    arch = helpers.toy_arch(rng)
    input_grams = [gram_matrix(spec, X) for spec in arch.input_kernels]
    layered = dkn_forward_grams(arch, input_grams)
    assert len(layered) == arch.num_layers
    final = layered[-1][0].values
    for i in range(6):
        for j in range(6):
            assert final[i, j] == dkn_pair(arch, X[i], X[j])


def test_forward_grams_layer_ranges():
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 0.6, size=(5, 3))
    arch = helpers.toy_arch(rng)
    layered = dkn_forward_grams(arch, [gram_matrix(s, X) for s in arch.input_kernels])
    hidden = np.stack([gm.values for gm in layered[1]])
    assert (np.abs(hidden) < 1.0).all()  # tanh output
    assert (layered[2][0].values > 0).all()  # exp output


def test_forward_grams_id_mismatch():
    rng = np.random.default_rng(6)
    X = rng.uniform(0.0, 1.0, size=(4, 3))
    arch = helpers.toy_arch(rng)
    g1 = gram_matrix(arch.input_kernels[0], X, row_ids=("a", "b", "c", "d"))
    g2 = gram_matrix(arch.input_kernels[1], X)  # default integer ids
    with pytest.raises(InputError):
        dkn_forward_grams(arch, [g1, g2])
    with pytest.raises(InputError):
        dkn_forward_grams(arch, [g1])


def test_dkn_classify_matches_manual_dual_sum():
    rng = np.random.default_rng(8)
    arch = helpers.toy_arch(rng)
    support = rng.uniform(0.0, 0.6, size=(10, 3))
    dual = rng.standard_normal((3, 10))
    bias = rng.standard_normal(3)
    x = rng.uniform(0.0, 0.6, size=3)
    kvec = np.array([dkn_pair(arch, x, s) for s in support])
    expected = dual @ kvec + bias
    npt.assert_allclose(dkn_classify(arch, support, dual, bias, x), expected,
                        rtol=1e-14)


def test_dkn_classify_validation():
    rng = np.random.default_rng(9)
    arch = helpers.toy_arch(rng)
    support = rng.uniform(0.0, 0.6, size=(4, 3))
    with pytest.raises(InputError):
        dkn_classify(arch, support, np.ones((2, 5)), np.zeros(2), support[0])
    with pytest.raises(InputError):
        dkn_classify(arch, support, np.ones((2, 4)), np.zeros(3), support[0])


def test_default_input_kernels_parameters():
    kernels = default_input_kernels(gamma=0.25, degree=3, offset=2.0)
    kinds = [k.kind for k in kernels]
    assert kinds == ["linear", "polynomial", "rbf", "histogram_intersection"]
    assert kernels[1].degree == 3 and kernels[1].offset == 2.0
    assert kernels[2].gamma == 0.25


def test_default_architecture_hidden_width():
    kernels = default_input_kernels()
    assert default_architecture(kernels).widths == [4, 8, 1]
    assert default_architecture(kernels, hidden_width=5).widths == [4, 5, 1]


def test_identity_convex_combination_stays_in_envelope():
    # with identity activation and weights summing to one, each output
    # entry is a convex combination of the input gram entries
    rng = np.random.default_rng(41)
    specs = [KernelSpec("linear"), KernelSpec("rbf", gamma=0.8)]
    for _ in range(10):
        X = rng.random((6, 3))
        grams = [gram_matrix(spec, X) for spec in specs]
        a = rng.uniform(0.05, 0.95)
        arch = DknArchitecture(
            input_kernels=specs,
            layers=[LayerSpec(width=1, activation="identity",
                              weights=[[a, 1.0 - a]])],
        )
        out = dkn_forward_grams(arch, grams)[-1][0].values
        lo = np.minimum(grams[0].values, grams[1].values)
        hi = np.maximum(grams[0].values, grams[1].values)
        assert (out >= lo - 1e-12).all()
        assert (out <= hi + 1e-12).all()
