"""Implicit network kernels: architectures, layer recursion, dual scoring."""

import json

import numpy as np
import numpy.testing as npt
import pytest

import helpers
from dmapnet import (AnchorSet, ConfigError, DknArchitecture, InputError,
                     KernelSpec, LayerSpec, NumericRangeError, build_dmn,
                     default_architecture, default_input_kernels,
                     dkn_classify, dkn_pair, gram_layers, gram_matrix,
                     load_architecture, random_mixing_weights)
from dmapnet.dkn import activation_apply, activation_prime, combine
from dmapnet.kernels import BLOCK_BYTES, block_rows


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


@pytest.mark.parametrize("name", ["tanh", "exp", "identity"])
def test_activation_in_place_is_exact(name):
    x = np.random.default_rng(6).standard_normal((7, 9))
    expected = activation_apply(name, x.copy())
    out = np.empty_like(x)
    assert activation_apply(name, x, out=out) is out
    assert out.tobytes() == expected.tobytes()
    assert activation_apply(name, x, out=x) is x
    assert x.tobytes() == expected.tobytes()


def test_random_mixing_weights():
    rng = np.random.default_rng(0)
    w = random_mixing_weights(4, 3, rng)
    assert w.shape == (4, 3)
    assert (w >= 0).all()
    npt.assert_allclose(w.sum(axis=1), np.ones(4), atol=1e-12)
    again = random_mixing_weights(4, 3, np.random.default_rng(0))
    assert (w == again).all()
    for shape in ((-1, 2), (2, 0), ("x", 2)):
        with pytest.raises(ConfigError, match="width must be an integer >= 1"):
            random_mixing_weights(*shape, rng)


def test_layer_spec_validation():
    with pytest.raises(ConfigError):
        LayerSpec(width=0, activation="tanh", weights=np.ones((0, 2)))
    with pytest.raises(ConfigError):
        LayerSpec(width=2, activation="tanh", weights=np.ones((3, 2)))
    with pytest.raises(ConfigError, match="prev_width >= 1"):
        LayerSpec(width=1, activation="tanh", weights=[[]])
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
    # drawn weights for an impossible width name the layer, not a raw
    # MemoryError (past the address space) or ValueError (past numpy's
    # dimension limit)
    for width in (1000000000000, 10**19):
        path.write_text(json.dumps({"input_kernels": [{"kind": "linear"}],
                                    "layers": [{"width": width,
                                                "activation": "exp"}]}))
        with pytest.raises(ConfigError, match="layer 2"):
            load_architecture(path)
    path.write_bytes(b'{"input_kernels": "\xff"}')
    with pytest.raises(ConfigError):
        load_architecture(path)


# values a fuzzed architecture field is replaced with; no width here is
# both drawable and large, so no case allocates more than a few bytes
_ARCH_FUZZ_VALUES = (None, True, -1, 0, 1, 2, 1.5, 1e308, "x", "tanh", "rbf",
                     [], {}, [[1.0]], 10**12, 10**19, 2**70, {"kind": "rbf"})


def test_load_architecture_survives_seeded_fuzz(tmp_path):
    # any one-field mutation of a valid architecture file loads or raises
    # ConfigError; the last layer's weights are drawn, so width mutations
    # reach the draw
    arch = default_architecture(default_input_kernels(), hidden_width=3, seed=1)
    base = arch.to_json_dict()
    del base["layers"][-1]["weights"]
    path = tmp_path / "arch.json"
    rng = np.random.default_rng(43)
    outcomes = set()
    for _ in range(1000):
        obj = json.loads(json.dumps(base))
        helpers.one_field_edit(rng, _ARCH_FUZZ_VALUES)(obj)
        path.write_text(json.dumps(obj))
        try:
            load_architecture(path)
        except ConfigError:
            outcomes.add("ConfigError")
        except Exception as err:  # noqa: BLE001 - report the escaping input
            pytest.fail(f"{type(err).__name__} escaped for {json.dumps(obj)}")
        else:
            outcomes.add("loaded")
    assert outcomes == {"loaded", "ConfigError"}


def test_forward_grams_match_pair_evaluations():
    # the gram recursion and the scalar pair recursion run the same
    # arithmetic, so their values agree bitwise
    rng = np.random.default_rng(2)
    X = rng.uniform(0.0, 0.6, size=(6, 3))
    arch = helpers.toy_arch(rng)
    input_grams = [gram_matrix(spec, X) for spec in arch.input_kernels]
    layered = list(gram_layers(arch, input_grams))
    assert len(layered) == arch.num_layers
    final = layered[-1][0].values
    for i in range(6):
        for j in range(6):
            assert final[i, j] == dkn_pair(arch, X[i], X[j])
    # 200 samples make grams above BLOCK_BYTES, so the kernel core and
    # combine both work in row blocks; entries on either side of each
    # block boundary still match the scalar recursion bitwise
    X = rng.uniform(0.0, 0.6, size=(200, 3))
    assert 200 * 200 * 8 > BLOCK_BYTES
    final = list(gram_layers(
        arch, [gram_matrix(spec, X) for spec in arch.input_kernels]))[-1][0].values
    step = block_rows(200)
    edges = {0, step - 1, step, 199}
    pairs = {(i, j) for i in edges for j in range(0, 200, 7)}
    pairs |= {tuple(ij) for ij in rng.integers(0, 200, size=(100, 2))}
    for i, j in sorted(pairs):
        assert final[i, j] == dkn_pair(arch, X[i], X[j])


def test_pair_recursion_passes_an_identity_layer_up():
    # identity activates a float into a 0-d array, which the layer above
    # must still combine as a scalar
    rng = np.random.default_rng(3)
    X = rng.uniform(0.0, 0.6, size=(4, 3))
    specs = [KernelSpec("linear"), KernelSpec("rbf", gamma=0.5)]
    arch = DknArchitecture(input_kernels=specs, layers=[
        LayerSpec(width=2, activation="identity",
                  weights=random_mixing_weights(2, 2, rng)),
        LayerSpec(width=1, activation="tanh",
                  weights=random_mixing_weights(1, 2, rng))])
    final = list(gram_layers(arch, [gram_matrix(s, X) for s in specs]))[-1][0].values
    for i in range(4):
        for j in range(4):
            assert dkn_pair(arch, X[i], X[j]) == final[i, j]


def test_combine_blocked_matches_sequential_sum():
    # 300 x 150 terms exceed BLOCK_BYTES, so later terms are added one row
    # block at a time; every entry sees the same operations in order
    rng = np.random.default_rng(9)
    W = rng.random((3, 4))
    terms = [rng.standard_normal((300, 150)) for _ in range(4)]
    assert terms[0].nbytes > BLOCK_BYTES
    sums = combine(W, (t for t in terms))
    assert len(sums) == 3
    for p in range(3):
        ref = W[p, 0] * terms[0]
        for q in range(1, 4):
            ref = ref + W[p, q] * terms[q]
        assert (sums[p] == ref).all()
    assert len({id(s) for s in sums}) == 3


def test_forward_grams_layer_ranges():
    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 0.6, size=(5, 3))
    arch = helpers.toy_arch(rng)
    layered = list(gram_layers(arch, [gram_matrix(s, X) for s in arch.input_kernels]))
    hidden = np.stack([gm.values for gm in layered[1]])
    assert (np.abs(hidden) < 1.0).all()  # tanh output
    assert (layered[2][0].values > 0).all()  # exp output


def test_forward_grams_shape_mismatch():
    rng = np.random.default_rng(6)
    X3 = rng.uniform(0.0, 1.0, size=(3, 3))
    X4 = rng.uniform(0.0, 1.0, size=(4, 3))
    arch = helpers.toy_arch(rng)
    k1, k2 = arch.input_kernels
    g3 = gram_matrix(k1, X3)
    g4 = gram_matrix(k2, X4)
    with pytest.raises(InputError, match="expected 2 input grams"):
        list(gram_layers(arch, [g4]))
    for grams in ([g3, g4],                            # unequal sizes
                  [gram_matrix(k1, X3, X4), g4],       # a cross gram
                  [np.ones((3, 4)), np.ones((3, 4))]):  # a plain 3x4 array
        with pytest.raises(InputError, match="square and of one size"):
            list(gram_layers(arch, grams))


def test_every_walk_names_an_overflowing_sum():
    # weights near the float64 limit overflow layer 2's weighted sums, which
    # tanh would turn into ones; each walk names the unit instead
    model = helpers.toy_model(seed=35)
    arch, S = model.arch, model.anchor_samples
    arch.layers[0].weights = np.full_like(arch.layers[0].weights, 1.5e308)
    with pytest.raises(NumericRangeError, match="layer 2, unit 1"):
        build_dmn(arch, AnchorSet(samples=S))
    with pytest.raises(NumericRangeError, match="layer 2, unit 1"):
        list(gram_layers(arch, [gram_matrix(spec, S) for spec in arch.input_kernels]))
    with pytest.raises(NumericRangeError, match="layer 2, unit 1"):
        dkn_pair(arch, S[0], S[0])


def test_implicit_walks_name_an_overflowing_activation():
    # the scaled last layer's sums are finite, but their exp is not
    model = helpers.toy_model(seed=35, scale=0.05)
    arch, S = model.arch, model.anchor_samples
    arch.layers[-1].weights = arch.layers[-1].weights * 1e6
    with pytest.raises(NumericRangeError, match="layer 3, unit 1"):
        list(gram_layers(arch, [gram_matrix(spec, S) for spec in arch.input_kernels]))
    with pytest.raises(NumericRangeError, match="layer 3, unit 1"):
        dkn_pair(arch, S[0], S[1])


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


@pytest.mark.parametrize("hidden_width", [None, 1, 3, 8])
def test_default_architecture_is_the_readers(hidden_width):
    # the same layers read without weights draw bitwise the same weights
    kernels = default_input_kernels()
    layers = [{"width": 2 * len(kernels) if hidden_width is None else hidden_width,
               "activation": "tanh"}, {"width": 1, "activation": "exp"}]
    obj = {"input_kernels": [k.to_dict() for k in kernels], "layers": layers}
    for seed in range(5):
        default = default_architecture(kernels, hidden_width=hidden_width,
                                       seed=seed)
        read = DknArchitecture.from_json_dict(obj, seed=seed)
        assert read.input_kernels == default.input_kernels
        for a, b in zip(read.layers, default.layers, strict=True):
            assert (a.width, a.activation) == (b.width, b.activation)
            assert a.weights.tobytes() == b.weights.tobytes()


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
        out = list(gram_layers(arch, grams))[-1][0].values
        lo = np.minimum(grams[0].values, grams[1].values)
        hi = np.maximum(grams[0].values, grams[1].values)
        assert (out >= lo - 1e-12).all()
        assert (out <= hi + 1e-12).all()
