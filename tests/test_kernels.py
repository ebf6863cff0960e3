"""Base kernels: single evaluations, gram matrices and their agreement."""

import copy
import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import helpers
from dmapnet import (AnchorSet, ClassifierHead, ConfigError, DknArchitecture,
                     DmapnetError, DmnModel, DmnUnit, GramMatrix, InputError,
                     KernelSpec, LabeledDataset, LayerSpec, SyntheticSpec,
                     backprop, classify, default_architecture,
                     default_input_kernels, dkn_classify, eigen_projection,
                     eval_kernel, evaluate, forward_batch, forward_trace,
                     generate_synthetic, grad_output, gram_matrix,
                     input_kernel_rows, load_architecture, run_bench,
                     save_model, score_batch, svm_solve)
from dmapnet.kernels import KERNEL_KINDS, block_rows, max_asymmetry

ALL_SPECS = [
    KernelSpec("linear"),
    KernelSpec("polynomial", degree=2, offset=1.0),
    KernelSpec("polynomial", degree=3, offset=0.5),
    KernelSpec("rbf", gamma=0.8),
    KernelSpec("histogram_intersection"),
]


def test_eval_kernel_hand_values():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([0.5, 1.0, 2.0])
    dot = 0.5 + 2.0 + 6.0
    assert eval_kernel(KernelSpec("linear"), x, y) == pytest.approx(dot)
    assert eval_kernel(KernelSpec("polynomial", degree=2, offset=1.0), x, y) \
        == pytest.approx((dot + 1.0) ** 2)
    sq = 0.25 + 1.0 + 1.0
    assert eval_kernel(KernelSpec("rbf", gamma=0.3), x, y) \
        == pytest.approx(np.exp(-0.3 * sq))
    assert eval_kernel(KernelSpec("histogram_intersection"), x, y) \
        == pytest.approx(0.5 + 1.0 + 2.0)


def test_spec_validation():
    with pytest.raises(ConfigError):
        KernelSpec("sigmoid")
    with pytest.raises(ConfigError):
        KernelSpec("polynomial", degree=0)
    with pytest.raises(ConfigError):
        KernelSpec("polynomial", degree=1.5)
    with pytest.raises(ConfigError):
        KernelSpec("polynomial", offset=-1.0)
    with pytest.raises(ConfigError):
        KernelSpec("rbf", gamma=0.0)
    with pytest.raises(ConfigError, match="offset must be a finite number"):
        KernelSpec("polynomial", offset=float("inf"))
    with pytest.raises(ConfigError, match="gamma must be a finite number"):
        KernelSpec("rbf", gamma=float("inf"))
    # non-numeric fields, as a JSON config may carry them
    with pytest.raises(ConfigError, match="degree"):
        KernelSpec("polynomial", degree="two")
    with pytest.raises(ConfigError, match="offset"):
        KernelSpec("polynomial", offset="x")
    with pytest.raises(ConfigError, match="gamma"):
        KernelSpec("rbf", gamma="x")


def test_spec_dict_round_trip():
    for spec in ALL_SPECS:
        again = KernelSpec.from_dict(spec.to_dict())
        assert again == spec
    with pytest.raises(ConfigError):
        KernelSpec.from_dict({"degree": 2})


def test_gram_matches_eval_kernel_bitwise():
    rng = np.random.default_rng(11)
    X = rng.uniform(0.0, 1.0, size=(7, 5))
    Y = rng.uniform(0.0, 1.0, size=(4, 5))
    for spec in ALL_SPECS:
        G = gram_matrix(spec, X, Y).values
        for i in range(X.shape[0]):
            for j in range(Y.shape[0]):
                assert G[i, j] == eval_kernel(spec, X[i], Y[j])
    # 70 rows against 1100 anchors run as 29-row blocks: check every row on
    # either side of a block boundary
    X = rng.uniform(0.0, 1.0, size=(70, 5))
    Y = rng.uniform(0.0, 1.0, size=(1100, 5))
    step = block_rows(Y.shape[0])
    assert step < X.shape[0] // 2
    edges = sorted({r for b in range(step, X.shape[0], step) for r in (b - 1, b)}
                   | {0, X.shape[0] - 1})
    cols = (0, 1, 548, 1098, 1099)
    for spec in ALL_SPECS:
        G = gram_matrix(spec, X, Y).values
        for i in edges:
            for j in cols:
                assert G[i, j] == eval_kernel(spec, X[i], Y[j])


def test_self_gram_symmetric_and_psd():
    rng = np.random.default_rng(3)
    for trial in range(10):
        X = rng.uniform(0.0, 1.0, size=(rng.integers(3, 12), rng.integers(2, 6)))
        for spec in ALL_SPECS:
            G = gram_matrix(spec, X).values
            npt.assert_allclose(G, G.T, atol=1e-12)
            lam = np.linalg.eigvalsh((G + G.T) / 2.0)
            assert lam.min() >= -1e-8 * max(lam.max(), 1.0)


def test_gram_ids_and_shape():
    X = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    gm = gram_matrix(KernelSpec("linear"), X)
    assert gm.shape == (3, 3)


def test_gram_matrix_container_validation():
    with pytest.raises(InputError):
        GramMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(InputError):
        GramMatrix(np.zeros(3))
    # rectangular and asymmetric values are fine; eigen_projection checks
    # symmetry where it is needed
    GramMatrix(np.ones((2, 3)))
    GramMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_square_cross_gram_between_distinct_sets_is_accepted():
    rng = np.random.default_rng(12)
    X = rng.random((5, 3))
    Y = rng.random((5, 3))
    gm = gram_matrix(KernelSpec("rbf", gamma=0.5), X, Y)
    assert gm.shape == (5, 5)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_self_gram_is_exactly_symmetric_across_row_blocks(kind):
    # entry (i, j) sees the same operations as entry (j, i), so no
    # symmetry check is needed on a self gram; 200 rows span two blocks
    X = np.random.default_rng(21).random((200, 5))
    assert block_rows(200) < 200
    values = gram_matrix(KernelSpec(kind), X).values
    assert max_asymmetry(values) == 0.0
    assert np.array_equal(values, values.T)


def test_eval_kernel_is_symmetric():
    rng = np.random.default_rng(40)
    specs = [KernelSpec("linear"),
             KernelSpec("polynomial", degree=3, offset=0.5),
             KernelSpec("rbf", gamma=1.3),
             KernelSpec("histogram_intersection")]
    for spec in specs:
        for _ in range(10):
            x = rng.random(5)
            y = rng.random(5)
            assert eval_kernel(spec, x, y) == eval_kernel(spec, y, x)


def test_hik_rejects_negative_features():
    spec = KernelSpec("histogram_intersection")
    with pytest.raises(InputError):
        eval_kernel(spec, np.array([-0.1, 0.2]), np.array([0.1, 0.2]))
    with pytest.raises(InputError):
        gram_matrix(spec, np.array([[0.1, -0.2]]))


def test_input_validation():
    spec = KernelSpec("linear")
    with pytest.raises(InputError):
        gram_matrix(spec, np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(InputError):
        gram_matrix(spec, np.array([[np.nan, 0.0]]))
    with pytest.raises(InputError):
        eval_kernel(spec, np.ones((2, 3)), np.ones(3))
    with pytest.raises(InputError):
        gram_matrix(spec, np.empty((0, 3)))


def test_gram_block_order_independent_of_split():
    # the rank-1 accumulation makes row blocks independent of how the
    # sample axis is partitioned
    rng = np.random.default_rng(17)
    X = rng.uniform(0.0, 1.0, size=(9, 4))
    Y = rng.uniform(0.0, 1.0, size=(6, 4))
    for spec in ALL_SPECS:
        whole = gram_matrix(spec, X, Y).values
        parts = np.vstack([gram_matrix(spec, X[:4], Y).values,
                           gram_matrix(spec, X[4:], Y).values])
        assert (whole == parts).all()
    # several cache-sized blocks against one row at a time
    X = rng.uniform(0.0, 1.0, size=(70, 4))
    Y = rng.uniform(0.0, 1.0, size=(1100, 4))
    assert block_rows(Y.shape[0]) < X.shape[0] // 2
    for spec in ALL_SPECS:
        whole = gram_matrix(spec, X, Y).values
        rows = np.vstack([gram_matrix(spec, x, Y).values for x in X])
        assert (whole == rows).all()


@pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", gamma=0.5)],
                         ids=["linear", "rbf"])
def test_gram_matrix_makes_no_second_gram_sized_array(spec):
    # the result is the only gram-sized array: the core fills it one row
    # block at a time and the symmetry check reads it one block at a time
    rng = np.random.default_rng(23)
    X = rng.random((1000, 10))
    Y = rng.random((1000, 10))
    gram_bytes = 1000 * 1000 * 8
    for other in (None, Y):
        tracemalloc.start()
        try:
            gm = gram_matrix(spec, X, other)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gm.shape == (1000, 1000)
        assert peak < 1.5 * gram_bytes


def _arch_file(tmp_path, seed):
    path = tmp_path / "arch.json"
    obj = default_architecture(default_input_kernels()).to_json_dict()
    for layer in obj["layers"]:
        del layer["weights"]
    path.write_text(json.dumps(obj))
    return load_architecture(path, seed=seed)


def _bench(tmp_path, seed):
    rng = np.random.default_rng(71)
    return run_bench(helpers.toy_arch(rng),
                     AnchorSet(samples=rng.uniform(0.0, 0.5, size=(6, 3))),
                     sizes=(4,), reps=5, seed=seed)


SEEDED_ENTRIES = {
    "synthetic": (lambda tmp_path, seed: generate_synthetic(SyntheticSpec(
        num_samples=10, num_features=2, num_classes=1, seed=seed)), InputError),
    "default-architecture": (lambda tmp_path, seed: default_architecture(
        default_input_kernels(), seed=seed), ConfigError),
    "from-json-dict": (lambda tmp_path, seed: DknArchitecture.from_json_dict(
        default_architecture(default_input_kernels()).to_json_dict(), seed=seed),
        ConfigError),
    "load-architecture": (_arch_file, ConfigError),
    "head-random": (lambda tmp_path, seed: ClassifierHead.random(2, 3, seed=seed),
                    ConfigError),
    "run-bench": (_bench, ConfigError),
}


@pytest.mark.parametrize("seed", [2.5, -1])
@pytest.mark.parametrize("entry", sorted(SEEDED_ENTRIES))
def test_library_seeds_follow_one_rule(entry, seed, tmp_path):
    # numpy's generator raised a raw TypeError for 2.5 and ValueError for -1;
    # each entry point now raises the typed error of its other fields
    call, error = SEEDED_ENTRIES[entry]
    with pytest.raises(error, match="seed must be an integer >= 0"):
        call(tmp_path, seed)


def _array_entries(tmp_path):
    """``name -> (call, valid)``: each library entry point that takes a
    caller's float array, as a call of that one array, and a value it
    accepts there."""
    model, head, data = helpers.toy_problem(seed=36)
    final = forward_batch(model, data.features)[0]
    scores = score_batch(model, head, data.features)
    X, Y, spec = data.features, data.labels, KernelSpec("linear")
    trace = forward_trace(model, input_kernel_rows(model, X))
    out_grads = grad_output(head, trace.final, Y)
    coef, bias = np.ones((2, 3)), np.zeros(2)
    unit = model.layers[0][0]

    def holding(anchors=unit.anchors, projection=unit.projection):
        # a unit checks nothing until a model holds it
        layers = [list(units) for units in model.layers]
        layers[0][0] = DmnUnit(anchors, projection, unit.clip_report)
        return DmnModel(layers=layers, arch=model.arch,
                        anchor_samples=model.anchor_samples)

    def saving_head(name, value):
        # a head changed after it was made, so only save_model checks it
        changed = copy.copy(head)
        setattr(changed, name, value)
        save_model(model, changed, tmp_path / "model.bin")

    return {
        "gram_matrix X": (lambda v: gram_matrix(spec, v), X),
        "gram_matrix Y": (lambda v: gram_matrix(spec, X, v), X),
        "eval_kernel": (lambda v: eval_kernel(spec, v, X[0]), X[1]),
        "GramMatrix": (GramMatrix, np.eye(3)),
        "AnchorSet": (lambda v: AnchorSet(samples=v), X),
        "eigen_projection": (eigen_projection, np.eye(3)),
        "LabeledDataset features": (lambda v: LabeledDataset(v, Y), X),
        "LabeledDataset labels": (lambda v: LabeledDataset(X, v), Y),
        "LayerSpec": (lambda v: LayerSpec(width=2, activation="tanh",
                                          weights=v), np.ones((2, 2))),
        "DmnModel": (lambda v: DmnModel(layers=model.layers, arch=model.arch,
                                        anchor_samples=v), model.anchor_samples),
        "ClassifierHead": (lambda v: ClassifierHead(v, head.trade_offs),
                           head.normals),
        "input_kernel_rows": (lambda v: input_kernel_rows(model, v), X),
        "score_batch": (lambda v: score_batch(model, head, v), X),
        "classify": (lambda v: classify(model, head, v), X[0]),
        "evaluate scores": (lambda v: evaluate(v, Y), scores),
        "evaluate truth": (lambda v: evaluate(scores, v), Y),
        "svm_solve maps": (lambda v: svm_solve(v, Y, 1.0), final),
        "svm_solve labels": (lambda v: svm_solve(final, v, 1.0), Y),
        "svm_solve initial": (lambda v: svm_solve(final, Y, 1.0, initial=v),
                              svm_solve(final, Y, 1.0)),
        "dkn_classify support": (
            lambda v: dkn_classify(model.arch, v, coef, bias, X[0]), X[:3]),
        "dkn_classify dual_coef": (
            lambda v: dkn_classify(model.arch, X[:3], v, bias, X[0]), coef),
        "dkn_classify bias": (
            lambda v: dkn_classify(model.arch, X[:3], coef, v, X[0]), bias),
        "backprop output_grads": (lambda v: backprop(model, trace, v), out_grads),
        "DmnModel unit anchors": (lambda v: holding(anchors=v), unit.anchors),
        "DmnModel unit projection": (lambda v: holding(projection=v),
                                     unit.projection),
        "save_model head normals": (lambda v: saving_head("normals", v),
                                    head.normals),
        "save_model head trade-offs": (lambda v: saving_head("trade_offs", v),
                                       head.trade_offs),
    }


def _bad_arrays(rng, valid):
    """Bad values for an array argument: non-numbers, ragged and 3-D
    arrays, and ``valid`` with one entry, drawn by ``rng``, made NaN or inf."""
    bad = ["x", None, {}, [["a"]], [[1], [2, 3]],
           valid.reshape((1,) * (3 - valid.ndim) + valid.shape)]
    for value in (np.nan, np.inf, -np.inf):
        spoilt = valid.copy()
        spoilt[tuple(rng.integers(0, n) for n in valid.shape)] = value
        bad.append(spoilt)
    return bad


def test_library_arrays_survive_seeded_fuzz(tmp_path):
    # numpy's conversion raised a raw ValueError or TypeError at most of
    # these entry points; every array now passes through one rule, which
    # raises the entry point's own typed error.  A call may also return:
    # gram_matrix takes Y=None as Y=X.
    rng = np.random.default_rng(37)
    entries = _array_entries(tmp_path)
    for _ in range(3):
        for call, valid in entries.values():
            for value in _bad_arrays(rng, valid):
                try:
                    call(value)
                except DmapnetError:
                    pass
