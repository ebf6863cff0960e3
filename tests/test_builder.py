"""Map construction: eigendecomposition, clipping, layerwise assembly."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import helpers
from dmapnet import (AnchorSet, ConfigError, DegenerateGramError,
                     DknArchitecture, InputError, KernelSpec, LayerSpec,
                     NumericRangeError, SyntheticSpec, build_dmn,
                     default_architecture, default_input_kernels,
                     eigen_projection, forward_batch, generate_synthetic,
                     gram_layers, gram_matrix, reconstruction_errors)


def test_eigen_projection_hand_case():
    # eigenvalues of [[2,1],[1,2]] are 3 and 1 with eigenvectors along
    # (1,1) and (1,-1)
    K = np.array([[2.0, 1.0], [1.0, 2.0]])
    factor = eigen_projection(K)
    npt.assert_allclose(factor.values, [3.0, 1.0], atol=1e-12)
    npt.assert_allclose(np.abs(factor.vectors), np.full((2, 2), 1 / np.sqrt(2)),
                        atol=1e-12)
    assert factor.clip_report.retained == 2
    assert factor.clip_report.discarded == 0
    phi = K @ factor.projection()
    npt.assert_allclose(phi @ phi.T, K, atol=1e-12)


def test_eigen_projection_clips_negative_spectrum():
    # [[0,1],[1,0]] has eigenvalues +1 and -1; only +1 survives
    K = np.array([[0.0, 1.0], [1.0, 0.0]])
    factor = eigen_projection(K)
    npt.assert_allclose(factor.values, [1.0], atol=1e-12)
    report = factor.clip_report
    assert report.retained == 1
    assert report.discarded == 1
    assert report.discarded_max_abs == pytest.approx(1.0)
    assert report.discarded_abs_sum == pytest.approx(1.0)


def test_eigen_projection_degenerate_and_invalid():
    with pytest.raises(DegenerateGramError):
        eigen_projection(np.zeros((3, 3)))
    with pytest.raises(DegenerateGramError):
        eigen_projection(-np.eye(2))
    with pytest.raises(DegenerateGramError):
        # clip ratio at 1 removes everything below the top eigenvalue,
        # including the top itself (strict inequality)
        eigen_projection(np.eye(2), clip_ratio=1.0)
    with pytest.raises(InputError):
        eigen_projection(np.ones((2, 3)))
    with pytest.raises(InputError):
        eigen_projection(np.zeros((0, 0)))
    with pytest.raises(InputError):
        eigen_projection(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(InputError):
        eigen_projection(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ConfigError):
        eigen_projection(np.eye(2), clip_ratio=-0.1)
    # non-numbers are refused as the numbers are, not by a raw TypeError
    anchors = AnchorSet(samples=np.eye(3))
    arch = default_architecture(default_input_kernels(), seed=0)
    for clip_ratio in ("x", None):
        with pytest.raises(ConfigError, match="clip_ratio must be finite"):
            eigen_projection(np.eye(2), clip_ratio=clip_ratio)
        with pytest.raises(ConfigError, match="clip_ratio must be finite"):
            build_dmn(arch, anchors, clip_ratio=clip_ratio)


def test_eigen_projection_descending_and_reconstructive():
    rng = np.random.default_rng(21)
    for trial in range(10):
        n = int(rng.integers(3, 10))
        A = rng.standard_normal((n, n + 2))
        K = A @ A.T  # full-rank psd almost surely
        factor = eigen_projection(K)
        assert (np.diff(factor.values) <= 1e-12).all()
        assert factor.values.min() > 0
        phi = K @ factor.projection()
        err = np.linalg.norm(phi @ phi.T - K, 2) / np.linalg.norm(K, 2)
        assert err <= 1e-8


def test_eigen_projection_makes_no_gram_sized_copies():
    # eigh's own copy of the gram and its eigenvectors are the only
    # gram-sized arrays; the symmetry check runs one block of rows at a time
    rng = np.random.default_rng(22)
    K = gram_matrix(KernelSpec("rbf", gamma=0.5), rng.random((1000, 10))).values
    tracemalloc.start()
    try:
        factor = eigen_projection(K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert factor.values.size > 0
    assert peak < 2.5 * K.nbytes


def test_anchor_set_validation():
    with pytest.raises(InputError):
        AnchorSet(samples=np.ones((1, 3)))
    with pytest.raises(InputError):
        AnchorSet(samples=np.ones(3))
    with pytest.raises(InputError):
        AnchorSet(samples=np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(InputError):
        AnchorSet(samples=np.ones((3, 2)), ids=("a", "a", "b"))
    for ids in (([1], [2], {}), tuple(np.arange(3)), (True, 0, 1)):
        with pytest.raises(InputError, match="strings or integers"):
            AnchorSet(samples=np.ones((3, 2)), ids=ids)
    anchors = AnchorSet(samples=np.ones((3, 2)))
    assert anchors.count == 3 and anchors.ids == (0, 1, 2)


def test_input_layer_reproduces_base_grams():
    rng = np.random.default_rng(30)
    anchors = AnchorSet(samples=rng.uniform(0.0, 1.0, size=(12, 4)))
    specs = default_input_kernels(gamma=0.6)
    units = build_dmn(default_architecture(specs), anchors).layers[0]
    assert len(units) == len(specs)
    for spec, unit in zip(specs, units):
        K = gram_matrix(spec, anchors.samples).values
        # the unit's anchors are its map of the anchor samples
        phi = unit.anchors
        err = np.linalg.norm(phi @ phi.T - K, 2) / np.linalg.norm(K, 2)
        assert err <= 1e-8
        assert unit.anchors.shape == (anchors.count, unit.width)


def test_build_dmn_reconstruction_small():
    rng = np.random.default_rng(31)
    anchors = AnchorSet(samples=rng.uniform(0.0, 0.05, size=(30, 6)))
    arch = default_architecture(default_input_kernels(), seed=31)
    model = build_dmn(arch, anchors)
    errors = reconstruction_errors(model)
    assert len(errors) == arch.num_layers
    worst = max(max(layer) for layer in errors)
    assert worst <= 1e-6


def test_build_dmn_unit_metadata():
    model = helpers.toy_model(seed=33)
    for units in model.layers:
        for unit in units:
            assert unit.clip_report is not None
            assert unit.clip_report.retained == unit.projection.shape[1]
    # trained parameters are per-model copies, not views of the inputs
    assert model.anchor_samples.flags.owndata


def test_build_errors_name_layer_and_unit():
    # all-zero anchors make the linear gram identically zero, so the very
    # first unit has nothing to retain
    anchors = AnchorSet(samples=np.zeros((3, 2)))
    arch = default_architecture(default_input_kernels(), seed=0)
    with pytest.raises(DegenerateGramError, match="layer 1, unit 1"):
        build_dmn(arch, anchors)


def test_build_exp_overflow_guard():
    rng = np.random.default_rng(34)
    # an exp unit fed directly by a linear kernel at huge feature scale
    # sees arguments past the float64 range; the builder must fail loudly
    # rather than emit inf
    anchors = AnchorSet(samples=rng.uniform(0.0, 60.0, size=(6, 3)))
    arch = DknArchitecture(
        input_kernels=[KernelSpec("linear")],
        layers=[LayerSpec(width=1, activation="exp", weights=[[1.0]])],
    )
    with pytest.raises(NumericRangeError, match="exp argument"):
        build_dmn(arch, anchors)


def test_reconstruction_errors_independent_reference():
    # the reference side comes from the implicit recursion on exact base
    # grams, the candidate side from the explicit maps; agreement is the
    # content of the check, so corrupting the model must show up
    model = helpers.toy_model(seed=35, scale=0.05)
    clean = max(max(layer) for layer in reconstruction_errors(model))
    assert clean <= 1e-6
    model.layers[1][0].projection = model.layers[1][0].projection * 1.5
    corrupted = reconstruction_errors(model)
    assert max(corrupted[1]) > 1e-3


def test_reconstruction_errors_match_svd_norms():
    # the library takes spectral norms from eigvalsh; the reference here
    # takes them from the SVD behind np.linalg.norm(., 2)
    model = helpers.toy_model(seed=35, scale=0.05)
    S = model.anchor_samples
    reference = list(gram_layers(
        model.arch, [gram_matrix(spec, S) for spec in model.arch.input_kernels]))
    _, maps = forward_batch(model, S)
    errors = reconstruction_errors(model)
    assert [len(layer) for layer in errors] == model.arch.widths
    for l, layer in enumerate(errors):
        for p, error in enumerate(layer):
            K = reference[l][p].values
            phi = maps[l][p]
            expected = np.linalg.norm(phi @ phi.T - K, 2) / np.linalg.norm(K, 2)
            assert error == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_reconstruction_errors_hold_two_layers_of_grams():
    # the forward pass's maps, then at most two layers of reference grams
    # and one unit's map gram and eigvalsh copy; holding every reference
    # gram beside the whole forward trace took 35.5 gram sizes here
    n = 300
    data = generate_synthetic(SyntheticSpec(num_samples=n, num_features=10,
                                            num_classes=5, noise=0.1, seed=1))
    model = build_dmn(default_architecture(default_input_kernels()),
                      AnchorSet(samples=data.features), clip_ratio=1e-10)
    tracemalloc.start()
    try:
        errors = reconstruction_errors(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(errors[0]) <= 1e-8
    assert peak < 28 * n * n * 8


def test_reconstruction_errors_name_the_overflowing_unit():
    # the forward pass runs before any reference gram, so an overflowing
    # network kernel is reported with its layer and unit
    model = helpers.toy_model(seed=35, scale=0.05)
    model.arch.layers[-1].weights = model.arch.layers[-1].weights * 1e6
    with pytest.raises(NumericRangeError, match="layer 3, unit 1"):
        reconstruction_errors(model)


def test_two_layer_identity_build_is_exact():
    rng = np.random.default_rng(36)
    anchors = AnchorSet(samples=rng.uniform(0.0, 0.5, size=(10, 3)))
    arch = DknArchitecture(
        input_kernels=[KernelSpec("linear")],
        layers=[LayerSpec(width=1, activation="identity", weights=[[1.0]])],
    )
    model = build_dmn(arch, anchors)
    errors = reconstruction_errors(model)
    assert max(max(layer) for layer in errors) <= 1e-8


def test_repeated_builds_are_identical():
    rng = np.random.default_rng(37)
    anchors = AnchorSet(samples=rng.uniform(0.0, 0.05, size=(12, 4)))
    arch = default_architecture(default_input_kernels(), seed=37)
    first = build_dmn(arch, anchors)
    second = build_dmn(arch, anchors)
    for units_a, units_b in zip(first.layers, second.layers):
        for ua, ub in zip(units_a, units_b):
            assert (ua.anchors == ub.anchors).all()
            assert (ua.projection == ub.projection).all()


def test_more_anchors_reconstruct_held_out_points_better():
    # growing the anchor set must not hurt the approximation away from the
    # anchors; on the anchors themselves the comparison is confounded
    # because the clip threshold scales with the top eigenvalue
    def final_error_on(model, samples, arch):
        grams = [gram_matrix(spec, samples) for spec in arch.input_kernels]
        K = list(gram_layers(arch, grams))[-1][0].values
        phi, _ = forward_batch(model, samples)
        Khat = phi @ phi.T
        return float(np.linalg.norm(Khat - K, 2) / np.linalg.norm(K, 2))

    for seed in range(5):
        rng = np.random.default_rng(seed)
        pool = rng.uniform(0.0, 0.05, size=(60, 5))
        held_out = rng.uniform(0.0, 0.05, size=(15, 5))
        arch = default_architecture(default_input_kernels(), seed=seed)
        small = build_dmn(arch, AnchorSet(samples=pool[:15]))
        superset = build_dmn(arch, AnchorSet(samples=pool))
        err_small = final_error_on(small, held_out, arch)
        err_superset = final_error_on(superset, held_out, arch)
        assert err_superset <= err_small
