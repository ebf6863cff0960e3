"""Base kernels: single evaluations, gram matrices and their agreement."""

import numpy as np
import numpy.testing as npt
import pytest

from dmapnet import (ConfigError, GramMatrix, InputError, KernelSpec,
                     eval_kernel, gram_matrix)

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
    gm = gram_matrix(KernelSpec("linear"), X, row_ids=("a", "b", "c"))
    assert gm.row_ids == ("a", "b", "c")
    assert gm.col_ids == ("a", "b", "c")
    assert gm.shape == (3, 3)


def test_gram_matrix_container_validation():
    with pytest.raises(InputError):
        # shared ids claim one sample list, so asymmetry is an error
        GramMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]), ("a", "b"), ("a", "b"))
    with pytest.raises(InputError):
        GramMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(InputError):
        GramMatrix(np.zeros((2, 3)), row_ids=("a",), col_ids=("x", "y"))
    # different ids: rectangular and asymmetric values are fine
    GramMatrix(np.ones((2, 3)), row_ids=("a", "b"), col_ids=("x", "y", "z"))
    GramMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))  # no shared-id claim


def test_square_cross_gram_between_distinct_sets_is_accepted():
    rng = np.random.default_rng(12)
    X = rng.random((5, 3))
    Y = rng.random((5, 3))
    gm = gram_matrix(KernelSpec("rbf", gamma=0.5), X, Y)
    assert gm.shape == (5, 5)
    # the self gram still claims shared ids and checks symmetry
    self_gm = gram_matrix(KernelSpec("rbf", gamma=0.5), X)
    assert self_gm.row_ids == self_gm.col_ids


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
