"""Alternating optimization: hinge solves, gradients, the training loop."""

import numpy as np
import numpy.testing as npt
import pytest

import helpers
from dmapnet import (ClassifierHead, ConfigError, InputError, LabeledDataset,
                     TrainConfig, TrainingDivergedError, backprop,
                     cross_validate_C, forward_batch, format_history,
                     grad_output, objective, svm_solve, train,
                     train_with_guard)
from dmapnet.training import (CONVERGENCE_WINDOW, apply_gradients,
                              as_per_class_c)


def test_solver_closed_form_symmetric_pair():
    # two samples at +1 and -1 with matching labels: the stationary point
    # of w^2/2 + 2 C (1 - w)^2 sits at w = 4C / (1 + 4C)
    F = np.array([[1.0], [-1.0]])
    Y = np.array([[1.0], [-1.0]])
    for c in (0.25, 1.0, 4.0, 10.0):
        omega = svm_solve(F, Y, c)
        npt.assert_allclose(omega[0, 0], 4 * c / (1 + 4 * c), atol=1e-9)


def test_solver_matches_long_run_descent_oracle():
    rng = np.random.default_rng(41)
    for trial in range(6):
        n = int(rng.integers(10, 25))
        d = int(rng.integers(2, 6))
        F = rng.standard_normal((n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        c = float(rng.uniform(0.1, 5.0))
        w_lib = svm_solve(F, y[:, None], c)[0]
        w_ora = helpers.gd_hinge_solve(F, y, c)
        v_lib = helpers.hinge_objective(F, y, c, w_lib)
        v_ora = helpers.hinge_objective(F, y, c, w_ora)
        assert abs(v_lib - v_ora) <= 1e-4 * max(1.0, abs(v_ora))


def test_solver_never_beats_zero_start_badly():
    rng = np.random.default_rng(42)
    F = rng.standard_normal((15, 4))
    y = np.where(rng.random(15) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    for c in (0.1, 1.0, 10.0):
        w = svm_solve(F, y[:, None], c)[0]
        at_zero = helpers.hinge_objective(F, y, c, np.zeros(4))
        assert helpers.hinge_objective(F, y, c, w) <= at_zero + 1e-12


def test_solver_warm_start_agrees_with_cold():
    rng = np.random.default_rng(43)
    F = rng.standard_normal((12, 3))
    Y = np.where(rng.random((12, 2)) < 0.5, 1.0, -1.0)
    Y[0, :], Y[1, :] = 1.0, -1.0
    cold = svm_solve(F, Y, 1.0)
    warm = svm_solve(F, Y, 1.0, initial=cold + 0.05)
    for k in range(2):
        v_cold = helpers.hinge_objective(F, Y[:, k], 1.0, cold[k])
        v_warm = helpers.hinge_objective(F, Y[:, k], 1.0, warm[k])
        assert abs(v_cold - v_warm) <= 1e-6 * max(1.0, abs(v_cold))


def test_solver_input_validation():
    F = np.ones((2, 2))
    with pytest.raises(InputError):
        svm_solve(F, np.array([[1.0], [0.5]]), 1.0)
    with pytest.raises(InputError):
        svm_solve(F, np.ones((3, 1)), 1.0)
    with pytest.raises(ConfigError):
        svm_solve(F, np.array([[1.0], [-1.0]]), -1.0)


def test_as_per_class_c():
    npt.assert_allclose(as_per_class_c(2.0, 3), [2.0, 2.0, 2.0])
    npt.assert_allclose(as_per_class_c([1.0, 2.0], 2), [1.0, 2.0])
    with pytest.raises(ConfigError):
        as_per_class_c([1.0, 2.0], 3)
    with pytest.raises(ConfigError):
        as_per_class_c(0.0, 2)


def test_grad_output_hand_value():
    # one sample, one class: score 0, margin 1, so the gradient is
    # -2 C y margin omega = -2 * 2 * 1 * 1 * (1, 0) = (-4, 0)
    head = ClassifierHead(np.array([[1.0, 0.0]]), np.array([2.0]))
    F = np.array([[0.0, 1.0]])
    Y = np.array([[1.0]])
    npt.assert_allclose(grad_output(head, F, Y), [[-4.0, 0.0]], atol=1e-15)
    # clamped margin contributes nothing
    F2 = np.array([[2.0, 0.0]])
    npt.assert_allclose(grad_output(head, F2, Y), [[0.0, 0.0]], atol=1e-15)


def test_objective_decomposition():
    model, head, data = helpers.toy_problem(seed=44)
    final, _ = forward_batch(model, data.features)
    C = head.trade_offs
    margins = np.maximum(0.0, 1.0 - data.labels * (final @ head.normals.T))
    by_hand = 0.5 * np.sum(head.normals ** 2) + np.sum(C * margins ** 2)
    npt.assert_allclose(objective(model, head, data), by_hand, rtol=1e-12)


def test_backprop_matches_finite_differences():
    from dmapnet import finite_difference_gradients

    model, head, data = helpers.toy_problem(seed=45)
    final, trace = forward_batch(model, data.features)
    bundle = backprop(model, trace, grad_output(head, final, data.labels))
    numeric = finite_difference_gradients(model, head, data, step=1e-5)
    for l in range(len(model.layers)):
        for p in range(len(model.layers[l])):
            npt.assert_allclose(bundle.u_grads[l][p], numeric.u_grads[l][p],
                                rtol=1e-4, atol=1e-7)
            if l > 0:
                npt.assert_allclose(bundle.anchor_grads[l][p],
                                    numeric.anchor_grads[l][p],
                                    rtol=1e-4, atol=1e-7)
    for li in range(len(model.arch.layers)):
        a = bundle.weight_grads[li]
        n = numeric.weight_grads[li]
        mask = ~np.isnan(n)
        npt.assert_allclose(a[mask], n[mask], rtol=1e-4, atol=1e-7)


def test_backprop_zero_weight_subgradient():
    model, head, data = helpers.toy_problem(seed=46)
    model.arch.layers[0].weights = model.arch.layers[0].weights.copy()
    model.arch.layers[0].weights[0, 0] = 0.0
    final, trace = forward_batch(model, data.features)
    bundle = backprop(model, trace, grad_output(head, final, data.labels))
    assert bundle.weight_grads[0][0, 0] == 0.0
    assert bundle.anchor_grads[0][0] is None  # input anchors are derived


def test_apply_gradients_clips_weights():
    model, head, data = helpers.toy_problem(seed=47)
    final, trace = forward_batch(model, data.features)
    bundle = backprop(model, trace, grad_output(head, final, data.labels))
    bundle.weight_grads[0] = np.full_like(bundle.weight_grads[0], 1e9)
    apply_gradients(model, bundle, 1.0)
    assert (model.arch.layers[0].weights == 0.0).all()


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(max_iters=0)
    with pytest.raises(ConfigError):
        TrainConfig(convergence_tol=-0.1)


def test_train_leaves_inputs_untouched():
    model, head, data = helpers.toy_problem(seed=48)
    w_before = model.arch.layers[0].weights.copy()
    u_before = model.layers[1][0].projection.copy()
    normals_before = head.normals.copy()
    cfg = TrainConfig(learning_rate=1e-7, max_iters=4, c_policy=1.0,
                      convergence_tol=0.0)
    trained, trained_head, history = train(model, head, data, cfg)
    assert (model.arch.layers[0].weights == w_before).all()
    assert (model.layers[1][0].projection == u_before).all()
    assert (head.normals == normals_before).all()
    assert len(history) == 4
    assert trained is not model and trained_head is not head


def test_train_is_deterministic():
    model, head, data = helpers.toy_problem(seed=49)
    cfg = TrainConfig(learning_rate=1e-7, max_iters=6, c_policy=1.0,
                      convergence_tol=0.0)
    _, _, h1 = train(model, head, data, cfg)
    _, _, h2 = train(model, head, data, cfg)
    log1 = [(e.iteration, e.objective, e.hinge, e.regularizer) for e in h1]
    log2 = [(e.iteration, e.objective, e.hinge, e.regularizer) for e in h2]
    assert log1 == log2  # bit-identical, wall time excluded


def test_train_weights_stay_nonnegative():
    model, head, data = helpers.toy_problem(seed=50)
    cfg = TrainConfig(learning_rate=1e-5, max_iters=10, c_policy=4.0,
                      convergence_tol=0.0)
    trained, _, _ = train(model, head, data, cfg)
    for layer in trained.arch.layers:
        assert (layer.weights >= 0.0).all()


def test_train_objective_is_solver_optimal_each_iteration():
    # the logged objective is recorded after the exact hinge solve, so
    # re-solving at the trained state cannot improve on the last entry
    model, head, data = helpers.toy_problem(seed=51)
    cfg = TrainConfig(learning_rate=1e-7, max_iters=5, c_policy=1.0,
                      convergence_tol=0.0)
    trained, trained_head, history = train(model, head, data, cfg)
    final, _ = forward_batch(trained, data.features)
    resolved = svm_solve(final, data.labels, 1.0, initial=trained_head.normals)
    C = as_per_class_c(1.0, data.num_classes)
    margins = np.maximum(0.0, 1.0 - data.labels * (final @ resolved.T))
    value = 0.5 * np.sum(resolved ** 2) + np.sum(C * margins ** 2)
    assert value <= history[-1].objective + 1e-9 * abs(history[-1].objective)


def test_train_convergence_window():
    model, head, data = helpers.toy_problem(seed=52)
    cfg = TrainConfig(learning_rate=0.0, max_iters=200, c_policy=1.0,
                      convergence_tol=1e-6)
    _, _, history = train(model, head, data, cfg)
    # zero learning rate keeps the objective constant, so the loop stops
    # right after the convergence window fills
    assert len(history) == CONVERGENCE_WINDOW + 1
    objs = {e.objective for e in history}
    assert len(objs) == 1


def test_train_divergence_carries_last_state():
    model, head, data = helpers.toy_problem(seed=54)
    cfg = TrainConfig(learning_rate=1e6, max_iters=50, c_policy=10.0,
                      convergence_tol=0.0)
    with pytest.raises(TrainingDivergedError) as info:
        train(model, head, data, cfg)
    err = info.value
    assert err.history, "at least one iteration must have been logged"
    assert err.model is not None and err.head is not None
    # the attached state is finite and usable
    final, _ = forward_batch(err.model, data.features)
    assert np.isfinite(final).all()


def test_apply_gradients_leaves_replaced_arrays_unchanged():
    # the training loop snapshots parameters by reference, which is only
    # sound while a step rebinds the arrays instead of writing into them
    model, head, data = helpers.toy_problem(seed=66)
    final, trace = forward_batch(model, data.features)
    bundle = backprop(model, trace, grad_output(head, final, data.labels))
    owners = [(unit, name) for units in model.layers for unit in units
              for name in ("projection", "anchors")]
    owners += [(spec, "weights") for spec in model.arch.layers]
    before = [getattr(owner, name) for owner, name in owners]
    copies = [array.copy() for array in before]
    apply_gradients(model, bundle, 1e-2)
    for (owner, name), old, saved in zip(owners, before, copies):
        assert (old == saved).all()
    changed = [getattr(owner, name) is not old
               for (owner, name), old in zip(owners, before)]
    assert any(changed)


def test_backtracking_never_reruns_an_accepted_iteration(monkeypatch):
    import dmapnet.training as training

    model, head, data = helpers.toy_problem(seed=64)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return forward_batch(*args, **kwargs)

    monkeypatch.setattr(training, "forward_batch", counted)
    cfg = TrainConfig(learning_rate=10.0, max_iters=15, c_policy=4.0,
                      convergence_tol=0.0)
    _, _, history, eta = train_with_guard(model, head, data, cfg,
                                          max_halvings=40)
    halvings = int(round(np.log2(cfg.learning_rate / eta)))
    assert halvings > 0
    # one evaluation per logged iteration plus one per rejected step
    assert len(calls) == len(history) + halvings
    objs = [e.objective for e in history]
    assert all(b <= a for a, b in zip(objs, objs[1:]))


def test_exhausted_halvings_carry_the_last_accepted_state():
    model, head, data = helpers.toy_problem(seed=65)
    cfg = TrainConfig(learning_rate=1e9, max_iters=10, c_policy=10.0,
                      convergence_tol=0.0)
    with pytest.raises(TrainingDivergedError) as info:
        train_with_guard(model, head, data, cfg, max_halvings=1)
    err = info.value
    # the first iterate was accepted; every step from it was rejected
    assert [e.iteration for e in err.history] == [1]
    final, _ = forward_batch(err.model, data.features)
    assert np.isfinite(final).all()
    npt.assert_allclose(objective(err.model, err.head, data),
                        err.history[-1].objective, rtol=1e-12)


def test_format_history_round_trips():
    model, head, data = helpers.toy_problem(seed=55)
    cfg = TrainConfig(learning_rate=1e-7, max_iters=3, c_policy=1.0,
                      convergence_tol=0.0)
    _, _, history = train(model, head, data, cfg)
    text = format_history(history)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    for line, entry in zip(lines, history):
        it, obj, hinge, reg, wall = line.split("\t")
        assert int(it) == entry.iteration
        assert float(obj) == entry.objective  # repr round-trips exactly
        assert float(hinge) == entry.hinge
        assert float(reg) == entry.regularizer
    assert format_history([]) == ""


def test_cross_validation_single_value_grid():
    model, head, data = helpers.toy_problem(seed=56, n=12)
    chosen = cross_validate_C(data, model, folds=3, grid=(0.7,))
    npt.assert_allclose(chosen, np.full(data.num_classes, 0.7))


def test_cross_validation_prefers_smallest_winning_c():
    from dmapnet import AnchorSet, DknArchitecture, KernelSpec, LayerSpec
    from dmapnet import build_dmn

    # clearly separable single feature: each fold holds one positive and
    # one negative, so several grid values reach the same mean F and the
    # tie must resolve to the smallest
    X = np.array([[2.0], [-2.0], [1.5], [-1.5], [1.8], [-1.8]])
    Y = np.array([[1.0], [-1.0], [1.0], [-1.0], [1.0], [-1.0]])
    data = LabeledDataset(features=X, labels=Y)
    anchors = AnchorSet(samples=np.array([[1.0], [-1.0], [0.5], [-0.5]]))
    arch = DknArchitecture(
        input_kernels=[KernelSpec("linear")],
        layers=[LayerSpec(width=1, activation="tanh",
                          weights=np.array([[1.0]]))],
    )
    model = build_dmn(arch, anchors)
    grid = (0.5, 1.0, 2.0)
    chosen = cross_validate_C(data, model, folds=3, grid=grid)

    # independent exhaustive oracle over the same folds and final maps
    final, _ = forward_batch(model, data.features)
    fold_of = np.arange(data.num_samples) % 3
    best = None
    for c in sorted(grid):
        scores = []
        for f in range(3):
            val = fold_of == f
            trn = ~val
            y = Y[:, 0]
            if not ((y[val] > 0).any() and (y[trn] > 0).any()
                    and (y[trn] < 0).any()):
                continue
            w = helpers.gd_hinge_solve(final[trn], y[trn], c)
            pred = final[val] @ w > 0
            truth = y[val] > 0
            tp = int((pred & truth).sum())
            if tp == 0:
                scores.append(1.0 if not pred.any() and not truth.any() else 0.0)
            else:
                prec = tp / int(pred.sum())
                rec = tp / int(truth.sum())
                scores.append(2 * prec * rec / (prec + rec))
        mean_f = float(np.mean(scores))
        if best is None or mean_f > best[1]:
            best = (c, mean_f)
    assert chosen[0] == best[0]


def test_cross_validation_edge_cases():
    model, head, data = helpers.toy_problem(seed=58, n=4)
    chosen = cross_validate_C(data, model, folds=2, grid=(1.0, 2.0))
    assert chosen.shape == (data.num_classes,)
    with pytest.raises(ConfigError):
        cross_validate_C(data, model, folds=1)
    with pytest.raises(ConfigError):
        cross_validate_C(data, model, folds=2, grid=())
    with pytest.raises(ConfigError):
        cross_validate_C(data, model, folds=2, grid=(-1.0,))
    with pytest.raises(ConfigError):
        cross_validate_C(data, model, folds=10, grid=(1.0,))
