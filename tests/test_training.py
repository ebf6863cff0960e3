"""Alternating optimization: hinge solves, gradients, the training loop."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import helpers
from dmapnet import (AnchorSet, ClassifierHead, ConfigError, InputError,
                     LabeledDataset, NumericRangeError, SyntheticSpec,
                     TrainConfig, TrainingDivergedError, backprop, build_dmn,
                     cross_validate_C, default_architecture,
                     default_input_kernels, forward_batch, forward_trace,
                     format_history, generate_synthetic, grad_output,
                     input_kernel_rows, objective, svm_solve, train,
                     train_with_guard)
from dmapnet import kernels
from dmapnet.training import (CONVERGENCE_WINDOW, apply_gradients,
                              as_per_class_c, parameters)


def _trace(model, data):
    return forward_trace(model, input_kernel_rows(model, data.features))


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


def test_solver_builds_its_hessian_in_place():
    # beyond F and the normals, a Newton step holds the active rows, one
    # d x d Hessian and the solver's copy of it
    rng = np.random.default_rng(44)
    n, d = 400, 300
    F = rng.standard_normal((n, d))
    Y = np.where(rng.random((n, 3)) < 0.5, 1.0, -1.0)
    tracemalloc.start()
    try:
        svm_solve(F, Y, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * d * d * 8


def test_solver_input_validation():
    F = np.ones((2, 2))
    with pytest.raises(InputError):
        svm_solve(F, np.array([[1.0], [0.5]]), 1.0)
    with pytest.raises(InputError):
        svm_solve(F, np.ones((3, 1)), 1.0)
    with pytest.raises(ConfigError):
        svm_solve(F, np.array([[1.0], [-1.0]]), -1.0)
    for c_policy in ("x", ["x"], {}):
        with pytest.raises(ConfigError, match="trade-offs must be numbers"):
            svm_solve(F, np.array([[1.0], [-1.0]]), c_policy)
    # a NaN start used to fail as an unconverged solve, strings as numpy's
    # raw ValueError
    for initial, message in (([[np.nan, 0.0]], "initial normals must be finite"),
                             ([["a", "b"]], "initial normals must be numbers")):
        with pytest.raises(InputError, match=message):
            svm_solve(F, np.array([[1.0], [-1.0]]), 1.0, initial=initial)


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


def test_training_trace_has_forward_batch_maps():
    # training walks from its cached kernel rows, which stay whole for the
    # next evaluation, and its maps are forward_batch's, bit for bit
    model = helpers.toy_model(seed=7)
    X = np.random.default_rng(8).uniform(0.0, 0.5, size=(6, 3))
    rows = input_kernel_rows(model, X)
    _, maps = forward_batch(model, X)
    for _ in range(2):
        trace = forward_trace(model, rows)
        assert [len(layer) for layer in trace.out] == model.arch.widths
        for traced, kept in zip(trace.out, maps, strict=True):
            assert all((a == b).all() for a, b in zip(traced, kept, strict=True))
        assert all(h is k for h, k in zip(trace.h[0], rows, strict=True))
    assert trace.final is trace.out[-1][0]


def test_backprop_matches_finite_differences():
    from dmapnet import finite_difference_gradients

    # a zero mixing weight is an ordinary coordinate: the objective is
    # linear in the weights, so differences across zero are exact
    model, head, data = helpers.toy_problem(seed=45)
    with_zero = helpers.toy_problem(seed=45)[0]
    with_zero.arch.layers[0].weights[0, 0] = 0.0
    for m in (model, with_zero):
        trace = _trace(m, data)
        grads = backprop(m, trace, grad_output(head, trace.final, data.labels))
        numeric = finite_difference_gradients(m, head, data, step=1e-5)
        params = parameters(m)
        assert len(grads) == len(numeric) == len(params)
        for (name, owner, attribute), analytic, differenced in zip(
                params, grads, numeric):
            assert analytic.shape == getattr(owner, attribute).shape, name
            npt.assert_allclose(analytic, differenced, rtol=1e-4, atol=1e-7,
                                err_msg=name)


def test_apply_gradients_clips_weights():
    model, head, data = helpers.toy_problem(seed=47)
    trace = _trace(model, data)
    grads = backprop(model, trace, grad_output(head, trace.final, data.labels))
    first_weights = [i for i, (_, owner, _) in enumerate(parameters(model))
                     if owner is model.arch.layers[0]]
    assert len(first_weights) == 1
    grads[first_weights[0]] = np.full_like(grads[first_weights[0]], 1e9)
    apply_gradients(model, grads, 1.0)
    assert (model.arch.layers[0].weights == 0.0).all()


def test_backprop_names_the_non_finite_parameter():
    model, head, data = helpers.toy_problem(seed=48)
    trace = _trace(model, data)
    out_grads = grad_output(head, trace.final, data.labels)
    # a non-finite output gradient is the caller's error; the largest
    # finite one overflows inside backprop
    out_grads[0, 0] = np.inf
    with pytest.raises(InputError, match="output gradients must be finite"):
        backprop(model, trace, out_grads)
    out_grads[0, 0] = np.finfo(np.float64).max
    name = r"[UA]\[layer \d+\]\[unit \d+\]"
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericRangeError, match=f"non-finite gradient of {name}"):
            backprop(model, trace, out_grads)
    # without a caller's errstate, numpy's warning (an error under this
    # suite's filter) must not escape before the named error
    with pytest.raises(NumericRangeError, match=f"non-finite gradient of {name}"):
        backprop(model, trace, out_grads)


@pytest.fixture(scope="module")
def criterion_3_problem():
    """Criterion 3's data, anchors, network and clip, without its CV."""
    data = generate_synthetic(SyntheticSpec(num_samples=300, num_features=10,
                                            num_classes=5, noise=0.1, seed=7))
    anchors = AnchorSet(samples=data.features[:100], ids=data.ids[:100])
    model = build_dmn(default_architecture(default_input_kernels(), seed=7),
                      anchors, clip_ratio=1e-6)
    return model, data, 8 * data.num_samples * model.anchor_count


def test_backprop_holds_one_layer_of_ds_beyond_its_trace(criterion_3_problem):
    # beyond the trace it reads and the gradients it returns, backprop holds
    # one layer's ds, one lower unit's S_q or d_pre_q and the lower units'
    # map gradients; keeping every d_pre_q and the layer above's sums while
    # ds was made took 30.2 gram sizes here, now 15.6
    model, data, gram = criterion_3_problem
    head = ClassifierHead.random(5, model.final_width, seed=7)
    trace = _trace(model, data)
    out_grads = grad_output(head, trace.final, data.labels)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        grads = backprop(model, trace, out_grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grads) == len(parameters(model))
    assert peak - before < 22 * gram


def test_train_with_guard_holds_one_trace_at_a_time(criterion_3_problem):
    # the last trace goes before the next forward pass, the last gradients
    # before backprop and the last snapshot once an evaluation is accepted;
    # holding each beside its replacement peaked at 66.3 gram sizes here,
    # now 42.1
    model, data, gram = criterion_3_problem
    head = ClassifierHead.random(5, model.final_width, seed=7)
    cfg = TrainConfig(learning_rate=1e-6, max_iters=4, convergence_tol=0.0)
    tracemalloc.start()
    try:
        history = train_with_guard(model, head, data, cfg)[2]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(history) == 4
    assert peak < 52 * gram


def _first_step(model, head, data, monkeypatch):
    """The first objective and the gradients of one guarded iteration."""
    import dmapnet.training as training

    steps = []

    def recorded(model, grads, eta):
        steps.append([grad.copy() for grad in grads])
        apply_gradients(model, grads, eta)

    monkeypatch.setattr(training, "apply_gradients", recorded)
    cfg = TrainConfig(learning_rate=1e-7, max_iters=2, c_policy=1.0,
                      convergence_tol=0.0)
    history = train_with_guard(model, head, data, cfg)[2]
    return history[0].objective, steps[0]


def test_row_blocks_give_one_blocks_objective_choice_and_gradients(monkeypatch):
    # given fixed normals every gradient is a sum over samples, so blocks'
    # gradients add up to the batch's, up to the order of the sums
    model, head, data = helpers.toy_problem(seed=73, n=20)
    one = (objective(model, head, data), cross_validate_C(data, model, folds=3),
           _first_step(model, head, data, monkeypatch))
    monkeypatch.setattr(kernels, "WALK_BYTES", 3 * model.anchor_count * 8)
    assert len(kernels.walk_blocks(data.num_samples, model.anchor_count)) == 7
    npt.assert_allclose(objective(model, head, data), one[0], rtol=1e-12)
    assert (cross_validate_C(data, model, folds=3) == one[1]).all()
    first, grads = _first_step(model, head, data, monkeypatch)
    npt.assert_allclose(first, one[2][0], rtol=1e-12)
    for (name, _, _), blocked, whole in zip(parameters(model), grads, one[2][1],
                                            strict=True):
        gap = np.max(np.abs(blocked - whole), initial=0.0)
        assert gap <= 1e-12 * np.max(np.abs(whole), initial=0.0), name


def test_train_with_guard_holds_one_block_beyond_its_kernel_rows(monkeypatch):
    # n = 3000, m = 100, clip 1e-4, in 300-row blocks: beyond the cached
    # kernel rows, one iteration holds one block's trace and backprop, the
    # final maps and the solver's copies of them, and parameter-sized
    # snapshots; holding the whole batch's trace peaked at 300 block sizes
    data = generate_synthetic(SyntheticSpec(num_samples=3000, num_features=10,
                                            num_classes=5, noise=0.1, seed=7))
    m = 100
    model = build_dmn(default_architecture(default_input_kernels(), seed=7),
                      AnchorSet(samples=data.features[:m]), clip_ratio=1e-4)
    head = ClassifierHead.random(5, model.final_width, seed=7)
    block = 300 * m * 8
    monkeypatch.setattr(kernels, "WALK_BYTES", block)
    kernel_rows = len(model.arch.input_kernels) * data.num_samples * m * 8
    final = data.num_samples * model.final_width * 8
    params = sum(getattr(o, a).nbytes for _, o, a in parameters(model))
    cfg = TrainConfig(learning_rate=1e-6, max_iters=2, convergence_tol=0.0)
    tracemalloc.start()
    try:
        history = train_with_guard(model, head, data, cfg)[2]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(history) == 2
    assert peak < kernel_rows + 30 * block + 3 * final + 4 * params


def test_non_finite_gradient_ends_training_with_the_accepted_state(monkeypatch):
    import dmapnet.training as training

    model, head, data = helpers.toy_problem(seed=48)
    calls = []

    def failing_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NumericRangeError("non-finite gradient of U[layer 1][unit 1]")
        return backprop(*args, **kwargs)

    monkeypatch.setattr(training, "backprop", failing_second)
    cfg = TrainConfig(learning_rate=1e-7, max_iters=5, c_policy=1.0,
                      convergence_tol=0.0)
    with pytest.raises(TrainingDivergedError, match="non-finite gradient") as info:
        train_with_guard(model, head, data, cfg)
    err = info.value
    # the gradient at iteration 2 failed; halving the rate cannot help
    assert [e.iteration for e in err.history] == [1, 2]
    npt.assert_allclose(objective(err.model, err.head, data),
                        err.history[-1].objective, rtol=1e-12)


def _wide_initial(model, head, data):
    final, _ = forward_batch(model, data.features)
    svm_solve(final, data.labels, 1.0,
              initial=np.zeros((head.num_classes, model.final_width + 1)))


def _train_wide_head(model, head, data):
    wide = ClassifierHead(np.hstack([head.normals, np.zeros((2, 1))]),
                          head.trade_offs)
    cfg = TrainConfig(learning_rate=1e-7, max_iters=2, c_policy=1.0)
    train_with_guard(model, wide, data, cfg)


@pytest.mark.parametrize("call, error", [
    (_train_wide_head, ConfigError),
    (_wide_initial, InputError),
], ids=["train-with-guard-head", "svm-solve-initial"])
def test_normals_of_the_wrong_width_are_rejected_at_entry(call, error):
    # one column too many used to reach numpy's matmul as a raw ValueError
    model, head, data = helpers.toy_problem(seed=48)
    with pytest.raises(error, match="width|shape"):
        call(model, head, data)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=np.inf)
    for count in (0, 2.5, np.inf, np.nan, "x"):
        with pytest.raises(ConfigError, match="max_iters"):
            TrainConfig(max_iters=count)
    assert TrainConfig(max_iters=3.0).max_iters == 3
    with pytest.raises(ConfigError):
        TrainConfig(convergence_tol=-0.1)
    # non-numbers are refused as the numbers are, not by a raw TypeError
    with pytest.raises(ConfigError, match="learning_rate"):
        TrainConfig(learning_rate="x")
    with pytest.raises(ConfigError, match="convergence_tol"):
        TrainConfig(convergence_tol="x")


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
    # the trained head's trade-offs are its own, not the config's or head's
    c = np.full(data.num_classes, 2.0)
    for c_policy, given in ((c, c), (None, head.trade_offs)):
        cfg = TrainConfig(learning_rate=1e-7, max_iters=1, c_policy=c_policy)
        _, trained_head, _ = train(model, head, data, cfg)
        assert not np.shares_memory(trained_head.trade_offs, given)


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
    trace = _trace(model, data)
    grads = backprop(model, trace, grad_output(head, trace.final, data.labels))
    owners = [(unit, name) for units in model.layers for unit in units
              for name in ("projection", "anchors")]
    owners += [(spec, "weights") for spec in model.arch.layers]
    # parameters() lists exactly these, in this order, by identity
    listed = [(owner, name) for _, owner, name in parameters(model)]
    assert len(listed) == len(owners)
    for (owner, name), (want_owner, want_name) in zip(listed, owners):
        assert owner is want_owner and name == want_name
    before = [getattr(owner, name) for owner, name in owners]
    copies = [array.copy() for array in before]
    apply_gradients(model, grads, 1e-2)
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
        return forward_trace(*args, **kwargs)

    monkeypatch.setattr(training, "forward_trace", counted)
    monkeypatch.setattr(training, "MAX_HALVINGS", 40)
    cfg = TrainConfig(learning_rate=10.0, max_iters=15, c_policy=4.0,
                      convergence_tol=0.0)
    _, _, history, eta = train_with_guard(model, head, data, cfg)
    halvings = int(round(np.log2(cfg.learning_rate / eta)))
    assert halvings > 0
    # one evaluation per logged iteration plus one per rejected step
    assert len(calls) == len(history) + halvings
    objs = [e.objective for e in history]
    assert all(b <= a for a, b in zip(objs, objs[1:]))


def test_exhausted_halvings_carry_the_last_accepted_state(monkeypatch):
    import dmapnet.training as training

    model, head, data = helpers.toy_problem(seed=65)
    monkeypatch.setattr(training, "MAX_HALVINGS", 1)
    cfg = TrainConfig(learning_rate=1e9, max_iters=10, c_policy=10.0,
                      convergence_tol=0.0)
    with pytest.raises(TrainingDivergedError) as info:
        train_with_guard(model, head, data, cfg)
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
    for folds in (1, 2.5, np.inf, np.nan, "x"):
        with pytest.raises(ConfigError, match="folds"):
            cross_validate_C(data, model, folds=folds)
    with pytest.raises(ConfigError):
        cross_validate_C(data, model, folds=2, grid=())
    with pytest.raises(ConfigError):
        cross_validate_C(data, model, folds=2, grid=(-1.0,))
    with pytest.raises(ConfigError):
        cross_validate_C(data, model, folds=2, grid=(1.0, np.inf))
    with pytest.raises(ConfigError, match="trade-offs must be numbers"):
        cross_validate_C(data, model, folds=2, grid=["x"])
    with pytest.raises(ConfigError):
        cross_validate_C(data, model, folds=10, grid=(1.0,))
