"""Verification utilities: gradient checking and the step-size guard."""

import numpy as np
import pytest

import dmapnet.training as training
import helpers
from dmapnet import (ConfigError, TrainConfig, TrainingDivergedError,
                     finite_difference_gradients, gradient_check,
                     train_with_guard)


def test_gradient_check_passes_on_toy_problem():
    model, head, data = helpers.toy_problem(seed=60)
    all_passed, rows = gradient_check(model, head, data)
    assert all_passed
    assert rows, "at least one coordinate must be compared"
    names = {r.name.split("[")[0] for r in rows}
    assert names == {"U", "A", "w"}  # every parameter group is covered
    for r in rows:
        assert np.isfinite(r.analytic) and np.isfinite(r.numeric)


def test_gradient_check_covers_every_coordinate():
    # the objective is linear in each mixing weight, so a zero weight is
    # checked like any other coordinate
    model, head, data = helpers.toy_problem(seed=62)
    with_zero = helpers.toy_problem(seed=62)[0]
    with_zero.arch.layers[0].weights[0, 0] = 0.0
    for m in (model, with_zero):
        all_passed, rows = gradient_check(m, head, data)
        assert all_passed
        expected = 0
        for units in m.layers:
            for unit in units:
                # last-layer anchors have no columns
                expected += unit.projection.size + unit.anchors.size
        for layer in m.arch.layers:
            expected += layer.weights.size
        assert len(rows) == expected
    assert any(r.name == "w[layer 2][0, 0]" for r in rows)


def test_guard_returns_monotone_log():
    model, head, data = helpers.toy_problem(seed=63)
    cfg = TrainConfig(learning_rate=1e-2, max_iters=25, c_policy=4.0,
                      convergence_tol=0.0)
    trained, trained_head, history, eta = train_with_guard(model, head, data,
                                                           cfg)
    assert eta <= cfg.learning_rate
    objs = [e.objective for e in history]
    assert all(b <= a + 1e-12 * max(1.0, abs(a))
               for a, b in zip(objs, objs[1:]))
    assert objs[-1] <= objs[0]


def test_guard_halves_until_stable(monkeypatch):
    model, head, data = helpers.toy_problem(seed=64)
    # start absurdly large so several halvings must happen; the wide
    # halving budget lets the schedule reach a stable rate
    monkeypatch.setattr(training, "MAX_HALVINGS", 40)
    cfg = TrainConfig(learning_rate=10.0, max_iters=15, c_policy=4.0,
                      convergence_tol=0.0)
    _, _, history, eta = train_with_guard(model, head, data, cfg)
    assert eta < 10.0
    objs = [e.objective for e in history]
    assert all(b <= a + 1e-12 * max(1.0, abs(a))
               for a, b in zip(objs, objs[1:]))


def test_guard_gives_up_when_nothing_works(monkeypatch):
    model, head, data = helpers.toy_problem(seed=65)
    monkeypatch.setattr(training, "MAX_HALVINGS", 1)
    cfg = TrainConfig(learning_rate=1e9, max_iters=10, c_policy=10.0,
                      convergence_tol=0.0)
    with pytest.raises(TrainingDivergedError):
        train_with_guard(model, head, data, cfg)


@pytest.mark.parametrize("value", [0.0, -1e-5, float("inf"), float("nan"),
                                   "x", None])
def test_gradient_check_refuses_a_step_or_tol_out_of_range(value):
    model, head, data = helpers.toy_problem(seed=60)
    with pytest.raises(ConfigError, match="step must be positive and finite"):
        finite_difference_gradients(model, head, data, step=value)
    with pytest.raises(ConfigError, match="step must be positive and finite"):
        gradient_check(model, head, data, step=value)
    with pytest.raises(ConfigError, match="tol must be positive and finite"):
        gradient_check(model, head, data, tol=value)
