"""Verification utilities: gradient checking and the step-size guard."""

import numpy as np
import pytest

import helpers
from dmapnet import (TrainConfig, TrainingDivergedError, gradient_check,
                     train_with_guard)
from dmapnet.checks import W_BOUNDARY


def test_gradient_check_passes_on_toy_problem():
    model, head, data = helpers.toy_problem(seed=60)
    all_passed, rows = gradient_check(model, head, data)
    assert all_passed
    assert rows, "at least one coordinate must be compared"
    names = {r.name.split("[")[0] for r in rows}
    assert names == {"U", "A", "w"}  # every parameter group is covered
    for r in rows:
        assert np.isfinite(r.analytic) and np.isfinite(r.numeric)


def test_gradient_check_skips_clip_boundary():
    model, head, data = helpers.toy_problem(seed=61)
    weights = model.arch.layers[0].weights.copy()
    weights[0, 0] = W_BOUNDARY / 10.0
    model.arch.layers[0].weights = weights
    _, rows = gradient_check(model, head, data)
    skipped = "w[layer 2][0, 0]"
    assert all(r.name != skipped for r in rows)


def test_gradient_check_covers_every_coordinate():
    model, head, data = helpers.toy_problem(seed=62)
    _, rows = gradient_check(model, head, data)
    expected = 0
    for l, units in enumerate(model.layers):
        for unit in units:
            expected += unit.projection.size
            if l > 0:
                expected += unit.anchors.size
    for layer in model.arch.layers:
        expected += layer.weights.size  # none sit at the clip boundary
    assert len(rows) == expected


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


def test_guard_halves_until_stable():
    model, head, data = helpers.toy_problem(seed=64)
    # start absurdly large so several halvings must happen; the wide
    # halving budget lets the schedule reach a stable rate
    cfg = TrainConfig(learning_rate=10.0, max_iters=15, c_policy=4.0,
                      convergence_tol=0.0)
    _, _, history, eta = train_with_guard(model, head, data, cfg,
                                          max_halvings=40)
    assert eta < 10.0
    objs = [e.objective for e in history]
    assert all(b <= a + 1e-12 * max(1.0, abs(a))
               for a, b in zip(objs, objs[1:]))


def test_guard_gives_up_when_nothing_works():
    model, head, data = helpers.toy_problem(seed=65)
    cfg = TrainConfig(learning_rate=1e9, max_iters=10, c_policy=10.0,
                      convergence_tol=0.0)
    with pytest.raises(TrainingDivergedError):
        train_with_guard(model, head, data, cfg, max_halvings=1)
