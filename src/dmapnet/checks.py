"""Verification utilities: numeric gradient comparison and a learning-rate
guard for the training loop.

The gradient comparison backs the ``gradcheck`` command and the test
harness.  The guard, ``train_with_guard``, is the training policy the
``train`` command runs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .errors import TrainingDivergedError
from .model import ClassifierHead, DmnModel, forward_batch
from .training import (GradientBundle, TrainConfig, _objective_terms, backprop,
                       as_per_class_c, grad_output, train)

# Boundary band inside which weight coordinates are skipped: the projection
# onto the nonnegative orthant makes one-sided derivatives there.
W_BOUNDARY = 1e-6

# Coordinates pass when |analytic - numeric| <= max(tol * scale, FD_FLOOR);
# the floor absorbs finite-difference rounding noise on dead coordinates.
FD_FLOOR = 1e-7


def _hinge_objective(model: DmnModel, head: ClassifierHead, data: LabeledDataset,
                     C: np.ndarray) -> float:
    final, _ = forward_batch(model, data.features)
    total, _, _ = _objective_terms(head.normals, final, data.labels, C)
    return total


def finite_difference_gradients(model: DmnModel, head: ClassifierHead,
                                data: LabeledDataset,
                                step: float = 1e-5) -> GradientBundle:
    """Central-difference gradients for every trainable coordinate.

    The classifier normals stay fixed, matching what ``backprop`` measures.
    Weight coordinates within ``W_BOUNDARY`` of zero come back as NaN so
    callers can skip them.
    """
    work = copy.deepcopy(model)
    C = as_per_class_c(head.trade_offs, data.num_classes)

    def central(arr, idx):
        old = arr[idx]
        arr[idx] = old + step
        plus = _hinge_objective(work, head, data, C)
        arr[idx] = old - step
        minus = _hinge_objective(work, head, data, C)
        arr[idx] = old
        return (plus - minus) / (2.0 * step)

    u_grads = []
    anchor_grads = []
    for l, units in enumerate(work.layers):
        u_layer = []
        a_layer = []
        for unit in units:
            gu = np.empty_like(unit.projection)
            for idx in np.ndindex(unit.projection.shape):
                gu[idx] = central(unit.projection, idx)
            u_layer.append(gu)
            if l == 0:
                a_layer.append(None)
            else:
                ga = np.empty_like(unit.anchors)
                for idx in np.ndindex(unit.anchors.shape):
                    ga[idx] = central(unit.anchors, idx)
                a_layer.append(ga)
        u_grads.append(u_layer)
        anchor_grads.append(a_layer)
    weight_grads = []
    for layer_spec in work.arch.layers:
        gw = np.empty_like(layer_spec.weights)
        for idx in np.ndindex(layer_spec.weights.shape):
            if layer_spec.weights[idx] < W_BOUNDARY:
                gw[idx] = np.nan
                continue
            gw[idx] = central(layer_spec.weights, idx)
        weight_grads.append(gw)
    return GradientBundle(u_grads=u_grads, anchor_grads=anchor_grads,
                          weight_grads=weight_grads)


@dataclass
class GradCheckRow:
    name: str
    analytic: float
    numeric: float
    abs_diff: float
    passed: bool


def gradient_check(model: DmnModel, head: ClassifierHead, data: LabeledDataset,
                   step: float = 1e-5, tol: float = 1e-4) -> tuple:
    """Compare analytic and numeric gradients coordinate by coordinate.

    Returns ``(all_passed, rows)``.
    """
    final, trace = forward_batch(model, data.features)
    out_grads = grad_output(head, final, data.labels)
    analytic = backprop(model, trace, out_grads)
    numeric = finite_difference_gradients(model, head, data, step=step)

    rows = []

    def compare(name, a, n):
        if np.isnan(n):
            return
        diff = abs(a - n)
        limit = max(tol * max(abs(a), abs(n)), FD_FLOOR)
        rows.append(GradCheckRow(name=name, analytic=float(a), numeric=float(n),
                                 abs_diff=float(diff), passed=bool(diff <= limit)))

    for l in range(len(model.layers)):
        for p in range(len(model.layers[l])):
            ga = analytic.u_grads[l][p]
            gn = numeric.u_grads[l][p]
            for idx in np.ndindex(ga.shape):
                compare(f"U[layer {l + 1}][unit {p + 1}]{list(idx)}",
                        ga[idx], gn[idx])
            if analytic.anchor_grads[l][p] is not None:
                aa = analytic.anchor_grads[l][p]
                an = numeric.anchor_grads[l][p]
                for idx in np.ndindex(aa.shape):
                    compare(f"A[layer {l + 1}][unit {p + 1}]{list(idx)}",
                            aa[idx], an[idx])
    for li in range(len(model.arch.layers)):
        wa = analytic.weight_grads[li]
        wn = numeric.weight_grads[li]
        for idx in np.ndindex(wa.shape):
            compare(f"w[layer {li + 2}]{list(idx)}", wa[idx], wn[idx])
    return all(r.passed for r in rows), rows


def train_with_guard(model: DmnModel, head: ClassifierHead, data: LabeledDataset,
                     cfg: TrainConfig, max_halvings: int = 12) -> tuple:
    """Run ``train``, halving the learning rate until the objective log is
    non-increasing.  Returns ``(model, head, history, learning_rate_used)``.

    Attempts run with ``halt_on_increase`` so an unstable rate is abandoned
    at its first uphill step instead of burning the full iteration budget.
    Raises ``TrainingDivergedError`` when no rate in the schedule yields a
    non-increasing log.
    """
    eta = cfg.learning_rate
    for _ in range(max_halvings + 1):
        attempt = TrainConfig(learning_rate=eta, max_iters=cfg.max_iters,
                              c_policy=cfg.c_policy,
                              convergence_tol=cfg.convergence_tol,
                              seed=cfg.seed, halt_on_increase=True)
        try:
            trained, trained_head, history = train(model, head, data, attempt)
        except TrainingDivergedError:
            eta /= 2.0
            continue
        objectives = [e.objective for e in history]
        monotone = all(
            b <= a + 1e-12 * max(1.0, abs(a))
            for a, b in zip(objectives, objectives[1:])
        )
        if monotone:
            return trained, trained_head, history, eta
        eta /= 2.0
    raise TrainingDivergedError(
        "no learning rate in the halving schedule produced a "
        "non-increasing objective log"
    )
