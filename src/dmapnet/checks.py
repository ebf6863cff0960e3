"""Gradient checking: analytic gradients against central finite differences.

Backs the ``gradcheck`` command and the test harness.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .model import ClassifierHead, DmnModel, forward_batch
from .training import (GradientBundle, _objective_terms, backprop,
                       as_per_class_c, grad_output)

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
