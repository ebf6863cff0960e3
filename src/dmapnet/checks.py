"""Gradient checking: analytic gradients against central finite differences.

Backs the ``gradcheck`` command and the test harness.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .model import ClassifierHead, DmnModel, forward_batch
from .training import GradientBundle, backprop, grad_output, objective

# Coordinates pass when |analytic - numeric| <= max(tol * scale, FD_FLOOR);
# the floor absorbs finite-difference rounding noise on dead coordinates.
FD_FLOOR = 1e-7


def finite_difference_gradients(model: DmnModel, head: ClassifierHead,
                                data: LabeledDataset,
                                step: float = 1e-5) -> GradientBundle:
    """Central-difference gradients for every trainable coordinate.

    The classifier normals stay fixed, matching what ``backprop`` measures.
    The objective is linear in each mixing weight, so differences at and
    across zero weights are as valid as anywhere else.
    """
    work = copy.deepcopy(model)

    def central(arr, idx):
        old = arr[idx]
        arr[idx] = old + step
        plus = objective(work, head, data)
        arr[idx] = old - step
        minus = objective(work, head, data)
        arr[idx] = old
        return (plus - minus) / (2.0 * step)

    def differences(arr):
        grad = np.empty_like(arr)
        for idx in np.ndindex(arr.shape):
            grad[idx] = central(arr, idx)
        return grad

    return GradientBundle(
        u_grads=[[differences(unit.projection) for unit in units]
                 for units in work.layers],
        anchor_grads=[[differences(unit.anchors) for unit in units]
                      for units in work.layers],
        weight_grads=[differences(spec.weights) for spec in work.arch.layers])


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
