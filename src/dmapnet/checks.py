"""Gradient checking: analytic gradients against central finite differences.

Backs the ``gradcheck`` command and the test harness.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .errors import ConfigError
from .model import ClassifierHead, DmnModel, input_kernel_rows
from .training import backprop, forward_trace, grad_output, objective, parameters

# Coordinates pass when |analytic - numeric| <= max(tol * scale, FD_FLOOR);
# the floor absorbs finite-difference rounding noise on dead coordinates.
FD_FLOOR = 1e-7
FD_STEP = 1e-5
FD_TOL = 1e-4


def finite_difference_gradients(model: DmnModel, head: ClassifierHead,
                                data: LabeledDataset,
                                step: float = FD_STEP) -> list:
    """Central-difference gradients for every trainable coordinate, one
    array per entry of ``parameters(model)`` and in its order.

    The classifier normals stay fixed, matching what ``backprop`` measures.
    The objective is linear in each mixing weight, so differences at and
    across zero weights are as valid as anywhere else.  ``step`` must be
    positive and finite.
    """
    if not (isinstance(step, numbers.Real) and 0 < step < np.inf):
        raise ConfigError(f"step must be positive and finite, got {step!r}")
    work = copy.deepcopy(model)

    def differences(arr):
        grad = np.empty_like(arr)
        for idx in np.ndindex(arr.shape):
            old = arr[idx]
            arr[idx] = old + step
            plus = objective(work, head, data)
            arr[idx] = old - step
            grad[idx] = (plus - objective(work, head, data)) / (2.0 * step)
            arr[idx] = old
        return grad

    return [differences(getattr(owner, attribute))
            for _, owner, attribute in parameters(work)]


@dataclass
class GradCheckRow:
    name: str
    analytic: float
    numeric: float
    abs_diff: float
    passed: bool


def gradient_check(model: DmnModel, head: ClassifierHead, data: LabeledDataset,
                   step: float = FD_STEP, tol: float = FD_TOL) -> tuple:
    """Compare analytic and numeric gradients coordinate by coordinate.

    Returns ``(all_passed, rows)``.  ``step`` and ``tol`` must be positive
    and finite.
    """
    if not (isinstance(tol, numbers.Real) and 0 < tol < np.inf):
        raise ConfigError(f"tol must be positive and finite, got {tol!r}")
    numeric = finite_difference_gradients(model, head, data, step=step)
    trace = forward_trace(model, input_kernel_rows(model, data.features))
    out_grads = grad_output(head, trace.final, data.labels)
    analytic = backprop(model, trace, out_grads)

    rows = []
    for (name, _, _), grad_a, grad_n in zip(parameters(model), analytic, numeric):
        for idx in np.ndindex(grad_a.shape):
            a, n = grad_a[idx], grad_n[idx]
            diff = abs(a - n)
            limit = max(tol * max(abs(a), abs(n)), FD_FLOOR)
            rows.append(GradCheckRow(name=f"{name}{list(idx)}", analytic=float(a),
                                     numeric=float(n), abs_diff=float(diff),
                                     passed=bool(diff <= limit)))
    return all(r.passed for r in rows), rows
