"""End-to-end supervised fine-tuning of a deep map model.

Training alternates two moves: an exact squared-hinge solve for the
per-class classifier normals over the current final maps, and one gradient
step on the map parameters (projections, anchor matrices, mixing weights)
with the normals held fixed.  Mixing weights are projected back onto the
nonnegative orthant after every step.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset
from .dkn import activation_prime
from .errors import ConfigError, InputError, NumericRangeError, TrainingDivergedError
from .metrics import f_measure
from .model import (BatchTrace, ClassifierHead, DmnModel, concat_with_weights,
                    forward_batch, input_kernel_rows)

CONVERGENCE_WINDOW = 10

DEFAULT_CV_GRID = (0.01, 0.1, 1.0, 10.0)


@dataclass
class TrainConfig:
    """Knobs for the alternating loop.

    ``c_policy`` may be a scalar (broadcast over classes), a per-class
    sequence, or None to keep the head's current trade-offs.  ``seed`` only
    matters to callers that randomize initialization; the loop itself draws
    nothing.  ``halt_on_increase`` stops the loop at the first logged
    objective increase; the step-size guard uses it to abandon an unstable
    learning rate without paying for the remaining iterations.
    """

    learning_rate: float = 1e-6
    max_iters: int = 500
    c_policy: object = None
    convergence_tol: float = 1e-6
    seed: int = 0
    halt_on_increase: bool = False

    def __post_init__(self):
        if not self.learning_rate >= 0:
            raise ConfigError("learning_rate must be >= 0")
        if int(self.max_iters) != self.max_iters or self.max_iters < 1:
            raise ConfigError("max_iters must be an integer >= 1")
        self.max_iters = int(self.max_iters)
        if not self.convergence_tol >= 0:
            raise ConfigError("convergence_tol must be >= 0")


@dataclass
class TrainLogEntry:
    iteration: int
    objective: float
    hinge: float
    regularizer: float
    wall_ms: float


def format_history(history) -> str:
    """One tab-separated line per iteration."""
    lines = []
    for e in history:
        lines.append(f"{e.iteration}\t{e.objective!r}\t{e.hinge!r}\t"
                     f"{e.regularizer!r}\t{e.wall_ms:.3f}")
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class GradientBundle:
    """Gradients shaped like the trainable parameters.

    ``anchor_grads`` has None for the input layer, whose anchor matrices are
    derived from the base kernels rather than free parameters.
    """

    u_grads: list
    anchor_grads: list
    weight_grads: list


def as_per_class_c(c_policy, num_classes: int) -> np.ndarray:
    if np.isscalar(c_policy):
        c = np.full(num_classes, float(c_policy))
    else:
        c = np.asarray(c_policy, dtype=np.float64)
        if c.shape != (num_classes,):
            raise ConfigError(
                f"need one trade-off per class ({num_classes}), got shape {c.shape}"
            )
        c = c.copy()
    if not np.isfinite(c).all() or not (c > 0).all():
        raise ConfigError("trade-offs must be positive and finite")
    return c


def _check_features_labels(F, Y):
    F = np.asarray(F, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if F.ndim != 2 or Y.ndim != 2 or F.shape[0] != Y.shape[0]:
        raise InputError("final maps and labels must agree on the sample count")
    if not np.isfinite(F).all():
        raise InputError("final maps contain non-finite values")
    if not np.isin(Y, (-1.0, 1.0)).all():
        raise InputError("labels must be exactly -1 or +1")
    return F, Y


def _class_objective(F, y, c, w) -> float:
    margins = 1.0 - y * (F @ w)
    active = margins > 0
    return float(0.5 * (w @ w) + c * np.sum(margins[active] ** 2))


def _class_gradient(F, y, c, w):
    margins = 1.0 - y * (F @ w)
    active = margins > 0
    grad = w - 2.0 * c * (F[active].T @ (y[active] * margins[active]))
    return grad, active, margins


def _solve_class(F, y, c, w0, tol_scale: float = 1e-6, max_newton: int = 100):
    """Damped Newton on the primal squared-hinge objective for one class.

    Stops when the gradient infinity norm falls at or below ``tol_scale``
    times max(1, gradient norm at zero).  The generalized Hessian
    ``I + 2c * F_A' F_A`` is positive definite, so every step is a descent
    direction; a plain gradient loop backs the Newton phase up in case the
    line search ever stalls.
    """
    n, d = F.shape
    w = np.zeros(d) if w0 is None else np.asarray(w0, dtype=np.float64).copy()
    grad0 = -2.0 * c * ((F * y[:, None]).sum(axis=0))
    tol = tol_scale * max(1.0, float(np.max(np.abs(grad0))) if d else 1.0)
    grad, active, _ = _class_gradient(F, y, c, w)
    value = _class_objective(F, y, c, w)
    for _ in range(max_newton):
        if np.max(np.abs(grad)) <= tol:
            return w
        Fa = F[active]
        hess = np.eye(d) + 2.0 * c * (Fa.T @ Fa)
        step = np.linalg.solve(hess, -grad)
        slope = float(grad @ step)
        t = 1.0
        moved = False
        for _ in range(60):
            w_try = w + t * step
            v_try = _class_objective(F, y, c, w_try)
            if v_try <= value + 1e-4 * t * slope:
                w, value = w_try, v_try
                grad, active, _ = _class_gradient(F, y, c, w)
                moved = True
                break
            t *= 0.5
        if not moved:
            break
    if np.max(np.abs(grad)) <= tol:
        return w
    # fallback: fixed-step gradient descent with step 1 / Lipschitz
    lip = 1.0 + 2.0 * c * float(np.linalg.norm(F, 2)) ** 2
    step = 1.0 / lip
    for _ in range(200_000):
        w = w - step * grad
        grad, active, _ = _class_gradient(F, y, c, w)
        if np.max(np.abs(grad)) <= tol:
            return w
    raise NumericRangeError("squared-hinge solve failed to reach tolerance")


def svm_solve(final_maps, labels, c_policy, initial=None) -> np.ndarray:
    """Independent squared-hinge solves, one row of normals per class."""
    F, Y = _check_features_labels(final_maps, labels)
    K = Y.shape[1]
    C = as_per_class_c(c_policy, K)
    omega = np.zeros((K, F.shape[1]))
    for k in range(K):
        w0 = None if initial is None else np.asarray(initial)[k]
        omega[k] = _solve_class(F, Y[:, k], C[k], w0)
    return omega


def _objective_terms(omega, F, Y, C):
    scores = F @ omega.T
    margins = np.maximum(0.0, 1.0 - Y * scores)
    hinge = float(np.sum(C[None, :] * margins ** 2))
    reg = float(0.5 * np.sum(omega * omega))
    return reg + hinge, hinge, reg


def objective(model: DmnModel, head: ClassifierHead, data: LabeledDataset) -> float:
    """Squared-hinge objective of the head over the model's final maps."""
    final, _ = forward_batch(model, data.features)
    C = as_per_class_c(head.trade_offs, data.num_classes)
    total, _, _ = _objective_terms(head.normals, final, data.labels, C)
    return total


def grad_output(head: ClassifierHead, final_maps, labels, c_policy=None) -> np.ndarray:
    """Gradient of the hinge term with respect to each sample's final map."""
    F, Y = _check_features_labels(final_maps, labels)
    if head.normals.shape[1] != F.shape[1]:
        raise InputError("head width does not match the final map width")
    C = as_per_class_c(head.trade_offs if c_policy is None else c_policy,
                       Y.shape[1])
    margins = np.maximum(0.0, 1.0 - Y * (F @ head.normals.T))
    return -2.0 * ((C[None, :] * Y * margins) @ head.normals)


def backprop(model: DmnModel, batch: BatchTrace, output_grads) -> GradientBundle:
    """Gradients of the objective for every trainable parameter.

    ``batch`` is the forward trace of the same samples ``output_grads``
    refers to.
    """
    G = np.asarray(output_grads, dtype=np.float64)
    n = batch.num_samples
    if G.shape != (n, model.final_width):
        raise InputError(
            f"output gradients must have shape ({n}, {model.final_width}), "
            f"got {G.shape}"
        )
    num_layers = len(model.layers)
    d_out = [[np.zeros_like(batch.out[l][p]) for p in range(len(model.layers[l]))]
             for l in range(num_layers)]
    d_out[-1][0] = G
    u_grads = [[None] * len(units) for units in model.layers]
    anchor_grads = [[None] * len(units) for units in model.layers]
    weight_grads = [np.zeros_like(layer.weights) for layer in model.arch.layers]

    for li in range(len(model.arch.layers) - 1, -1, -1):
        layer_spec = model.arch.layers[li]
        l = li + 1
        lower_outs = batch.out[l - 1]
        lower_widths = [o.shape[1] for o in lower_outs]
        offsets = np.concatenate(([0], np.cumsum(lower_widths)))
        for p, unit in enumerate(model.layers[l]):
            D = d_out[l][p]
            h = batch.h[l][p]
            u_grads[l][p] = h.T @ D
            dh = D @ unit.projection.T
            ds = activation_prime(unit.activation, h) * dh
            weights_row = layer_spec.weights[p]
            cmat = concat_with_weights(lower_outs, weights_row)
            anchor_grads[l][p] = ds.T @ cmat
            dc = ds @ unit.anchors
            for q in range(len(lower_outs)):
                block = dc[:, offsets[q]:offsets[q + 1]]
                w = weights_row[q]
                if w > 0:
                    root = np.sqrt(w)
                    d_out[l - 1][q] += root * block
                    weight_grads[li][p, q] = float(
                        np.sum(block * lower_outs[q]) / (2.0 * root)
                    )
                else:
                    # at the clip boundary the subgradient is taken as zero
                    weight_grads[li][p, q] = 0.0
    for q, unit in enumerate(model.layers[0]):
        Z = batch.h[0][q]
        u_grads[0][q] = Z.T @ d_out[0][q]

    for l in range(num_layers):
        for p in range(len(model.layers[l])):
            if not np.isfinite(u_grads[l][p]).all():
                raise NumericRangeError(
                    f"non-finite projection gradient at layer {l + 1}, unit {p + 1}"
                )
            if anchor_grads[l][p] is not None and not np.isfinite(anchor_grads[l][p]).all():
                raise NumericRangeError(
                    f"non-finite anchor gradient at layer {l + 1}, unit {p + 1}"
                )
    for li, wg in enumerate(weight_grads):
        if not np.isfinite(wg).all():
            raise NumericRangeError(
                f"non-finite weight gradient below layer {li + 2}"
            )
    return GradientBundle(u_grads=u_grads, anchor_grads=anchor_grads,
                          weight_grads=weight_grads)


def apply_gradients(model: DmnModel, bundle: GradientBundle, learning_rate: float) -> None:
    """One descent step in place; mixing weights are clipped at zero."""
    eta = float(learning_rate)
    for l, units in enumerate(model.layers):
        for p, unit in enumerate(units):
            unit.projection = unit.projection - eta * bundle.u_grads[l][p]
            if bundle.anchor_grads[l][p] is not None:
                unit.anchors = unit.anchors - eta * bundle.anchor_grads[l][p]
    for li, layer_spec in enumerate(model.arch.layers):
        layer_spec.weights = np.maximum(
            0.0, layer_spec.weights - eta * bundle.weight_grads[li]
        )


def train(model: DmnModel, head: ClassifierHead, data: LabeledDataset,
          cfg: TrainConfig) -> tuple:
    """Alternating optimization; returns ``(model, head, history)``.

    The inputs are left untouched; trained copies come back.  Each iteration
    solves the classifier exactly, logs the objective, then (unless
    converged) takes one gradient step on the map parameters.  Convergence
    means the relative objective change stayed below ``convergence_tol`` for
    ten consecutive iterations.  A non-finite objective aborts with the last
    finite state attached to the exception.
    """
    if data.num_classes != head.num_classes:
        raise ConfigError("head classes must match the dataset classes")
    model = copy.deepcopy(model)
    head = ClassifierHead(head.normals.copy(), head.trade_offs.copy())
    C = as_per_class_c(head.trade_offs if cfg.c_policy is None else cfg.c_policy,
                       data.num_classes)
    head.trade_offs = C
    X = data.features
    Y = data.labels
    kernel_rows = input_kernel_rows(model, X)
    history = []
    last_good = None
    consec = 0
    omega = head.normals
    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        try:
            final, trace = forward_batch(model, X, kernel_rows=kernel_rows)
            omega = svm_solve(final, Y, C, initial=omega)
            total, hinge, reg = _objective_terms(omega, final, Y, C)
        except (NumericRangeError, np.linalg.LinAlgError, OverflowError) as err:
            # a singular system or an overflowing norm here means the maps
            # blew past float range
            good_model, good_head = last_good if last_good else (None, None)
            raise TrainingDivergedError(
                f"iteration {it}: {err}", model=good_model, head=good_head,
                history=history,
            ) from err
        if not np.isfinite(total):
            good_model, good_head = last_good if last_good else (None, None)
            raise TrainingDivergedError(
                f"iteration {it}: objective is not finite", model=good_model,
                head=good_head, history=history,
            )
        head.normals = omega
        entry = TrainLogEntry(iteration=it, objective=total, hinge=hinge,
                              regularizer=reg, wall_ms=0.0)
        history.append(entry)
        last_good = (copy.deepcopy(model), ClassifierHead(omega.copy(), C.copy()))
        if len(history) >= 2:
            prev = history[-2].objective
            if (cfg.halt_on_increase
                    and total > prev + 1e-12 * max(1.0, abs(prev))):
                entry.wall_ms = (time.perf_counter() - t0) * 1e3
                break
            rel = abs(total - prev) / max(abs(prev), 1e-30)
            consec = consec + 1 if rel < cfg.convergence_tol else 0
            if consec >= CONVERGENCE_WINDOW:
                entry.wall_ms = (time.perf_counter() - t0) * 1e3
                break
        if it == cfg.max_iters:
            entry.wall_ms = (time.perf_counter() - t0) * 1e3
            break
        grads = grad_output(head, final, Y, C)
        bundle = backprop(model, trace, grads)
        apply_gradients(model, bundle, cfg.learning_rate)
        entry.wall_ms = (time.perf_counter() - t0) * 1e3
    return model, head, history


def cross_validate_C(data: LabeledDataset, model: DmnModel, folds: int = 3,
                     grid=DEFAULT_CV_GRID) -> np.ndarray:
    """Per-class trade-offs picked by cross-validated F-measure.

    Samples go to folds round-robin by index.  A fold is usable for a class
    only when it holds a positive of that class and the remaining samples
    hold both a positive and a negative.  Ties prefer the smallest value;
    classes with no usable fold fall back to the smallest grid value.
    """
    if int(folds) != folds or folds < 2:
        raise ConfigError("folds must be an integer >= 2")
    folds = int(folds)
    if folds > data.num_samples:
        raise ConfigError("more folds than samples")
    grid = sorted(set(float(c) for c in grid))
    if not grid or not all(c > 0 for c in grid):
        raise ConfigError("grid must hold positive trade-off values")
    final, _ = forward_batch(model, data.features)
    Y = data.labels
    n, K = Y.shape
    fold_of = np.arange(n) % folds
    chosen = np.empty(K)
    for k in range(K):
        y = Y[:, k]
        usable = []
        for f in range(folds):
            val = fold_of == f
            trn = ~val
            if (y[val] > 0).any() and (y[trn] > 0).any() and (y[trn] < 0).any():
                usable.append((val, trn))
        if not usable:
            chosen[k] = grid[0]
            continue
        best_c, best_f = None, -1.0
        for c in grid:
            scores = []
            for val, trn in usable:
                w = _solve_class(final[trn], y[trn], c, None)
                pred = final[val] @ w > 0
                truth = y[val] > 0
                scores.append(f_measure(np.nonzero(pred)[0], np.nonzero(truth)[0]))
            mean_f = float(np.mean(scores))
            if mean_f > best_f:
                best_c, best_f = c, mean_f
        chosen[k] = best_c
    return chosen
