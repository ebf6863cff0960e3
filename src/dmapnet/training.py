"""End-to-end supervised fine-tuning of a deep map model.

Training alternates two moves: an exact squared-hinge solve for the
per-class classifier normals over the current final maps, and one gradient
step on the map parameters (projections, anchor matrices, mixing weights)
with the normals held fixed.  Mixing weights are projected back onto the
nonnegative orthant after every step.  A step that raises the objective is
taken back and retried at half the learning rate, so the logged objective
never increases.

``parameters`` is the one list of trainable arrays: ``backprop`` returns
gradients in its order, ``apply_gradients`` steps along it, the guard
snapshots it and the gradient check names its rows after it.  Each
evaluation walks the model once through ``forward_trace``, the one forward
pass that keeps the activations ``backprop`` reads, a row block of
``kernels.walk_blocks`` at a time.  Given fixed normals every gradient is a
sum over samples, so a batch of several blocks sums the blocks' gradients.
"""

from __future__ import annotations

import copy
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .dkn import activation_prime, combine
from .errors import ConfigError, InputError, NumericRangeError, TrainingDivergedError
from .kernels import _floats, _is_whole, walk_blocks
from .metrics import f_measure
from .model import (ClassifierHead, DmnModel, as_per_class_c, check_head_width,
                    final_maps, input_kernel_rows, put_rows, walk)

CONVERGENCE_WINDOW = 10
NEWTON_TOL_SCALE = 1e-6
MAX_NEWTON_STEPS = 100
MAX_HALVINGS = 12

DEFAULT_CV_FOLDS = 3
DEFAULT_CV_GRID = (0.01, 0.1, 1.0, 10.0)


@dataclass
class TrainConfig:
    """Knobs for the alternating loop; ``dmapnet train`` shares the defaults.

    ``learning_rate`` is the first rate, finite and >= 0; the loop halves
    it whenever a step raises the objective.  ``max_iters`` caps the logged
    iterations; ``convergence_tol`` is finite and >= 0.  ``c_policy``
    follows ``as_per_class_c``, or is None to keep the head's current
    trade-offs.  ``seed`` only matters to callers that randomize
    initialization; the loop itself draws nothing.
    """

    learning_rate: float = 1e-6
    max_iters: int = 500
    c_policy: object = None
    convergence_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.learning_rate, numbers.Real)
                and 0 <= self.learning_rate < np.inf):
            raise ConfigError("learning_rate must be finite and >= 0")
        if not _is_whole(self.max_iters) or self.max_iters < 1:
            raise ConfigError("max_iters must be an integer >= 1")
        self.max_iters = int(self.max_iters)
        if not (isinstance(self.convergence_tol, numbers.Real)
                and 0 <= self.convergence_tol < np.inf):
            raise ConfigError("convergence_tol must be finite and >= 0")


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


def parameters(model: DmnModel) -> list:
    """``(name, owner, attribute)`` for every trainable array, in one fixed
    order: each unit's projection, then its anchor map, layer by layer, then
    each combination layer's mixing weights.  Layers and units count from 1;
    last-layer anchor maps have no columns.
    """
    params = [(f"{kind}[layer {l}][unit {p}]", unit, attribute)
              for l, units in enumerate(model.layers, start=1)
              for p, unit in enumerate(units, start=1)
              for kind, attribute in (("U", "projection"), ("A", "anchors"))]
    return params + [(f"w[layer {l}]", spec, "weights")
                     for l, spec in enumerate(model.arch.layers, start=2)]


def _check_features_labels(F, Y):
    F = _floats(F, "final maps", InputError)
    Y = _floats(Y, "labels", InputError)
    if F.ndim != 2 or Y.ndim != 2 or F.shape[0] != Y.shape[0]:
        raise InputError("final maps and labels must agree on the sample count")
    if not np.isin(Y, (-1.0, 1.0)).all():
        raise InputError("labels must be exactly -1 or +1")
    return F, Y


def _class_terms(F, y, c, w) -> tuple:
    """One class's squared-hinge objective at ``w``, its gradient and the
    active set, all from one evaluation of the margins."""
    margins = 1.0 - y * (F @ w)
    active = margins > 0
    value = float(0.5 * (w @ w) + c * np.sum(margins[active] ** 2))
    grad = w - 2.0 * c * (F[active].T @ (y[active] * margins[active]))
    return value, grad, active


def _solve_class(F, y, c, w0):
    """Damped Newton on the primal squared-hinge objective for one class.

    Stops when the gradient infinity norm falls at or below
    ``NEWTON_TOL_SCALE`` times max(1, gradient norm at zero).  The generalized
    Hessian ``I + 2c * F_A' F_A`` is positive definite, so every step is a
    descent direction.  Raises NumericRangeError when the line search stalls
    or ``MAX_NEWTON_STEPS`` run out short of the tolerance, as on maps blown
    up by an oversized learning rate; the training guard rejects that step.
    """
    n, d = F.shape
    w = np.zeros(d) if w0 is None else np.asarray(w0, dtype=np.float64).copy()
    grad0 = -2.0 * c * ((F * y[:, None]).sum(axis=0))
    tol = NEWTON_TOL_SCALE * max(1.0, float(np.max(np.abs(grad0))) if d else 1.0)
    value, grad, active = _class_terms(F, y, c, w)
    for _ in range(MAX_NEWTON_STEPS):
        if np.max(np.abs(grad)) <= tol:
            return w
        Fa = F[active]
        # I + 2c * Fa'Fa, built in place: one d x d array instead of three
        hess = Fa.T @ Fa
        del Fa
        hess *= 2.0 * c
        hess[np.diag_indices(d)] += 1.0
        step = np.linalg.solve(hess, -grad)
        slope = float(grad @ step)
        t = 1.0
        for _ in range(60):
            w_try = w + t * step
            trial = _class_terms(F, y, c, w_try)
            if trial[0] <= value + 1e-4 * t * slope:
                w, (value, grad, active) = w_try, trial
                break
            t *= 0.5
        else:
            break  # the line search stalled
    if np.max(np.abs(grad)) <= tol:
        return w
    raise NumericRangeError("squared-hinge solve failed to reach tolerance")


def svm_solve(final_maps, labels, c_policy, initial=None) -> np.ndarray:
    """Independent squared-hinge solves, one row of normals per class."""
    F, Y = _check_features_labels(final_maps, labels)
    K = Y.shape[1]
    C = as_per_class_c(c_policy, K)
    omega = np.zeros((K, F.shape[1]))
    if initial is not None:
        initial = _floats(initial, "initial normals", InputError)
        if initial.shape != omega.shape:
            raise InputError(f"initial normals must have shape {omega.shape}, "
                             f"got {initial.shape}")
    for k in range(K):
        w0 = None if initial is None else initial[k]
        omega[k] = _solve_class(F, Y[:, k], C[k], w0)
    return omega


@dataclass
class BatchTrace:
    """What backprop reads of a forward pass: per layer, per unit, the
    activation (samples x anchors; layer 1's are the kernel rows) and the
    map (samples x unit width)."""

    h: list
    out: list

    @property
    def final(self) -> np.ndarray:
        return self.out[-1][0]

    @property
    def num_samples(self) -> int:
        return self.out[0][0].shape[0]


def forward_trace(model: DmnModel, kernel_rows) -> BatchTrace:
    """The forward walk from the samples' kernel rows (``input_kernel_rows``,
    which the caller may keep and pass again), keeping every activation and
    map for ``backprop``.  The maps are those ``forward_batch`` returns.

    The trace holds every unit's activation (samples x anchors) and map
    for as many rows as ``kernel_rows`` has, so training traces one row
    block of ``walk_blocks`` at a time."""
    trace = BatchTrace(h=[[] for _ in model.layers], out=[[] for _ in model.layers])
    for i, h, phi in walk(model, kernel_rows):
        trace.h[i].append(h)
        trace.out[i].append(phi)
    return trace


def _objective_terms(omega, F, Y, C):
    """The objective, its hinge and regularizer terms and the hinge's gradient
    with respect to the final maps, all from one evaluation of the margins."""
    margins = np.maximum(0.0, 1.0 - Y * (F @ omega.T))
    hinge = float(np.sum(C[None, :] * margins ** 2))
    reg = float(0.5 * np.sum(omega * omega))
    return reg + hinge, hinge, reg, -2.0 * ((C[None, :] * Y * margins) @ omega)


def objective(model: DmnModel, head: ClassifierHead, data: LabeledDataset) -> float:
    """Squared-hinge objective of the head over the model's final maps."""
    final = final_maps(model, data.features)
    C = as_per_class_c(head.trade_offs, data.num_classes)
    return _objective_terms(head.normals, final, data.labels, C)[0]


def grad_output(head: ClassifierHead, final_maps, labels) -> np.ndarray:
    """Gradient of the hinge term with respect to each sample's final map."""
    F, Y = _check_features_labels(final_maps, labels)
    if head.normals.shape[1] != F.shape[1]:
        raise InputError("head width does not match the final map width")
    C = as_per_class_c(head.trade_offs, Y.shape[1])
    return _objective_terms(head.normals, F, Y, C)[3]


# overflow passes silently, as in the forward walk; the finite check names it
@np.errstate(over="ignore", invalid="ignore")
def backprop(model: DmnModel, batch: BatchTrace, output_grads) -> list:
    """Gradients of the objective, one array per entry of
    ``parameters(model)`` and in its order.

    ``batch`` is ``forward_trace``'s record of the samples ``output_grads``
    refers to; its activations and maps are read as they are, and none is
    recomputed.  Beyond the trace and the gradients, the walk holds one
    layer's activation gradients ``ds`` and, taking the units below one at
    a time, one unit's product with its anchors or its share of ``ds``,
    each as many rows as the trace, which training keeps to one row block.
    ``output_grads`` must be finite numbers (``InputError``); a non-finite
    gradient raises ``NumericRangeError`` naming its parameter.
    """
    G = _floats(output_grads, "output gradients", InputError)
    n = batch.num_samples
    if G.shape != (n, model.final_width):
        raise InputError(
            f"output gradients must have shape ({n}, {model.final_width}), "
            f"got {G.shape}"
        )
    # the walk runs top-down, against parameters() order, so gradients are
    # collected by (id(owner), attribute) and put in that order at the end
    grads = {(id(unit), "anchors"): np.zeros_like(unit.anchors)
             for unit in model.layers[-1]}

    d_out = [G]
    for l in range(len(model.layers) - 1, -1, -1):
        for p, unit in enumerate(model.layers[l]):
            grads[id(unit), "projection"] = batch.h[l][p].T @ d_out[p]
        if l == 0:
            break  # the input layer has no activation, weights or layer below
        spec = model.arch.layers[l - 1]
        ds = []
        for p, unit in enumerate(model.layers[l]):
            back = d_out[p] @ unit.projection.T
            back *= activation_prime(spec.activation, batch.h[l][p])
            ds.append(back)
            d_out[p] = None  # read only to make ds_p
        weight_grad = np.zeros_like(spec.weights)
        grads[id(spec), "weights"] = weight_grad
        d_out = []
        # pre_p = sum_q w[p, q] * phi_q @ M_q.T, so lower unit q sees
        # sum_p w[p, q] * ds_p through its map and its anchors alike; the
        # lower units go one at a time, each dropping its S_q and d_pre_q
        for q, unit in enumerate(model.layers[l - 1]):
            phi = batch.out[l - 1][q]
            S = phi @ unit.anchors.T
            for p, dsp in enumerate(ds):
                weight_grad[p, q] = float(np.vdot(dsp, S))
            del S
            # combine's q-th sum of combine(W.T, ds), by the same operations
            d_pre = combine(spec.weights.T[q:q + 1], ds)[0]
            grads[id(unit), "anchors"] = d_pre.T @ phi
            d_out.append(d_pre @ unit.anchors)
            del d_pre

    for name, owner, attribute in parameters(model):
        if not np.isfinite(grads[id(owner), attribute]).all():
            raise NumericRangeError(f"non-finite gradient of {name}")
    return [grads[id(owner), attribute] for _, owner, attribute in parameters(model)]


def apply_gradients(model: DmnModel, grads, learning_rate: float) -> None:
    """One descent step along ``grads``, given in ``parameters(model)``
    order; mixing weights are clipped at zero.

    Every parameter is rebound to a fresh array, never written into, so
    references taken before the step still hold the old values; the
    training guard's snapshot relies on that.
    """
    eta = float(learning_rate)
    for (_, owner, attribute), grad in zip(parameters(model), grads, strict=True):
        stepped = getattr(owner, attribute) - eta * grad
        if attribute == "weights":
            stepped = np.maximum(0.0, stepped)
        setattr(owner, attribute, stepped)


def train_with_guard(model: DmnModel, head: ClassifierHead, data: LabeledDataset,
                     cfg: TrainConfig) -> tuple:
    """Alternating optimization with a backtracking learning rate; returns
    ``(model, head, history, final_rate)``.

    The inputs are left untouched; trained copies come back.  An evaluation
    (exact classifier solve, then the objective) is rejected when it raises
    a numeric error, is not finite, or rises above the last logged
    objective.  A rejection puts back the last accepted parameters and
    normals, halves the rate and applies the gradient already computed
    there again.  Accepted evaluations are logged, so ``max_iters`` counts
    logged iterations, and then take one step unless ``convergence_tol``
    held for ten consecutive relative changes.  ``TrainingDivergedError``
    is raised when the first evaluation fails or a rejection arrives after
    ``MAX_HALVINGS`` halvings, or when the gradient at an accepted
    evaluation is not finite; it carries the last accepted model, head and
    history.  Between steps the loop holds one trace, one set of gradients
    and one snapshot, and lets each go before its replacement is made.

    An evaluation walks the training rows in the row blocks of
    ``walk_blocks``, from kernel rows computed once, and keeps the final
    maps of every row for the class solve and the objective but the trace
    of the last block only.  When the rows fit in one block, that trace is
    the whole batch's and backprop reads it; otherwise an accepted
    iteration walks the other blocks again, one trace at a time, and sums
    the blocks' gradients.  So beyond the cached kernel rows (one samples x
    anchors matrix per input unit), the final maps and the parameter-sized
    gradients and snapshot, the loop holds one block's trace and backprop.
    """
    if data.num_classes != head.num_classes:
        raise ConfigError("head classes must match the dataset classes")
    check_head_width(model, head)
    model = copy.deepcopy(model)
    # np.array copies, so the trained head aliases neither input
    head = ClassifierHead(head.normals.copy(), np.array(
        head.trade_offs if cfg.c_policy is None else cfg.c_policy))
    C = head.trade_offs
    X = data.features
    Y = data.labels
    kernel_rows = input_kernel_rows(model, X)
    blocks = walk_blocks(data.num_samples, model.anchor_count)

    def block_trace(rows):
        return forward_trace(model, [r[rows] for r in kernel_rows])

    eta = cfg.learning_rate
    history = []
    halvings = 0
    consec = 0
    t0 = time.perf_counter()
    while True:
        try:
            # overflow surfaces as a non-finite objective or as one of the
            # errors below, and either way rejects the evaluation
            with np.errstate(over="ignore", invalid="ignore"):
                final = None
                for rows in blocks:
                    trace = None  # the last trace goes before the next is made
                    trace = block_trace(rows)
                    final = put_rows(final, rows, trace.final, data.num_samples)
                omega = svm_solve(final, Y, C, initial=head.normals)
                total, hinge, reg, d_final = _objective_terms(omega, final, Y, C)
            if not np.isfinite(total):
                raise NumericRangeError("objective is not finite")
        except (NumericRangeError, np.linalg.LinAlgError, OverflowError) as err:
            rejection = str(err)
        else:
            prev = history[-1].objective if history else total
            rose = total > prev + 1e-12 * max(1.0, abs(prev))
            rejection = f"objective rose from {prev!r} to {total!r}" if rose else None
        if rejection is not None:
            if not history:
                raise TrainingDivergedError(f"iteration 1: {rejection}")
            for (_, owner, attribute), array in zip(parameters(model), accepted):
                setattr(owner, attribute, array)
            if halvings == MAX_HALVINGS:
                raise TrainingDivergedError(
                    f"iteration {len(history) + 1} at learning rate {eta:g}, "
                    f"after {halvings} halvings: {rejection}",
                    model=model, head=head, history=history,
                )
            halvings += 1
            eta /= 2.0
            apply_gradients(model, grads, eta)
            continue
        head.normals = omega
        accepted = None  # only a rejection reads the last snapshot
        entry = TrainLogEntry(iteration=len(history) + 1, objective=total,
                              hinge=hinge, regularizer=reg, wall_ms=0.0)
        history.append(entry)
        if len(history) >= 2:
            prev = history[-2].objective
            rel = abs(total - prev) / max(abs(prev), 1e-30)
            consec = consec + 1 if rel < cfg.convergence_tol else 0
        done = consec >= CONVERGENCE_WINDOW or len(history) == cfg.max_iters
        if not done:
            try:
                grads = None  # the last gradients go before the next are made
                grads = backprop(model, trace, d_final[blocks[-1]])
                trace = None
                with np.errstate(over="ignore", invalid="ignore"):
                    for rows in blocks[:-1]:  # the other blocks walk again
                        for grad, part in zip(grads, backprop(
                                model, block_trace(rows), d_final[rows])):
                            grad += part
            except NumericRangeError as err:
                # taken at the accepted parameters, so no rate can help
                raise TrainingDivergedError(
                    f"iteration {len(history)}: {err}",
                    model=model, head=head, history=history) from err
            accepted = [getattr(o, a) for _, o, a in parameters(model)]
            apply_gradients(model, grads, eta)
        now = time.perf_counter()
        entry.wall_ms = (now - t0) * 1e3
        t0 = now
        if done:
            return model, head, history, eta


def train(model: DmnModel, head: ClassifierHead, data: LabeledDataset,
          cfg: TrainConfig) -> tuple:
    """``train_with_guard`` without the final rate: ``(model, head, history)``."""
    return train_with_guard(model, head, data, cfg)[:3]


def cross_validate_C(data: LabeledDataset, model: DmnModel,
                     folds: int = DEFAULT_CV_FOLDS,
                     grid=DEFAULT_CV_GRID) -> np.ndarray:
    """Per-class trade-offs picked by cross-validated F-measure.

    Samples go to folds round-robin by index.  A fold is usable for a class
    only when it holds a positive of that class and the remaining samples
    hold both a positive and a negative.  Ties prefer the smallest value;
    classes with no usable fold fall back to the smallest grid value.
    """
    if not _is_whole(folds) or folds < 2:
        raise ConfigError("folds must be an integer >= 2")
    folds = int(folds)
    if folds > data.num_samples:
        raise ConfigError("more folds than samples")
    grid = sorted(set(as_per_class_c(grid, len(grid)).tolist()))
    if not grid:
        raise ConfigError("grid must hold at least one trade-off")
    final = final_maps(model, data.features)
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
