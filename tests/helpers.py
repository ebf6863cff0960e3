"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's vectorized code paths:
metrics are recomputed with plain Python loops, the squared-hinge solve with
long-run fixed-step gradient descent.  Tests compare library output against
these second routes rather than against the library itself.
"""

import hashlib
import json

import numpy as np

from dmapnet import (AnchorSet, ClassifierHead, DknArchitecture, KernelSpec,
                     LabeledDataset, LayerSpec, build_dmn,
                     random_mixing_weights, save_model)
from dmapnet.model import MODEL_MAGIC


def naive_evaluate(scores, labels):
    """Loop-based MF-S, MF-C and mAP; returns a plain dict.

    Ranking for average precision is by descending score with ties broken
    by ascending sample index.  Concepts without positives are excluded
    from the per-concept means.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n, K = scores.shape

    def fscore(pred, true):
        if not pred and not true:
            return 1.0
        inter = len(set(pred) & set(true))
        if inter == 0:
            return 0.0
        precision = inter / len(pred)
        recall = inter / len(true)
        return 2.0 * precision * recall / (precision + recall)

    sample_f = []
    for i in range(n):
        pred = [k for k in range(K) if scores[i, k] > 0]
        true = [k for k in range(K) if labels[i, k] > 0]
        sample_f.append(fscore(pred, true))

    concept_f = {}
    concept_ap = {}
    excluded = []
    for k in range(K):
        true = [i for i in range(n) if labels[i, k] > 0]
        if not true:
            excluded.append(k)
            continue
        pred = [i for i in range(n) if scores[i, k] > 0]
        concept_f[k] = fscore(pred, true)
        order = sorted(range(n), key=lambda i: (-scores[i, k], i))
        hits = 0
        precisions = []
        for rank, i in enumerate(order, start=1):
            if labels[i, k] > 0:
                hits += 1
                precisions.append(hits / rank)
        concept_ap[k] = sum(precisions) / len(true)

    included = sorted(concept_f)
    return {
        "mf_samples": sum(sample_f) / n,
        "mf_concepts": sum(concept_f[k] for k in included) / len(included),
        "mean_ap": sum(concept_ap[k] for k in included) / len(included),
        "per_concept_f": concept_f,
        "per_concept_ap": concept_ap,
        "excluded": excluded,
    }


def gd_hinge_solve(F, y, c, max_iters=300_000, tol=1e-10):
    """Squared-hinge minimizer by long-run fixed-step gradient descent."""
    F = np.asarray(F, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.zeros(F.shape[1])
    step = 1.0 / (1.0 + 2.0 * c * np.linalg.norm(F, 2) ** 2)
    for _ in range(max_iters):
        margins = 1.0 - y * (F @ w)
        active = margins > 0
        grad = w - 2.0 * c * (F[active].T @ (y[active] * margins[active]))
        if np.max(np.abs(grad)) <= tol:
            break
        w = w - step * grad
    return w


def hinge_objective(F, y, c, w):
    margins = np.maximum(0.0, 1.0 - np.asarray(y) * (np.asarray(F) @ w))
    return 0.5 * float(w @ w) + c * float(np.sum(margins ** 2))


def toy_arch(rng, num_hidden=3):
    """Linear+rbf inputs, a tanh hidden layer, one exp output unit."""
    kernels = [KernelSpec("linear"), KernelSpec("rbf", gamma=0.7)]
    layers = [
        LayerSpec(width=num_hidden, activation="tanh",
                  weights=random_mixing_weights(num_hidden, 2, rng)),
        LayerSpec(width=1, activation="exp",
                  weights=random_mixing_weights(1, num_hidden, rng)),
    ]
    return DknArchitecture(input_kernels=kernels, layers=layers)


def toy_model(seed=0, n_anchors=6, d=3, num_hidden=3, scale=0.5):
    rng = np.random.default_rng(seed)
    anchors = AnchorSet(samples=rng.uniform(0.0, scale, size=(n_anchors, d)))
    return build_dmn(toy_arch(rng, num_hidden=num_hidden), anchors)


def toy_dataset(seed=0, n=8, d=3, K=2, scale=0.5):
    """Small labeled data with guaranteed class coverage."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, scale, size=(n, d))
    Y = np.where(rng.random((n, K)) < 0.5, 1.0, -1.0)
    Y[0, :] = 1.0
    Y[1, :] = -1.0
    return LabeledDataset(features=X, labels=Y)


def toy_problem(seed=0, n=8, d=3, K=2, n_anchors=6):
    """Model, random head and dataset sharing one feature scale."""
    model = toy_model(seed=seed, n_anchors=n_anchors, d=d)
    data = toy_dataset(seed=seed + 1, n=n, d=d, K=K)
    head = ClassifierHead.random(K, model.final_width, trade_off=1.0,
                                 seed=seed, scale=0.5)
    return model, head, data


def saved_with_header(path, edit, seed=0):
    """Save a toy model with a head, pass its JSON header through ``edit``
    and fix the checksum, so only the edited fields are wrong."""
    model, head, _ = toy_problem(seed=seed)
    save_model(model, head, path)
    raw = path.read_bytes()
    at = len(MODEL_MAGIC) + 4
    size = int.from_bytes(raw[at:at + 4], "little")
    header = json.loads(raw[at + 4:at + 4 + size])
    edit(header)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = raw[:at] + len(text).to_bytes(4, "little") + text + raw[at + 4 + size:-32]
    path.write_bytes(blob + hashlib.sha256(blob).digest())
    return path


def setting(*keys, value):
    """A header edit that stores ``value`` under the nested ``keys``."""
    def edit(header):
        target = header
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    return edit
