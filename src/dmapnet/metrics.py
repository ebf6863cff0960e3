"""Multi-label evaluation: F-measures per sample and per concept, and mean
average precision over score rankings."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .kernels import _floats


def f_measure(predicted, truth) -> float:
    """Harmonic mean of precision and recall between two label sets.

    Both empty counts as a perfect 1; zero precision plus zero recall gives 0.
    """
    pred = set(predicted)
    true = set(truth)
    if not pred and not true:
        return 1.0
    hits = len(pred & true)
    if hits == 0:
        return 0.0
    precision = hits / len(pred)
    recall = hits / len(true)
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class EvalReport:
    """Aggregate and per-concept scores for one evaluation run.

    Concepts without a single positive sample are excluded from the
    per-concept means; their per-concept entries are NaN and their indices
    are listed in ``excluded_concepts``.
    """

    mf_samples: float
    mf_concepts: float
    mean_ap: float
    per_concept_f: np.ndarray
    per_concept_ap: np.ndarray
    excluded_concepts: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        def clean(v):
            v = float(v)
            return None if math.isnan(v) else v

        return {
            "mf_samples": clean(self.mf_samples),
            "mf_concepts": clean(self.mf_concepts),
            "mean_ap": clean(self.mean_ap),
            "per_concept_f": [clean(v) for v in self.per_concept_f],
            "per_concept_ap": [clean(v) for v in self.per_concept_ap],
            "excluded_concepts": list(self.excluded_concepts),
        }


def _average_precision(scores_k: np.ndarray, positives: np.ndarray) -> float:
    """Precision averaged over the ranks of the positive samples.

    Ranking is by descending score; tied scores rank by ascending sample
    index.
    """
    n = scores_k.shape[0]
    order = np.lexsort((np.arange(n), -scores_k))
    hits = positives[order]
    cum = np.cumsum(hits)
    ranks = np.nonzero(hits)[0]
    precisions = cum[ranks] / (ranks + 1.0)
    return float(np.mean(precisions))


def evaluate(scores, truth) -> EvalReport:
    """Score a prediction matrix against {-1,+1} ground truth.

    A concept is predicted present when its score is strictly positive.
    """
    scores = _floats(scores, "scores", InputError)
    truth = _floats(truth, "truth", InputError)
    if scores.ndim != 2 or truth.shape != scores.shape:
        raise InputError("scores and truth must be equal-shape 2-D arrays")
    if not np.isin(truth, (-1.0, 1.0)).all():
        raise InputError("truth entries must be exactly -1 or +1")
    n, K = scores.shape
    predicted = scores > 0
    positive = truth > 0

    sample_f = np.empty(n)
    for i in range(n):
        sample_f[i] = f_measure(np.nonzero(predicted[i])[0],
                                np.nonzero(positive[i])[0])
    mf_samples = float(np.mean(sample_f))

    per_f = np.full(K, np.nan)
    per_ap = np.full(K, np.nan)
    excluded = []
    for k in range(K):
        if not positive[:, k].any():
            excluded.append(k)
            continue
        per_f[k] = f_measure(np.nonzero(predicted[:, k])[0],
                             np.nonzero(positive[:, k])[0])
        per_ap[k] = _average_precision(scores[:, k], positive[:, k])
    included = [k for k in range(K) if k not in excluded]
    if not included:
        raise InputError("every concept lacks positives; nothing to evaluate")
    mf_concepts = float(np.mean(per_f[included]))
    mean_ap = float(np.mean(per_ap[included]))
    return EvalReport(mf_samples=mf_samples, mf_concepts=mf_concepts,
                      mean_ap=mean_ap, per_concept_f=per_f,
                      per_concept_ap=per_ap, excluded_concepts=tuple(excluded))
