"""The dual-form baseline, vectorized over supports.

``dkn.dkn_classify`` evaluates the network kernel one support pair at a
time in Python; it stays the reference for the acceptance gate but is not a
fair speed baseline.  Here one sample is scored against every support at
once: a cross gram per input kernel, mixed with the architecture's weights
in ascending unit order and activated layer by layer.
"""

from __future__ import annotations

import time

import numpy as np

from dmapnet.dkn import activation_apply
from dmapnet.kernels import gram_matrix


def dual_scores(arch, support, dual_coef, bias, x):
    """Dual-form scores of one sample, vectorized over the supports."""
    kappa = [gram_matrix(spec, x, support).values[0]
             for spec in arch.input_kernels]
    for layer in arch.layers:
        mixed = []
        for row in layer.weights:
            acc = row[0] * kappa[0]
            for q in range(1, len(kappa)):
                acc = acc + row[q] * kappa[q]
            mixed.append(activation_apply(layer.activation, acc))
        kappa = mixed
    return dual_coef @ kappa[0] + bias


def time_dual(arch, anchors, queries, sizes, rng, budget_s):
    """Median seconds per single-sample dual score at each support count.

    Supports are drawn uniformly inside the anchors' bounding box, as the
    library's own bench does, so every base kernel accepts them.  Each size
    gets one unmeasured warm-up call, then calls until ``budget_s`` passes.
    """
    low = anchors.min(axis=0)
    span = np.where(anchors.max(axis=0) > low, anchors.max(axis=0) - low, 1.0)
    medians = {}
    for size in sizes:
        support = low + span * rng.random((size, anchors.shape[1]))
        coef = rng.standard_normal((5, size))
        bias = np.zeros(5)
        dual_scores(arch, support, coef, bias, queries[0])
        times = []
        deadline = time.perf_counter() + budget_s
        i = 0
        while i < 5 or time.perf_counter() < deadline:
            x = queries[i % len(queries)]
            t0 = time.perf_counter()
            dual_scores(arch, support, coef, bias, x)
            times.append(time.perf_counter() - t0)
            i += 1
        medians[size] = float(np.median(times))
    return medians


def crossover_supports(medians, single_s):
    """Support count at which the dual form costs ``single_s`` per sample,
    from the straight line through the two measured sizes."""
    (s1, t1), (s2, t2) = sorted(medians.items())[:2]
    slope = (t2 - t1) / (s2 - s1)
    return s1 + (single_s - t1) / slope
