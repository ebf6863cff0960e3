"""The three workloads and the metrics they report.

Every workload drives the library through its public functions from one
process and one closed-loop caller: the next call starts when the previous
one returned.  All use the default 4-kernel, 3-layer architecture on
``generate_synthetic`` data with 10 features, 5 classes and label noise 0.1.

- ``build-1000``: set-up writes the seeded anchors to a dataset file and
  reads them back, as the command line gets them.  One op builds the maps
  over 1000 anchors (clip 1e-10), saves the model to a file and loads it
  back.  Thirteen ``eigh`` calls on 1000x1000 grams dominate; the container
  is about 237 MB.  No forward pass and no training run, so it is the bypass
  workload for inference and training changes.
- ``serve-1000``: set-up builds, saves and loads the same 1000-anchor model
  and fits a head on the anchors' final maps.  Phase (a) scores one sample
  per ``score_batch`` call; every call reads all parameters, more than the
  L3 cache holds, so it is memory-bound.  Phase (b) scores 256-row batches,
  which turns the same work into compute-bound matrix products.  Each
  set-up is followed by its share of both phases.
- ``train-300``: one op cross-validates the trade-offs (3 folds) and runs the
  guarded training loop (eta 1e-6, 200 iterations, tol 1e-6) on the
  acceptance gate's criterion-3 problem: 300 samples, 100 anchors, clip
  1e-6.  The guard's restarts discard work (362 iterations run to keep 200).
  The problem is fixed rather than drawn from the seed because the number
  of restarts, and with it the op's cost, swings from 11 s to 21 s between
  data seeds; the seed draws the initial head instead.

End-to-end metrics, the same names on every workload:

- ``setup_s``: median wall time of the run's set-ups (each run sets up
  ``SETUPS`` times).
- ``peak_rss_mb``: peak resident memory of the process.
- ``op_p50_ms`` / ``op_p90_ms``: latency of one op: build plus save plus
  load on build-1000, one single-sample ``score_batch`` call on serve-1000,
  cross-validation plus guarded training on train-300.
- ``samples_per_s``: samples through the bulk numeric path per second:
  anchors per second of ``build_dmn`` on build-1000, rows per second of
  256-row ``score_batch`` calls on serve-1000, and training samples times
  accepted iterations per second of op time on train-300.

A traced run alternates ops (set-ups, requests) with the wrappers installed
and removed, reports per-layer metrics from the traced ones, and reports the
gap between the two halves as the tracing overhead.
"""

from __future__ import annotations

import os
import resource
import time
from contextlib import contextmanager, nullcontext

import numpy as np

import dmapnet
from dmapnet import (AnchorSet, ClassifierHead, SyntheticSpec, TrainConfig,
                     default_architecture, default_input_kernels, evaluate,
                     forward_batch, generate_synthetic, reconstruction_errors)

from dual import crossover_supports, dual_scores, time_dual
from tracer import Tracer

SETUPS = 3
FEATURES = 10
CLASSES = 5
NOISE = 0.1

# single-sample and 256-row scores agree to this share of the row's largest
# score.  The one-row and 256-row products sum in different orders, and over
# 1000 anchors the elementwise gap reaches 3e-10 on scores near zero, while
# the gap relative to the row's largest score stayed below 6e-13.
SCORE_RTOL = 1e-11

# reconstruction_errors bounds for a 1000-anchor build at clip 1e-10: input
# units reproduce their grams to rounding; combination units lose the
# clipped (and negative) part of their activated grams, 0.019-0.042 measured
RECON_BOUND_INPUT = 1e-8
RECON_BOUND_UPPER = 0.1

BATCH_ROWS = 256
QUERY_POOL = 1024
DUAL_SIZES = (5_000, 50_000)

# (span name, module, attribute).  The benchmark calls the library through
# the package attributes, so wrapping those records its own calls; the rest
# sit on the names the library's modules call each other by.
BOUNDARIES = [
    ("build_dmn", "dmapnet", "build_dmn"),
    ("gram_matrix", "dmapnet.builder", "gram_matrix"),
    ("eigen_projection", "dmapnet.builder", "eigen_projection"),
    ("save_model", "dmapnet", "save_model"),
    ("load_model", "dmapnet", "load_model"),
    ("svm_solve", "dmapnet", "svm_solve"),
    ("score_batch", "dmapnet", "score_batch"),
    ("forward_batch", "dmapnet.model", "forward_batch"),
    ("input_kernel_rows", "dmapnet.model", "input_kernel_rows"),
    ("cross_validate_C", "dmapnet", "cross_validate_C"),
    ("train_with_guard", "dmapnet", "train_with_guard"),
    ("train", "dmapnet.checks", "train"),
    ("forward_batch", "dmapnet.training", "forward_batch"),
    ("svm_solve", "dmapnet.training", "svm_solve"),
    ("backprop", "dmapnet.training", "backprop"),
    ("apply_gradients", "dmapnet.training", "apply_gradients"),
    ("copy_model", "dmapnet.training", "copy_model"),
]

# per-iteration spans of the training loop, with the metric each feeds
ITERATION_SPANS = [
    ("forward_batch", "training.forward_ms"),
    ("svm_solve", "training.svm_solve_ms"),
    ("backprop", "training.backprop_ms"),
    ("apply_gradients", "training.step_ms"),
    ("copy_model", "training.snapshot_ms"),
]


class Run:
    """Counters, timings and checks of one benchmark run."""

    def __init__(self, seed: int, seconds: float, out_dir, traced: bool):
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.tracer = Tracer() if traced else None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.counts = {}
        # e2e values split by whether the wrappers were installed
        self.samples = {True: {}, False: {}}

    def record(self, name, value, traced):
        self.samples[traced].setdefault(name, []).append(value)

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    @contextmanager
    def tracing(self, on: bool):
        """Install the wrappers for one op when this run traces and ``on``."""
        active = self.tracer is not None and on
        if active:
            self.tracer.install(BOUNDARIES)
        try:
            yield active
        finally:
            if active:
                self.tracer.uninstall()

    def span(self, name, active):
        return self.tracer.span(name) if active else nullcontext()

    def attempt(self, op, *args):
        """Run one op; count it, and count it failed if it raises or its
        output check returns False.  Returns the op's value or None."""
        self.attempted += 1
        try:
            value, ok = op(*args)
        except Exception as err:  # any failure of one op is counted, not fatal
            self.fail(f"{type(err).__name__}: {err}")
            return None
        if not ok:
            self.fail("output check failed")
        return value

    def loop(self, op):
        """Closed-loop ops for ``seconds``, alternating traced and untraced
        ops in a traced run; at least two ops."""
        deadline = time.perf_counter() + self.seconds
        i = 0
        while i < 2 or time.perf_counter() < deadline:
            op(i % 2 == 0)
            i += 1

    def setup_once(self, i, setup):
        """Time set-up number ``i``; even ones are traced in a traced run."""
        with self.tracing(i % 2 == 0) as active:
            t0 = time.perf_counter()
            with self.span("setup", active):
                state = setup()
            self.record("setup_s", time.perf_counter() - t0, active)
        return state

    def setups(self, setup):
        """Set up ``SETUPS`` times; returns the last state."""
        state = None
        for i in range(SETUPS):
            state = None  # drop the previous state before the next set-up
            state = self.setup_once(i, setup)
        return state


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def _p90(values):
    return float(np.percentile(values, 90)) if len(values) else 0.0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _dataset(n, seed):
    return generate_synthetic(SyntheticSpec(num_samples=n, num_features=FEATURES,
                                            num_classes=CLASSES, noise=NOISE,
                                            seed=seed))


def _model_arrays(model, head=None):
    arrays = [model.anchor_samples]
    arrays += [layer.weights for layer in model.arch.layers]
    for units in model.layers:
        for unit in units:
            arrays += [unit.anchors, unit.projection]
    if head is not None:
        arrays += [head.normals, head.trade_offs]
    return arrays


def _same_model(a, b):
    pairs = zip(_model_arrays(a), _model_arrays(b))
    return all(x.shape == y.shape and np.array_equal(x, y) for x, y in pairs)


def model_counts(model, head=None):
    """Sizes computed from array shapes (not measured).

    ``bytes_per_sample`` is what one single-sample forward pass reads: the
    anchor samples, every projection, the anchor matrices of the
    combination layers and the head.  Input-layer anchor maps are only used
    while building.  ``flops_per_sample`` counts multiply-adds as two flops
    over the same products, plus three per anchor and feature for the base
    kernels' feature loops.
    """
    n, d = model.anchor_samples.shape
    param = sum(a.nbytes for a in _model_arrays(model, head))
    read = model.anchor_samples.nbytes
    flops = 0
    for l, units in enumerate(model.layers):
        for unit in units:
            read += unit.projection.nbytes
            flops += 2 * n * unit.width
            if l == 0:
                flops += 3 * n * d
            else:
                read += unit.anchors.nbytes
                flops += 2 * n * unit.anchors.shape[1]
    if head is not None:
        read += head.normals.nbytes
        flops += 2 * head.normals.size
    return {"model.param_bytes": param, "model.bytes_per_sample": read,
            "model.flops_per_sample": flops}


def clip_counts(model):
    reports = [u.clip_report for units in model.layers for u in units
               if u.clip_report is not None]
    return {"builder.retained_total": sum(r.retained for r in reports),
            "builder.discarded_total": sum(r.discarded for r in reports)}


# --- build-1000 --------------------------------------------------------------

def build_1000(run: Run) -> None:
    arch = default_architecture(default_input_kernels())

    path = os.path.join(run.out_dir, f"build-{os.getpid()}.dmn")
    data_path = os.path.join(run.out_dir, f"build-{os.getpid()}.tsv")

    def setup():
        # the command line's path: the anchors arrive as a dataset file
        dmapnet.save_dataset(_dataset(1000, run.seed), data_path)
        data = dmapnet.load_dataset(data_path)
        os.remove(data_path)
        return AnchorSet(samples=data.features, ids=data.ids)

    anchors = run.setups(setup)
    last = {}

    def op():
        t0 = time.perf_counter()
        model = dmapnet.build_dmn(arch, anchors, clip_ratio=1e-10)
        t1 = time.perf_counter()
        dmapnet.save_model(model, None, path)
        loaded, _ = dmapnet.load_model(path)
        t2 = time.perf_counter()
        last["model"] = model
        return (t1 - t0, t2 - t0), _same_model(model, loaded)

    def one(traced):
        last.pop("model", None)
        with run.tracing(traced) as active:
            with run.span("op", active):
                value = run.attempt(op)
        if value is not None:
            run.record("build_s", value[0], active)
            run.record("op_s", value[1], active)
            run.record("rate", 1000 / value[0], active)

    try:
        run.loop(one)
        run.counts["model.container_bytes"] = os.path.getsize(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    model = last.get("model")
    if model is None:
        return
    run.counts.update(model_counts(model))
    run.counts.update(clip_counts(model))

    def fidelity():
        errors = reconstruction_errors(model)
        worst_input = max(errors[0])
        worst_upper = max(max(layer) for layer in errors[1:])
        run.counts["check.recon_input_max"] = worst_input
        run.counts["check.recon_upper_max"] = worst_upper
        return None, (worst_input <= RECON_BOUND_INPUT
                      and worst_upper <= RECON_BOUND_UPPER)

    run.attempt(fidelity)


# --- serve-1000 --------------------------------------------------------------

def _serve(run, model, head, queries, seconds):
    """Single-sample requests, then 256-row batches, each for ``seconds``.

    Single scores must match the rows of one batch call over the same
    queries; repeated batches must match their first call.
    """
    reference = dmapnet.score_batch(model, head, queries[:BATCH_ROWS])
    scale = np.max(np.abs(reference), axis=1)
    first = {0: reference}

    def single(i):
        q = i % BATCH_ROWS
        t0 = time.perf_counter()
        scores = dmapnet.score_batch(model, head, queries[q:q + 1])
        elapsed = time.perf_counter() - t0
        ok = (np.isfinite(scores).all()
              and np.max(np.abs(scores[0] - reference[q])) <= SCORE_RTOL * scale[q])
        return elapsed, ok

    def batch(i):
        lo = (i * BATCH_ROWS) % QUERY_POOL
        t0 = time.perf_counter()
        scores = dmapnet.score_batch(model, head, queries[lo:lo + BATCH_ROWS])
        elapsed = time.perf_counter() - t0
        ref = first.setdefault(lo, scores)
        gap = np.max(np.abs(scores - ref), axis=1)
        ok = (np.isfinite(scores).all()
              and (gap <= SCORE_RTOL * np.max(np.abs(ref), axis=1)).all())
        return BATCH_ROWS / elapsed, ok

    def phase(name, request, metric, block):
        """Closed-loop requests in blocks that alternate traced and
        untraced in a traced run; at least two blocks."""
        deadline = time.perf_counter() + seconds
        i = 0
        while i < 2 * block or time.perf_counter() < deadline:
            with run.tracing((i // block) % 2 == 0) as active:
                for _ in range(block):
                    with run.span(name, active):
                        value = run.attempt(request, i)
                    if value is not None:
                        run.record(metric, value, active)
                    i += 1

    phase("request.single", single, "op_s", 16)
    phase("request.batch", batch, "rate", 1)


def serve_1000(run: Run) -> None:
    arch = default_architecture(default_input_kernels())
    path = os.path.join(run.out_dir, f"serve-{os.getpid()}.dmn")
    data = _dataset(1000 + QUERY_POOL, run.seed)
    queries = data.features[1000:]

    def setup():
        anchors = AnchorSet(samples=data.features[:1000], ids=data.ids[:1000])
        built = dmapnet.build_dmn(arch, anchors, clip_ratio=1e-10)
        dmapnet.save_model(built, None, path)
        del built
        model, _ = dmapnet.load_model(path)
        final, _ = forward_batch(model, anchors.samples)
        normals = dmapnet.svm_solve(final, data.labels[:1000], 1.0)
        return model, ClassifierHead(normals, np.ones(CLASSES))

    # Each set-up is followed by its own share of both phases: single-sample
    # latency moves by about 10% between freshly loaded copies of the same
    # model, so serving from every copy keeps one copy's luck out of a run.
    share = run.seconds / (2.0 * SETUPS)
    state = None
    try:
        for k in range(SETUPS):
            state = None  # drop the previous copy before building the next
            state = run.setup_once(k, setup)
            run.counts["model.container_bytes"] = os.path.getsize(path)
            _serve(run, *state, queries, share)
    finally:
        if os.path.exists(path):
            os.remove(path)
    model, head = state
    run.counts.update(model_counts(model, head))
    run.counts.update(clip_counts(model))

    if run.tracer is not None:
        rng = np.random.default_rng(run.seed)
        support = data.features[:50]
        coef = rng.standard_normal((CLASSES, 50))
        bias = np.zeros(CLASSES)
        fast = dual_scores(arch, support, coef, bias, queries[0])
        slow = dmapnet.dkn_classify(arch, support, coef, bias, queries[0])
        run.attempt(lambda: (None, np.allclose(fast, slow, rtol=1e-10, atol=1e-12)))
        medians = time_dual(arch, data.features[:1000], queries, DUAL_SIZES,
                            rng, budget_s=1.0)
        run.counts["dkn.dual_vec_5k_ms"] = medians[5_000] * 1e3
        run.counts["dkn.dual_vec_50k_ms"] = medians[50_000] * 1e3
        single_p50 = _median(run.samples[False].get("op_s", []))
        run.counts["dkn.crossover_supports"] = crossover_supports(medians, single_p50)


# --- train-300 ---------------------------------------------------------------

def _monotone(objectives):
    return all(b <= a + 1e-12 * max(1.0, abs(a))
               for a, b in zip(objectives, objectives[1:]))


def train_300(run: Run) -> None:
    def setup():
        data = generate_synthetic(SyntheticSpec(num_samples=300, num_features=FEATURES,
                                                num_classes=CLASSES, clusters=1,
                                                noise=NOISE, seed=7))
        anchors = AnchorSet(samples=data.features[:100], ids=data.ids[:100])
        arch = default_architecture(default_input_kernels(), seed=7)
        return data, dmapnet.build_dmn(arch, anchors, clip_ratio=1e-6)

    data, model = run.setups(setup)
    run.counts.update(clip_counts(model))
    initial, _ = forward_batch(model, data.features)
    last = {}

    def op():
        t0 = time.perf_counter()
        C = dmapnet.cross_validate_C(data, model, folds=3)
        head = ClassifierHead.random(CLASSES, model.final_width, trade_off=C,
                                     seed=run.seed)
        cfg = TrainConfig(learning_rate=1e-6, max_iters=200, c_policy=C,
                          convergence_tol=1e-6, seed=run.seed)
        trained, trained_head, history, _ = dmapnet.train_with_guard(
            model, head, data, cfg)
        elapsed = time.perf_counter() - t0
        # criterion-3 gates, outside the timed window
        before = evaluate(initial @ dmapnet.svm_solve(initial, data.labels, C).T,
                          data.labels)
        final, _ = forward_batch(trained, data.features)
        after = evaluate(final @ trained_head.normals.T, data.labels)
        objectives = [e.objective for e in history]
        ok = (_monotone(objectives) and objectives[-1] <= objectives[0]
              and after.mf_samples >= before.mf_samples
              and after.mf_concepts >= before.mf_concepts)
        last["model"] = trained
        return (elapsed, len(history)), ok

    def one(traced):
        with run.tracing(traced) as active:
            with run.span("op", active):
                value = run.attempt(op)
        if value is not None:
            elapsed, accepted = value
            run.record("op_s", elapsed, active)
            run.record("rate", data.num_samples * accepted / elapsed, active)
            run.record("accepted_iterations", accepted, active)

    run.loop(one)
    if "model" in last:
        run.counts.update(model_counts(last["model"]))


WORKLOADS = {"build-1000": build_1000, "serve-1000": serve_1000,
             "train-300": train_300}


# --- metrics -----------------------------------------------------------------

def end_to_end(run: Run, traced: bool) -> dict:
    """End-to-end values from the ops run with the wrappers in state
    ``traced``."""
    s = run.samples[traced]
    op = s.get("op_s", [])
    return {
        "setup_s": _median(s.get("setup_s", [])),
        "peak_rss_mb": _peak_rss_mb(),
        "op_p50_ms": _median(op) * 1e3,
        "op_p90_ms": _p90(op) * 1e3,
        "samples_per_s": _median(s.get("rate", [])),
        "op_samples": len(op),
    }


def per_layer(run: Run, workload: str) -> dict:
    tree = run.tracer.tree()
    m = {}

    builds = tree.named("build_dmn")
    gram = [tree.total("gram_matrix", b) for b in builds]
    eigh = [tree.total("eigen_projection", b) for b in builds]
    m["kernels.gram_s"] = _median(gram)
    m["builder.eigh_s"] = _median(eigh)
    m["builder.self_s"] = _median([tree.duration(b) - g - e
                                   for b, g, e in zip(builds, gram, eigh)])
    m["builder.retained_total"] = run.counts.get("builder.retained_total", 0)
    m["builder.discarded_total"] = run.counts.get("builder.discarded_total", 0)

    for kind in ("single", "batch"):
        rows, fwd = [], []
        for r in tree.named(f"request.{kind}"):
            k = tree.total("input_kernel_rows", r)
            rows.append(k)
            fwd.append(sum(tree.duration(s) for s in tree.named("score_batch", r)) - k)
        m[f"kernels.rows_{kind}_ms"] = _median(rows) * 1e3
        m[f"model.forward_{kind}_ms"] = _median(fwd) * 1e3

    for key in ("model.param_bytes", "model.bytes_per_sample",
                "model.flops_per_sample", "model.container_bytes"):
        m[key] = run.counts.get(key, 0)
    m["model.save_s"] = _median([tree.duration(s) for s in tree.named("save_model")])
    m["model.load_s"] = _median([tree.duration(s) for s in tree.named("load_model")])

    m["training.cv_s"] = _median([tree.duration(s)
                                  for s in tree.named("cross_validate_C")])
    guards = tree.named("train_with_guard")
    per_iter = {metric: [] for _, metric in ITERATION_SPANS}
    iterations, attempts, loop_self = [], [], []
    for g in guards:
        for name, metric in ITERATION_SPANS:
            per_iter[metric] += [tree.self_time(s) for s in tree.named(name, g)]
        count = len(tree.named("forward_batch", g))
        tries = tree.named("train", g)
        iterations.append(count)
        attempts.append(len(tries))
        if count:
            loop_self.append(sum(tree.self_time(t) for t in tries) / count)
    for metric, values in per_iter.items():
        m[metric] = _median(values) * 1e3
    m["training.loop_self_ms"] = _median(loop_self) * 1e3
    iters = int(_median(iterations))
    accepted = int(_median(run.samples[True].get("accepted_iterations", [])))
    m["training.iterations"] = iters
    m["checks.attempts"] = int(_median(attempts))
    m["checks.rejected_attempts"] = max(0, m["checks.attempts"] - 1)
    m["checks.accepted_iterations"] = accepted
    m["checks.useful_iter_ratio"] = accepted / iters if iters else 0.0

    for key in ("dkn.dual_vec_5k_ms", "dkn.dual_vec_50k_ms",
                "dkn.crossover_supports"):
        m[key] = run.counts.get(key, 0.0)

    traced = end_to_end(run, True)
    plain = end_to_end(run, False)
    for key in ("setup_s", "op_p50_ms", "op_p90_ms", "samples_per_s"):
        m[f"trace.overhead.{key}"] = traced[key] - plain[key]

    # how much of the untraced op time the traced layer times account for
    if workload == "build-1000":
        build_s = _median(run.samples[False].get("build_s", []))
        layers = m["kernels.gram_s"] + m["builder.eigh_s"] + m["builder.self_s"]
        m["trace.accounted_pct"] = 100.0 * layers / build_s if build_s else 0.0
    elif workload == "train-300":
        op_ms = plain["op_p50_ms"]
        step = sum(m[metric] for _, metric in ITERATION_SPANS) + m["training.loop_self_ms"]
        layers = m["training.cv_s"] * 1e3 + iters * step
        m["trace.accounted_pct"] = 100.0 * layers / op_ms if op_ms else 0.0
    else:
        single = plain["op_p50_ms"]
        layers = m["kernels.rows_single_ms"] + m["model.forward_single_ms"]
        m["trace.accounted_pct"] = 100.0 * layers / single if single else 0.0
    m["trace.absent_boundaries"] = len(run.tracer.absent)
    return m
