"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

The count test runs every workload twice through ``run.py`` and takes
about three minutes on two cores.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from dual import crossover_supports, dual_scores  # noqa: E402
from tracer import Tracer  # noqa: E402

import dmapnet  # noqa: E402

# counts computed from shapes, file sizes and the training loop; with the
# same seed they must repeat exactly
EXACT = ["model.param_bytes", "model.bytes_per_sample", "model.flops_per_sample",
         "model.container_bytes", "builder.retained_total",
         "builder.discarded_total", "training.iterations", "checks.attempts",
         "checks.rejected_attempts", "checks.accepted_iterations",
         "checks.useful_iter_ratio"]


def _run(workload, seed, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return done


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    tree = tracer.tree()
    (outer,) = tree.named("outer")
    (inner,) = tree.named("inner", outer)
    assert tree.self_time(outer) == pytest.approx(
        tree.duration(outer) - tree.duration(inner))
    assert tree.total("inner", outer) == tree.duration(inner)


def test_absent_boundary_is_recorded_not_fatal():
    tracer = Tracer()
    tracer.install([("gone", "dmapnet", "no_such_function"),
                    ("gone", "dmapnet.no_such_module", "f"),
                    ("eigen_projection", "dmapnet.builder", "eigen_projection")])
    try:
        dmapnet.builder.eigen_projection(np.eye(3))
    finally:
        tracer.uninstall()
    assert tracer.absent == {"dmapnet.no_such_function",
                             "dmapnet.no_such_module.f"}
    assert len(tracer.tree().named("eigen_projection")) == 1
    assert dmapnet.builder.eigen_projection is dmapnet.eigen_projection


def test_vectorized_dual_matches_per_pair_reference():
    rng = np.random.default_rng(3)
    arch = dmapnet.default_architecture(dmapnet.default_input_kernels())
    support = rng.uniform(0.0, 0.5, size=(40, 10))
    coef = rng.standard_normal((5, 40))
    bias = rng.standard_normal(5)
    x = rng.uniform(0.0, 0.5, size=10)
    np.testing.assert_allclose(dual_scores(arch, support, coef, bias, x),
                               dmapnet.dkn_classify(arch, support, coef, bias, x),
                               rtol=1e-10, atol=1e-12)


def test_crossover_interpolates_linearly():
    assert crossover_supports({10: 1.0, 30: 3.0}, 2.0) == pytest.approx(20.0)


def test_counts_repeat_for_the_same_seed():
    for workload in ("build-1000", "serve-1000", "train-300"):
        results = []
        for _ in range(2):
            done = _run(workload, 5, 1)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0
            results.append(result["metrics"])
        for key in EXACT:
            assert results[0][key]["value"] == results[1][key]["value"], key


def test_refuses_to_run_without_the_library():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        done = _run("build-1000", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert "correct" not in done.stdout
