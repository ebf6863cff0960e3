"""Benchmark plumbing at desk scale; the scaling claim itself is covered by
the acceptance suite."""

import json

import numpy as np
import pytest

import helpers
from dmapnet import AnchorSet, BenchReport, BenchRow, ConfigError, run_bench


def _tiny_report():
    rng = np.random.default_rng(70)
    anchors = AnchorSet(samples=rng.uniform(0.0, 0.5, size=(8, 3)))
    arch = helpers.toy_arch(rng)
    return run_bench(arch, anchors, sizes=(4, 9), reps=5, num_classes=2,
                     seed=70)


def test_run_bench_rows_and_values():
    report = _tiny_report()
    assert report.anchor_count == 8
    assert report.num_classes == 2
    frameworks = {(r.framework, r.support_size) for r in report.rows}
    assert frameworks == {("dkn", 4), ("dkn", 9), ("dmn", 4), ("dmn", 9)}
    for row in report.rows:
        assert row.repetitions == 5
        assert row.mean_seconds > 0
        assert row.median_seconds > 0
        assert row.std_seconds >= 0


def test_run_bench_validation():
    rng = np.random.default_rng(71)
    anchors = AnchorSet(samples=rng.uniform(0.0, 0.5, size=(6, 3)))
    arch = helpers.toy_arch(rng)
    with pytest.raises(ConfigError):
        run_bench(arch, anchors, sizes=(4,), reps=3)
    with pytest.raises(ConfigError):
        run_bench(arch, anchors, sizes=(), reps=5)
    with pytest.raises(ConfigError):
        run_bench(arch, anchors, sizes=(0,), reps=5)
    for sizes in ((np.nan,), (2.5,), (np.inf,), ("x",)):
        with pytest.raises(ConfigError, match="support sizes"):
            run_bench(arch, anchors, sizes=sizes, reps=5)
    for reps in (np.nan, np.inf, 5.5):
        with pytest.raises(ConfigError, match="repetitions"):
            run_bench(arch, anchors, sizes=(4,), reps=reps)
    for classes in (0, -1, 1.5, np.nan):
        with pytest.raises(ConfigError, match="at least one class"):
            run_bench(arch, anchors, sizes=(4,), reps=5, num_classes=classes)
    for clip_ratio in ("x", None):
        with pytest.raises(ConfigError, match="clip_ratio"):
            run_bench(arch, anchors, sizes=(4,), reps=5, clip_ratio=clip_ratio)


def test_report_tsv_layout():
    report = _tiny_report()
    text = report.to_tsv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# anchors=8 classes=2")
    assert lines[2].split("\t")[0] == "framework"
    assert len(lines) == 3 + len(report.rows)
    first = lines[3].split("\t")
    assert first[0] in ("dkn", "dmn")
    assert int(first[1]) in (4, 9)
    float(first[2]), float(first[3]), float(first[4])


def test_report_json_round_trip():
    report = _tiny_report()
    obj = json.loads(report.to_json())
    assert obj["anchor_count"] == 8
    assert len(obj["rows"]) == len(report.rows)
    assert obj["rows"][0]["mean_seconds"] == report.rows[0].mean_seconds


def test_mean_of_lookup():
    report = _tiny_report()
    value = report.mean_of("dkn", 9)
    assert value > 0
    with pytest.raises(KeyError):
        report.mean_of("dkn", 999)


def test_report_validation():
    row = BenchRow(framework="dkn", support_size=4, mean_seconds=1e-4,
                   std_seconds=0.0, median_seconds=1e-4, repetitions=4)
    with pytest.raises(ConfigError):
        BenchReport(rows=[row], anchor_count=8, num_classes=2)
    bad_time = BenchRow(framework="dkn", support_size=4, mean_seconds=0.0,
                        std_seconds=0.0, median_seconds=0.0, repetitions=5)
    with pytest.raises(ConfigError):
        BenchReport(rows=[bad_time], anchor_count=8, num_classes=2)


def test_dkn_cost_grows_while_dmn_cost_stays_flat():
    # desk-scale version of the scaling claim with loose timing slack;
    # the acceptance suite runs the full-size comparison
    rng = np.random.default_rng(72)
    anchors = AnchorSet(samples=rng.uniform(0.0, 0.5, size=(40, 4)))
    arch = helpers.toy_arch(rng)
    report = run_bench(arch, anchors, sizes=(50, 200), reps=5,
                       num_classes=2, seed=72)
    assert report.mean_of("dkn", 200) >= 0.8 * report.mean_of("dkn", 50)
    dmn = [report.mean_of("dmn", s) for s in (50, 200)]
    assert max(dmn) / min(dmn) <= 1.5
