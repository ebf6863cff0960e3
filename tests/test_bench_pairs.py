"""tools/bench_pairs.py: its paired-benchmark summary, on fixed numbers, and
its clean-up when stopped."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "samples_per_s", "better": "higher", "bound": 0.25},
           {"name": "op_p50_ms", "better": "lower", "bound": 0.25}]


def _pairs(base, change, name):
    return [{"base": {name: b}, "change": {name: c}} for b, c in zip(base, change)]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1-4") == [1, 2, 3, 4]
    assert bench_pairs.parse_seeds("3,7,1-2") == [3, 7, 1, 2]
    for text in ("x", "5-3", "1,5-3", ""):
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds(text)


@pytest.mark.parametrize("seeds", ["5-3", "x"])
def test_bad_seeds_are_a_usage_error(seeds, capsys):
    # argparse's usage error, exit 2, before any tree is exported; main
    # installs a SIGTERM handler, which this process gets back afterwards
    previous = signal.getsignal(signal.SIGTERM)
    try:
        with pytest.raises(SystemExit) as info:
            bench_pairs.main(["--workload", "train-300", "--seeds", seeds,
                              "--base", "HEAD"])
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: --seeds '{seeds}': " in err
    assert "Traceback" not in err


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4, 1, 3, 2, 5]) == [2, 3, 4]
    assert bench_pairs.quartiles([1, 2, 3, 4]) == [1.75, 2.5, 3.25]
    assert bench_pairs.quartiles([7]) == [7, 7, 7]


def test_summary_counts_wins_in_the_better_direction():
    base = [100, 110, 90, 105, 95, 100, 102, 98, 101, 99]
    faster = [b + 20 for b in base]
    faster[3] = base[3]  # a tie counts for neither side
    pairs = [{"base": {"samples_per_s": b, "op_p50_ms": b},
              "change": {"samples_per_s": c, "op_p50_ms": c}}
             for b, c in zip(base, faster)]
    summary = bench_pairs.summarize(pairs, METRICS)
    up = summary["samples_per_s"]
    assert up["wins"] == 9 and up["pairs"] == 10
    assert up["base_quartiles"] == bench_pairs.quartiles(base)
    assert up["change_quartiles"] == bench_pairs.quartiles(faster)
    assert up["median_change_pct"] == pytest.approx(100 * (119.5 - 100) / 100)
    assert up["gap_exceeds_base_iqr"]
    # the same numbers are a loss where lower is better
    down = summary["op_p50_ms"]
    assert down["wins"] == 0
    assert not down["gap_exceeds_base_iqr"]


def test_summary_gap_must_exceed_the_base_iqr():
    base = [90, 100, 110, 120, 80, 100, 95, 105, 115, 85]
    # wins every pair, but the median moves by less than the base's IQR
    change = [b + 1 for b in base]
    up = bench_pairs.summarize(_pairs(base, change, "samples_per_s"),
                               METRICS[:1])["samples_per_s"]
    assert up["wins"] == 10
    q1, _, q3 = up["base_quartiles"]
    assert q3 - q1 > 1
    assert not up["gap_exceeds_base_iqr"]


def test_pair_ratios_see_a_gain_through_drift():
    # the machine slows 2x across the series; the change is 10% faster in
    # every pair, but the base's spread hides it from the medians
    base = [100.0 + 100.0 * k / 9 for k in range(10)]
    change = [1.1 * b for b in base]
    up = bench_pairs.summarize(_pairs(base, change, "samples_per_s"),
                               METRICS[:1])["samples_per_s"]
    assert up["wins"] == 10
    assert not up["gap_exceeds_base_iqr"]
    assert up["ratio_quartiles"] == pytest.approx([1.1, 1.1, 1.1])


def test_verdict_reads_the_change_against_the_bound():
    # a 25% bound on a lower-is-better time, over a base spread 4% wide
    base = [100, 98, 102, 101, 99, 100, 103, 97, 100, 101]

    def read(change, base=base):
        summary = bench_pairs.summarize(_pairs(base, change, "op_p50_ms"),
                                        METRICS[1:])
        return summary["op_p50_ms"]["verdict"]

    assert read([1.3 * b for b in base]) == "worse"
    assert read([1.2 * b for b in base]) == "held"
    assert read([0.5 * b for b in base]) == "held"
    # a base spread wider than the bound cannot tell 20% worse from equal
    wide = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert read([1.2 * b for b in wide], base=wide) == "unresolved"
    assert read(wide, base=wide) == "unresolved"
    # unless every change run beats every base run
    assert read([50] * 10, base=wide) == "held"


def test_failures_compare_each_sides_failed_share():
    def run(attempted, failed):
        return {"attempted": attempted, "failed": failed}

    pairs = [{"base": run(10, 0), "change": run(12, 1)},
             {"base": run(10, 1), "change": run(12, 0)}]
    failures = bench_pairs.compare_failures(pairs)
    assert failures["base"] == {"attempted": 20, "failed": 1}
    assert failures["change"] == {"attempted": 24, "failed": 1}
    # 1 of 24 is a smaller share than 1 of 20
    assert not failures["more_failures"]
    pairs[1]["change"] = run(12, 1)
    assert bench_pairs.compare_failures(pairs)["more_failures"]
    clean = [{"base": run(5, 0), "change": run(7, 0)}]
    assert not bench_pairs.compare_failures(clean)["more_failures"]


@pytest.mark.skipif(not (_PATH.parent.parent / ".git").exists(),
                    reason="the tool exports its base revision with git")
def test_sigterm_removes_both_trees(tmp_path):
    # stopped while it copies the trees or runs a benchmark, the tool must
    # kill the benchmark and leave nothing in its temporary directory
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    proc = subprocess.Popen(
        [sys.executable, str(_PATH), "--workload", "train-300", "--seeds", "1",
         "--base", "HEAD", "--out", str(tmp_path / "out.json")],
        cwd=_PATH.parent.parent, env={**os.environ, "TMPDIR": str(tmpdir)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(tmpdir.glob("*/base")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert code != 0
    assert list(tmpdir.iterdir()) == []
    assert not (tmp_path / "out.json").exists()
