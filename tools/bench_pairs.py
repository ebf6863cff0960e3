"""Compare the working tree with a base revision on one benchmark workload.

    python3 tools/bench_pairs.py --workload serve-1000 --seeds 1-10 --base HEAD

Run from the repository root.  The base revision is exported with
``git archive`` into a temporary directory, and the working tree's files
(tracked or not ignored, as they are on disk) are copied beside it, so both
sides run from directories that differ only in their last name.  For each
seed, both trees run ``perfbench/run.py --trace 0`` for ``BENCHMARK.json``'s
``run_seconds``, one after the other; which side goes first alternates from
seed to seed.  The result goes to ``BENCH_<workload>.json`` (or ``--out``):

- every run's end-to-end metrics with its ``attempted`` and ``failed``
  counts and its ``# provenance`` line;
- for each metric both sides' quartiles, the pairs the working tree won
  (ties count for neither side), whether the gap between the medians
  exceeds the base's interquartile range, the quartiles of the per-pair
  ``change / base`` ratios, and a verdict against the metric's
  no-regression bound: ``held``, ``worse`` or ``unresolved`` (see
  ``_verdict``);
- each side's total ``attempted`` and ``failed`` operations, and
  ``more_failures`` when the working tree's failed share exceeds the
  base's, since a gain does not count then (see ``compare_failures``).

The two runs of a pair
share the machine's state at that moment, so the ratios show a change even
when the machine drifts across the series more than the change moves it.
SIGTERM stops a run like Ctrl-C: the running benchmark is killed and both
exported trees are removed.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def parse_seeds(text: str) -> list:
    """``"1-10"`` or ``"1,2,5"`` as a list of ints; ValueError for anything
    else, a downward range such as ``"5-3"`` included."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        if sep and int(hi) < int(lo):
            raise ValueError(f"range {part!r} runs downward")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


def quartiles(values) -> list:
    """First quartile, median and third quartile, interpolating linearly
    between order statistics."""
    xs = sorted(values)
    out = []
    for q in (0.25, 0.5, 0.75):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        out.append(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))
    return out


def _verdict(base, change, better: str, bound: float) -> str:
    """Whether the change kept a metric within its no-regression ``bound``,
    a fraction of the base's median.

    ``unresolved`` when the base's interquartile range exceeds the bound,
    since a spread that wide hides a regression of that size, unless every
    change run beats every base run; else ``worse`` when the change's median
    is worse than the base's by more than the bound; else ``held``.
    """
    sign = 1.0 if better == "higher" else -1.0
    (b1, bmed, b3), cmed = quartiles(base), quartiles(change)[1]
    dominates = min(sign * c for c in change) > max(sign * b for b in base)
    if b3 - b1 > bound * abs(bmed) and not dominates:
        return "unresolved"
    return "worse" if sign * (bmed - cmed) > bound * abs(bmed) else "held"


def summarize(pairs, metrics) -> dict:
    """Per metric: both sides' quartiles, the change's wins, whether the
    median gap in the metric's better direction exceeds the base's IQR, the
    quartiles of the per-pair ``change / base`` ratios (None when a base
    value is 0), and the ``verdict`` against the metric's bound.

    ``pairs`` holds one ``{"base": {...}, "change": {...}}`` per seed, each
    side mapping metric names to values; ``metrics`` holds ``BENCHMARK.json``
    entries with ``name``, ``better`` and ``bound``.
    """
    summary = {}
    for metric in metrics:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        bq, cq = quartiles(base), quartiles(change)
        gain = sign * (cq[1] - bq[1])
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        summary[name] = {
            "better": metric["better"],
            "base_quartiles": bq,
            "change_quartiles": cq,
            "median_change_pct": 100.0 * (cq[1] - bq[1]) / bq[1] if bq[1] else None,
            "wins": wins,
            "pairs": len(pairs),
            "gap_exceeds_base_iqr": gain > bq[2] - bq[0],
            "ratio_quartiles": (quartiles([c / b for b, c in zip(base, change)])
                                if all(base) else None),
            "verdict": _verdict(base, change, metric["better"], metric["bound"]),
        }
    return summary


def compare_failures(pairs) -> dict:
    """Each side's total ``attempted`` and ``failed`` operations over
    ``pairs`` (``{"base": run, "change": run}`` with ``run_once``'s counts),
    and ``more_failures``: whether the change's failed share is higher."""
    totals = {side: {"attempted": sum(p[side]["attempted"] for p in pairs),
                     "failed": sum(p[side]["failed"] for p in pairs)}
              for side in SIDES}
    base, change = totals["base"], totals["change"]
    # failed / attempted compared without dividing, so no side needs an op
    totals["more_failures"] = (change["failed"] * base["attempted"]
                               > base["failed"] * change["attempted"])
    return totals


def export_revision(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; returns the full commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                             f"{rev}^{{commit}}"], capture_output=True, text=True,
                            check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                              commit], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def copy_working_tree(dest: Path) -> None:
    """Copy the working tree's tracked and unignored files into ``dest``."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached",
                             "--others", "--exclude-standard"], capture_output=True,
                            check=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``: its metrics, counts and
    provenance line."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {tree} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    provenance = [line for line in lines if line.startswith("# provenance ")]
    return {"seed": seed,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "provenance": provenance[0] if provenance else None}


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # an unhandled SIGTERM ends the process without unwinding, which would
    # leave both trees behind; as SystemExit it runs every with block's exit
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--base", required=True, help="git revision to compare with")
    parser.add_argument("--out", help="default: BENCH_<workload>.json at the root")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as err:
        parser.error(f"--seeds {args.seeds!r}: {err}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = spec["run_seconds"]
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True).stdout.strip()
    modified = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                               "--", "src"], capture_output=True,
                              text=True).stdout.strip() != ""

    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "work"}
        base_commit = export_revision(args.base, trees["base"])
        copy_working_tree(trees["change"])
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed, seconds)
                print(f"seed {seed} {side}: {json.dumps(pair[side]['metrics'])}",
                      file=sys.stderr)
            pairs.append(pair)

    summary = summarize([{side: p[side]["metrics"] for side in SIDES} for p in pairs],
                        spec["end_to_end"])
    report = {
        "workload": args.workload,
        "run_seconds": seconds,
        "trace": 0,
        "base": {"commit": base_commit},
        "change": {"tree": "working tree", "head": head, "src_modified": modified},
        "pairs": pairs,
        "summary": summary,
        "failures": compare_failures(pairs),
    }
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for name, s in summary.items():
        ratio = s["ratio_quartiles"]
        print(f"{name}: base {s['base_quartiles'][1]:.6g} change "
              f"{s['change_quartiles'][1]:.6g} wins {s['wins']}/{s['pairs']} "
              f"gap>IQR {s['gap_exceeds_base_iqr']} median ratio "
              f"{ratio[1] if ratio else float('nan'):.4g} verdict {s['verdict']}")
    failures = report["failures"]
    print("failed ops: " + ", ".join(
        f"{side} {failures[side]['failed']}/{failures[side]['attempted']}"
        for side in SIDES) + f" more_failures {failures['more_failures']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
