"""Run one workload of the dmapnet benchmark and print its metrics.

    python3 perfbench/run.py --workload build-1000 --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
metric names, units and bounds live in ``BENCHMARK.json`` at the root, and
``workloads.py`` says what each workload does and why.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs wrappers
at the library's module boundaries on every other op and prints the
per-layer metrics instead.  Human-readable lines (provenance, sample counts,
check values, failures) come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, with the spans of a traced run, is written to
``perfbench/out/``.  Exits 2 without a result when ``src/dmapnet`` or
``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from provenance import collect, limit_blas_threads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "dmapnet" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: need {src / 'dmapnet'} and {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    if args.workload not in workload_names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {workload_names}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    blas_threads = limit_blas_threads()
    sys.path.insert(0, str(src))
    import workloads  # imports numpy and dmapnet, after the thread cap

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    traced = bool(args.trace)
    run = workloads.Run(args.seed, args.seconds, str(out_dir), traced)
    workloads.WORKLOADS[args.workload](run)

    e2e = workloads.end_to_end(run, False)
    if traced:
        values = workloads.per_layer(run, args.workload)
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": run.failed == 0 and run.attempted > 0,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}

    provenance = collect(ROOT, args.seed, blas_threads)
    full = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "provenance": provenance, "result": result, "counts": run.counts,
            "op_samples": e2e["op_samples"], "errors": run.errors,
            "samples": {("traced" if k else "untraced"): v
                        for k, v in run.samples.items()}}
    if traced:
        full["absent_boundaries"] = sorted(run.tracer.absent)
        full["spans"] = run.tracer.tree().to_json()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(full) + "\n")

    print("# provenance " + json.dumps(provenance, sort_keys=True))
    print(f"# workload {args.workload}: attempted {run.attempted}, failed "
          f"{run.failed}, fail_rate {run.failed / max(1, run.attempted):g}, "
          f"op samples {e2e['op_samples']}")
    for key, value in sorted(run.counts.items()):
        print(f"# {key} {value}")
    for message in run.errors:
        print(f"# error: {message}")
    for key, m in metrics.items():
        print(f"{key} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
