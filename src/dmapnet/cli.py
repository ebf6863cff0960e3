"""Command-line driver.

Subcommands: gen-data, build-dmn, train, eval, gradcheck, bench,
prop1-check.  Logs go to stderr; artifacts are written to files atomically.
Exit codes: 0 success, 1 input or configuration problem, 2 numeric failure.

Flag values resolve in order: explicit flag, then the JSON object given via
--config, then the built-in default.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import run_bench
from .builder import AnchorSet, build_dmn, reconstruction_errors
from .checks import gradient_check
from .data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .dkn import (DknArchitecture, default_architecture, default_input_kernels,
                  load_architecture)
from .errors import ConfigError, InputError, NumericError
from .fileio import atomic_write_text
from .kernels import KernelSpec
from .metrics import evaluate
from .model import ClassifierHead, load_model, save_model, score_batch
from .training import (TrainConfig, cross_validate_C, format_history,
                       train_with_guard)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# name -> (converter, default, help).  Required options use _REQUIRED.
_REQUIRED = object()

_TABLES = {
    "gen-data": {
        "out": (str, _REQUIRED, "dataset file to write"),
        "n": (int, 300, "number of samples"),
        "d": (int, 10, "feature dimension"),
        "k": (int, 5, "number of classes"),
        "clusters": (int, 1, "clusters per class"),
        "noise": (float, 0.0, "label flip rate in [0, 0.5)"),
        "seed": (int, 0, "generator seed"),
    },
    "build-dmn": {
        "data": (str, _REQUIRED, "dataset file supplying anchor samples"),
        "out": (str, _REQUIRED, "model file to write"),
        "anchors": (int, 100, "number of anchor samples (taken from the front)"),
        "arch": (str, None, "architecture JSON (default: built-in 3-layer)"),
        "hidden-width": (int, None, "hidden width (default: twice the inputs)"),
        "clip-ratio": (float, 1e-10, "relative eigenvalue clip threshold"),
        "gamma": (float, 1.0, "rbf bandwidth of the default kernels"),
        "degree": (int, 2, "polynomial degree of the default kernels"),
        "offset": (float, 1.0, "polynomial offset of the default kernels"),
        "seed": (int, 0, "seed for randomized mixing weights"),
    },
    "train": {
        "model": (str, _REQUIRED, "model file to start from"),
        "data": (str, _REQUIRED, "training dataset"),
        "out": (str, _REQUIRED, "trained model file to write"),
        "log": (str, None, "objective log file (tab-separated)"),
        "eta": (float, 1e-6, "first learning rate; halved until the "
                             "objective log is non-increasing"),
        "max-iters": (int, 500, "iteration cap"),
        "tol": (float, 1e-6, "relative objective change treated as converged"),
        "c": (float, None, "single trade-off for every class (skips CV)"),
        "cv-folds": (int, 3, "cross-validation folds for the trade-offs"),
        "cv-grid": (str, "0.01,0.1,1,10", "comma-separated trade-off grid"),
        "seed": (int, 0, "seed for classifier initialization"),
    },
    "eval": {
        "model": (str, _REQUIRED, "trained model file"),
        "data": (str, _REQUIRED, "evaluation dataset"),
        "out": (str, _REQUIRED, "JSON report file to write"),
    },
    "gradcheck": {
        "seed": (int, 0, "seed for the toy model and data"),
        "step": (float, 1e-5, "central difference step"),
        "tol": (float, 1e-4, "relative agreement required per coordinate"),
        "out": (str, None, "write the comparison table here instead of stdout"),
    },
    "bench": {
        "out": (str, _REQUIRED, "report path prefix (.tsv and .json appended)"),
        "sizes": (str, "500,1000,2000,5000", "comma-separated support sizes"),
        "reps": (int, 5, "timed repetitions per row"),
        "anchors": (int, 1000, "anchor count for the map model"),
        "d": (int, 10, "feature dimension of the drawn samples"),
        "classes": (int, 5, "classifier width"),
        "seed": (int, 0, "seed for all drawn samples"),
        "clip-ratio": (float, 1e-10, "relative eigenvalue clip threshold"),
    },
    "prop1-check": {
        "anchors": (int, 100, "anchor count"),
        "d": (int, 10, "feature dimension"),
        "scale": (float, 0.05, "anchor feature scale; keeps layer grams "
                               "positive semidefinite"),
        "seed": (int, 0, "seed for anchors and mixing weights"),
        "clip-ratio": (float, 1e-10, "relative eigenvalue clip threshold"),
        "tol": (float, 1e-6, "largest acceptable per-unit relative error"),
    },
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="dmapnet",
                     description="deep kernel map networks: build, train, "
                                 "evaluate and benchmark")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command, table in _TABLES.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None,
                       help="JSON file with option overrides")
        for name, (conv, default, help_text) in table.items():
            suffix = "" if default in (None, _REQUIRED) else f" (default {default})"
            p.add_argument(f"--{name}", type=conv, default=None,
                           help=help_text + suffix)
    return parser


def _resolve(args, command: str) -> dict:
    table = _TABLES[command]
    config = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as err:
            raise InputError(f"cannot read config: {err}") from err
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ConfigError(f"config is not valid JSON: {err}") from err
        if not isinstance(config, dict):
            raise ConfigError("config must hold a JSON object")
        unknown = set(config) - set(table)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for name, (conv, default, _) in table.items():
        value = getattr(args, name.replace("-", "_"))
        if value is None and name in config:
            try:
                value = conv(config[name])
            except (TypeError, ValueError) as err:
                raise ConfigError(f"config key {name!r}: {err}") from err
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing required option --{name}")
            value = default
        out[name.replace("-", "_")] = value
    return out


def _parse_float_list(text: str, what: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"bad {what} list {text!r}: {err}") from err
    if not values:
        raise ConfigError(f"{what} list is empty")
    return values


def _parse_int_list(text: str, what: str) -> list:
    values = _parse_float_list(text, what)
    if not all(v.is_integer() for v in values):
        raise ConfigError(f"{what} list {text!r} must hold integers")
    return [int(v) for v in values]


def _cmd_gen_data(opts) -> int:
    spec = SyntheticSpec(num_samples=opts["n"], num_features=opts["d"],
                         num_classes=opts["k"], clusters=opts["clusters"],
                         noise=opts["noise"], seed=opts["seed"])
    data = generate_synthetic(spec)
    save_dataset(data, opts["out"])
    _log(f"wrote {data.num_samples} samples ({data.num_features} features, "
         f"{data.num_classes} classes) to {opts['out']}")
    return 0


def _default_arch_for(opts) -> DknArchitecture:
    kernels = default_input_kernels(gamma=opts["gamma"], degree=opts["degree"],
                                    offset=opts["offset"])
    return default_architecture(kernels, hidden_width=opts["hidden_width"],
                                seed=opts["seed"])


def _cmd_build_dmn(opts) -> int:
    data = load_dataset(opts["data"])
    n_anchors = opts["anchors"]
    if n_anchors > data.num_samples:
        raise InputError(
            f"requested {n_anchors} anchors but the dataset holds "
            f"{data.num_samples} samples"
        )
    anchors = AnchorSet(samples=data.features[:n_anchors],
                        ids=data.ids[:n_anchors])
    if opts["arch"] is not None:
        arch = load_architecture(opts["arch"], seed=opts["seed"])
    else:
        arch = _default_arch_for(opts)
    model = build_dmn(arch, anchors, clip_ratio=opts["clip_ratio"], log=_log)
    save_model(model, None, opts["out"])
    _log(f"wrote model ({model.anchor_count} anchors, "
         f"{model.arch.num_layers} layers) to {opts['out']}")
    return 0


def _cmd_train(opts) -> int:
    model, head = load_model(opts["model"])
    data = load_dataset(opts["data"])
    if opts["c"] is not None:
        c_policy = np.full(data.num_classes, float(opts["c"]))
        _log(f"using fixed trade-off {opts['c']:g} for all classes")
    else:
        grid = _parse_float_list(opts["cv_grid"], "cv-grid")
        c_policy = cross_validate_C(data, model, folds=opts["cv_folds"],
                                    grid=grid)
        _log("cross-validated trade-offs: "
             + ", ".join(f"{c:g}" for c in c_policy))
    if head is None:
        head = ClassifierHead.random(data.num_classes, model.final_width,
                                     trade_off=c_policy, seed=opts["seed"])
    else:
        head.trade_offs = np.asarray(c_policy, dtype=np.float64)
    cfg = TrainConfig(learning_rate=opts["eta"], max_iters=opts["max_iters"],
                      c_policy=c_policy, convergence_tol=opts["tol"],
                      seed=opts["seed"])
    trained, trained_head, history, eta = train_with_guard(model, head, data,
                                                           cfg)
    _log(f"accepted learning rate {eta:g}")
    save_model(trained, trained_head, opts["out"])
    if opts["log"]:
        atomic_write_text(opts["log"], format_history(history))
    first, last = history[0], history[-1]
    _log(f"trained {len(history)} iterations: objective "
         f"{first.objective:.6g} -> {last.objective:.6g}; wrote {opts['out']}")
    return 0


def _cmd_eval(opts) -> int:
    model, head = load_model(opts["model"])
    if head is None:
        raise InputError("model file has no classifier head; train it first")
    data = load_dataset(opts["data"])
    scores = score_batch(model, head, data.features)
    report = evaluate(scores, data.labels)
    atomic_write_text(opts["out"], json.dumps(report.to_dict(), indent=2) + "\n")
    _log(f"MF-samples {report.mf_samples:.4f}  MF-concepts "
         f"{report.mf_concepts:.4f}  mAP {report.mean_ap:.4f}; "
         f"wrote {opts['out']}")
    return 0


def _gradcheck_fixture(seed: int):
    """A small model and dataset exercising every activation kind."""
    from .data import LabeledDataset
    from .dkn import LayerSpec, random_mixing_weights

    rng = np.random.default_rng(seed)
    n, d, K, n_anchor = 8, 3, 2, 5
    X = rng.normal(0.0, 1.0, size=(n, d))
    Y = np.where(rng.random((n, K)) < 0.5, 1.0, -1.0)
    Y[0, :] = 1.0
    Y[1, :] = -1.0
    data = LabeledDataset(features=X, labels=Y)
    anchors = AnchorSet(samples=rng.normal(0.0, 1.0, size=(n_anchor, d)))
    kernels = [KernelSpec("linear"), KernelSpec("rbf", gamma=0.7)]
    arch = DknArchitecture(
        input_kernels=kernels,
        layers=[
            LayerSpec(width=3, activation="tanh",
                      weights=random_mixing_weights(3, 2, rng)),
            LayerSpec(width=1, activation="exp",
                      weights=random_mixing_weights(1, 3, rng)),
        ],
    )
    model = build_dmn(arch, anchors)
    head = ClassifierHead.random(K, model.final_width, trade_off=1.0,
                                 seed=seed, scale=0.5)
    return model, head, data


def _cmd_gradcheck(opts) -> int:
    model, head, data = _gradcheck_fixture(opts["seed"])
    passed, rows = gradient_check(model, head, data, step=opts["step"],
                                  tol=opts["tol"])
    lines = ["coordinate\tanalytic\tnumeric\tabs_diff\tstatus"]
    for r in rows:
        status = "ok" if r.passed else "FAIL"
        lines.append(f"{r.name}\t{r.analytic:.10e}\t{r.numeric:.10e}\t"
                     f"{r.abs_diff:.3e}\t{status}")
    table = "\n".join(lines) + "\n"
    if opts["out"]:
        atomic_write_text(opts["out"], table)
    else:
        sys.stdout.write(table)
    bad = sum(1 for r in rows if not r.passed)
    _log(f"checked {len(rows)} coordinates, {bad} failures")
    if not passed:
        raise NumericError(f"{bad} gradient coordinates disagree")
    return 0


def _cmd_bench(opts) -> int:
    sizes = _parse_int_list(opts["sizes"], "sizes")
    rng = np.random.default_rng(opts["seed"])
    anchors = AnchorSet(samples=rng.random((opts["anchors"], opts["d"])))
    kernels = default_input_kernels()
    arch = default_architecture(kernels, seed=opts["seed"])
    report = run_bench(arch, anchors, sizes=sizes, reps=opts["reps"],
                       num_classes=opts["classes"], seed=opts["seed"],
                       clip_ratio=opts["clip_ratio"])
    atomic_write_text(opts["out"] + ".tsv", report.to_tsv())
    atomic_write_text(opts["out"] + ".json", report.to_json())
    _log(report.to_tsv().rstrip("\n"))
    _log(f"wrote {opts['out']}.tsv and {opts['out']}.json")
    return 0


def _cmd_prop1_check(opts) -> int:
    if not opts["scale"] > 0:
        raise ConfigError("scale must be positive")
    rng = np.random.default_rng(opts["seed"])
    anchors = AnchorSet(
        samples=rng.uniform(0.0, opts["scale"], (opts["anchors"], opts["d"])))
    kernels = default_input_kernels()
    arch = default_architecture(kernels, seed=opts["seed"])
    model = build_dmn(arch, anchors, clip_ratio=opts["clip_ratio"])
    errors = reconstruction_errors(model)
    worst = 0.0
    for l, layer_errors in enumerate(errors):
        for p, err in enumerate(layer_errors):
            sys.stdout.write(f"layer {l + 1}\tunit {p + 1}\t{err:.3e}\n")
            worst = max(worst, err)
    _log(f"largest per-unit relative reconstruction error: {worst:.3e}")
    if worst > opts["tol"]:
        raise NumericError(
            f"reconstruction error {worst:.3e} exceeds tolerance "
            f"{opts['tol']:.3e}"
        )
    return 0


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "build-dmn": _cmd_build_dmn,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "bench": _cmd_bench,
    "prop1-check": _cmd_prop1_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        _log(parser.format_usage().rstrip("\n"))
        _log(f"error: {err}")
        return 1
    if args.command is None:
        _log(parser.format_usage().rstrip("\n"))
        _log("error: a subcommand is required")
        return 1
    try:
        opts = _resolve(args, args.command)
        return _HANDLERS[args.command](opts)
    except InputError as err:
        _log(f"error: {err}")
        return 1
    except NumericError as err:
        _log(f"numeric error: {err}")
        return 2
    except OSError as err:
        _log(f"error: {err}")
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
