"""Labeled multi-label datasets: container, text format and synthetic source.

The on-disk format is tab-separated text.  Line one holds the feature
dimension, class count and sample count; each following line holds a sample
id, the features, then one label in {-1, +1} per class.  Floats are written
with 17 significant digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, GenerationError, InputError
from .fileio import atomic_write_text
from .kernels import _floats, _is_whole, _seed


@dataclass
class LabeledDataset:
    """Features with one {-1,+1} label per class per sample.

    Every class must appear with at least one positive and one negative
    sample, otherwise a hinge solve for that class is meaningless.
    """

    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n, K), entries exactly -1.0 or +1.0
    ids: tuple = ()

    def __post_init__(self):
        self.features = _floats(self.features, "features", InputError)
        self.labels = _floats(self.labels, "labels", InputError)
        if self.features.ndim != 2:
            raise InputError("features must form a 2-D array")
        if self.labels.ndim != 2 or self.labels.shape[0] != self.features.shape[0]:
            raise InputError("labels must be (samples x classes)")
        if not np.isin(self.labels, (-1.0, 1.0)).all():
            raise InputError("labels must be exactly -1 or +1")
        if not self.ids:
            self.ids = tuple(f"s{i:04d}" for i in range(self.features.shape[0]))
        self.ids = tuple(str(i) for i in self.ids)
        if len(self.ids) != self.features.shape[0]:
            raise InputError("ids must match the sample count")
        if len(set(self.ids)) != len(self.ids):
            raise InputError("sample ids must be unique")
        pos = (self.labels > 0).sum(axis=0)
        neg = (self.labels < 0).sum(axis=0)
        for k in range(self.labels.shape[1]):
            if pos[k] == 0 or neg[k] == 0:
                raise InputError(
                    f"class {k} needs at least one positive and one negative sample"
                )

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic multi-label source."""

    num_samples: int
    num_features: int
    num_classes: int
    clusters: int = 1
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, least in (("num_samples", 2), ("num_features", 1),
                            ("num_classes", 1), ("clusters", 1)):
            value = getattr(self, name)
            if not _is_whole(value) or value < least:
                raise InputError(f"{name} must be an integer >= {least}, "
                                 f"got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (isinstance(self.noise, numbers.Real) and 0.0 <= self.noise < 0.5):
            raise InputError("label noise rate must lie in [0, 0.5)")
        object.__setattr__(self, "seed", _seed(self.seed, InputError))


# Internal scale of the synthetic source.  Centers live well inside the
# positive orthant and feature values stay order one, so every base kernel
# (histogram intersection included) accepts the output and tanh layers do
# not saturate.
_CENTER_LOW = 0.1
_CENTER_HIGH = 0.4
_JITTER = 0.08
_MAX_TRIES = 64


def generate_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Draw a feature-predictable multi-label dataset.

    Each sample is positive for a Bernoulli subset of the classes; its
    features are the sum of one cluster center per positive class plus
    Gaussian jitter, clipped at zero.  Label noise then flips each entry
    independently.  Regenerates (bounded) until every class has both a
    positive and a negative sample.
    """
    rng = np.random.default_rng(spec.seed)
    n, d, K = spec.num_samples, spec.num_features, spec.num_classes
    p_member = min(0.5, 1.5 / K)
    try:
        centers = rng.uniform(_CENTER_LOW, _CENTER_HIGH, size=(K, spec.clusters, d))
        for _ in range(_MAX_TRIES):
            member = rng.random(size=(n, K)) < p_member
            cluster_pick = rng.integers(0, spec.clusters, size=(n, K))
            X = rng.normal(0.0, _JITTER, size=(n, d))
            for k in range(K):
                rows = np.nonzero(member[:, k])[0]
                if rows.size:
                    X[rows] += centers[k, cluster_pick[rows, k]]
            X = np.maximum(X, 0.0)
            Y = np.where(member, 1.0, -1.0)
            if spec.noise > 0.0:
                flips = rng.random(size=(n, K)) < spec.noise
                Y = np.where(flips, -Y, Y)
            pos = (Y > 0).any(axis=0)
            neg = (Y < 0).any(axis=0)
            if pos.all() and neg.all():
                return LabeledDataset(features=X, labels=Y)
    except (MemoryError, ValueError) as err:
        # numpy refuses arrays past the address space before allocating them
        raise GenerationError(
            f"cannot draw {n} samples of {d} features and {K} classes "
            f"({spec.clusters} clusters each): {err}") from err
    raise GenerationError(
        f"could not draw a dataset with every class mixed after {_MAX_TRIES} tries"
    )


# a label is exactly -1.0 or +1.0 and is written as an integer
_LABEL_TEXT = {-1.0: "-1", 1.0: "1"}


def save_dataset(data: LabeledDataset, path) -> None:
    row = "\t".join(["%s"] + ["%.17g"] * data.num_features + ["%s"] * data.num_classes)
    lines = [f"{data.num_features}\t{data.num_classes}\t{data.num_samples}"]
    for ident, feats, labs in zip(data.ids, data.features.tolist(),
                                  data.labels.tolist()):
        lines.append(row % (ident, *feats, *[_LABEL_TEXT[v] for v in labs]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_label(token: str, line_no: int) -> float:
    if token in ("1", "+1"):
        return 1.0
    if token == "-1":
        return -1.0
    raise FormatError(f"line {line_no}: label {token!r} is not -1 or +1")


def load_dataset(path) -> LabeledDataset:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as err:
        raise FormatError(f"dataset file is not UTF-8 text: {err}") from err
    if not lines:
        raise FormatError("dataset file is empty")
    head = lines[0].split("\t")
    if len(head) != 3:
        raise FormatError("line 1: header must hold dimension, classes, samples")
    try:
        d, K, n = (int(tok) for tok in head)
    except ValueError as err:
        raise FormatError(f"line 1: non-integer header field ({err})") from err
    if d < 1 or K < 1 or n < 1:
        raise FormatError("line 1: header fields must be positive")
    # blank lines are skipped, and every message names the row's file line
    rows = [(no, line) for no, line in enumerate(lines[1:], start=2) if line != ""]
    if len(rows) != n:
        raise FormatError(
            f"header promises {n} samples but the file holds {len(rows)}"
        )
    fields = []
    for line_no, line in rows:
        toks = line.split("\t")
        if len(toks) != 1 + d + K:
            raise FormatError(
                f"line {line_no}: expected {1 + d + K} fields, got {len(toks)}"
            )
        fields.append((line_no, toks))
    # every row holds its fields, so the arrays are no larger than the text
    ids = []
    features = np.empty((n, d))
    labels = np.empty((n, K))
    for i, (line_no, toks) in enumerate(fields):
        ids.append(toks[0])
        try:
            features[i] = [float(tok) for tok in toks[1:1 + d]]
        except ValueError as err:
            raise FormatError(f"line {line_no}: bad feature value ({err})") from err
        labels[i] = [_parse_label(tok, line_no) for tok in toks[1 + d:]]
    try:
        return LabeledDataset(features=features, labels=labels, ids=tuple(ids))
    except InputError as err:
        raise FormatError(str(err)) from err
