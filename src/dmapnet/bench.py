"""Inference cost comparison: implicit kernel network versus explicit maps.

The implicit network scores a sample through the dual form, one pair kernel
evaluation per support vector, so its per-sample cost grows with the
support (training) set.  The explicit-map model only ever touches its fixed
anchors.  Times here cover full classification of single samples, first-layer
kernel evaluation included on the map side.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .builder import AnchorSet, DEFAULT_CLIP_RATIO, build_dmn
from .dkn import DknArchitecture, dkn_classify
from .errors import ConfigError, drawing
from .kernels import _is_whole, _seed
from .model import ClassifierHead, classify


@dataclass
class BenchRow:
    framework: str  # "dkn" or "dmn"
    support_size: int
    mean_seconds: float
    std_seconds: float
    median_seconds: float
    repetitions: int


@dataclass
class BenchReport:
    rows: list
    anchor_count: int
    num_classes: int
    notes: str = ("dmn timings include first-layer kernel evaluation against "
                  "the anchors")

    def __post_init__(self):
        for row in self.rows:
            if row.repetitions < 5:
                raise ConfigError("benchmark rows need at least 5 repetitions")
            if not row.mean_seconds > 0:
                raise ConfigError("benchmark times must be positive")

    def to_tsv(self) -> str:
        lines = [f"# anchors={self.anchor_count} classes={self.num_classes}",
                 f"# {self.notes}",
                 "framework\tsupport_size\tmean_s\tstd_s\tmedian_s\treps"]
        for r in self.rows:
            lines.append(
                f"{r.framework}\t{r.support_size}\t{r.mean_seconds:.9f}\t"
                f"{r.std_seconds:.9f}\t{r.median_seconds:.9f}\t{r.repetitions}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        obj = {"anchor_count": self.anchor_count,
               "num_classes": self.num_classes, "notes": self.notes,
               "rows": [asdict(r) for r in self.rows]}
        return json.dumps(obj, indent=2) + "\n"

    def mean_of(self, framework: str, size: int) -> float:
        for r in self.rows:
            if r.framework == framework and r.support_size == size:
                return r.mean_seconds
        raise KeyError((framework, size))


def _row(framework, size, classify_one, warm_up, queries) -> BenchRow:
    """Time ``classify_one`` on each query after one unmeasured call on
    ``warm_up``."""
    classify_one(warm_up)
    times = []
    for query in queries:
        t0 = time.perf_counter()
        classify_one(query)
        times.append(time.perf_counter() - t0)
    times = np.asarray(times, dtype=np.float64)
    return BenchRow(
        framework=framework,
        support_size=int(size),
        mean_seconds=float(np.mean(times)),
        std_seconds=float(np.std(times)),
        median_seconds=float(np.median(times)),
        repetitions=times.size,
    )


def run_bench(arch: DknArchitecture, anchors: AnchorSet, sizes=(500, 1000, 2000, 5000),
              reps: int = 5, num_classes: int = 5, seed: int = 0,
              clip_ratio: float = DEFAULT_CLIP_RATIO) -> BenchReport:
    """Time per-sample classification for both frameworks at several support sizes.

    Query and support samples are drawn uniformly inside the anchor bounding
    box, so any kernel accepting the anchors accepts them too.  Each (size,
    framework) pair gets one warm-up call that is not measured.
    """
    sizes = list(sizes)
    if not sizes or not all(_is_whole(s) and s >= 1 for s in sizes):
        raise ConfigError("support sizes must be integers >= 1")
    sizes = [int(s) for s in sizes]
    if not _is_whole(reps) or reps < 5:
        raise ConfigError("at least 5 repetitions are required")
    if not _is_whole(num_classes) or num_classes < 1:
        raise ConfigError("at least one class is required")
    reps, num_classes = int(reps), int(num_classes)
    rng = np.random.default_rng(_seed(seed, ConfigError))
    d = anchors.samples.shape[1]
    low = anchors.samples.min(axis=0)
    high = anchors.samples.max(axis=0)
    span = np.where(high > low, high - low, 1.0)

    def draw(count):
        return low + span * rng.random((count, d))

    model = build_dmn(arch, anchors, clip_ratio=clip_ratio)
    with drawing(f"a head of {num_classes} classes"):
        head = ClassifierHead.random(num_classes, model.final_width,
                                     trade_off=1.0, seed=seed)
    with drawing(f"{reps} queries, one per repetition"):
        queries = draw(reps)
    rows = []
    for size in sizes:
        with drawing(f"{size} supports for {num_classes} classes"):
            support = draw(size)
            dual = rng.standard_normal((num_classes, size))
        classify_one = partial(dkn_classify, arch, support, dual,
                               np.zeros(num_classes))
        rows.append(_row("dkn", size, classify_one, draw(1)[0], queries))
    for size in sizes:
        rows.append(_row("dmn", size, partial(classify, model, head),
                         draw(1)[0], queries))
    return BenchReport(rows=rows, anchor_count=anchors.count,
                       num_classes=num_classes)
