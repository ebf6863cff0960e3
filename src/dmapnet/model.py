"""Explicit deep map models: per-unit anchors and projections, inference,
classifier heads, and a versioned binary container for trained models.

A model holds one unit per network kernel unit, and the network
architecture, which alone records each layer's activation and the input
layer's base kernels.  An input unit's map for a sample is the
kernel-value vector against the anchor samples times the unit's
projection.  Every unit below the last layer also carries an anchor
matrix, one row per anchor sample in its own map space.  A unit of a later
layer maps a sample through its pre-activation
``sum_q w[q] * (phi_q @ M_q.T)``, the mixing-weighted inner products of
each lower unit's map ``phi_q`` with that unit's anchors ``M_q``,
activated with its layer's activation and times its projection.
Inference therefore never touches any training set, only the fixed anchor
matrices.  One walk maps samples up from layer 1, whose activations are
the kernel rows.  A batch goes through it in the row blocks of
``kernels.walk_blocks``, so beyond its result a call holds one block's
kernel rows, activations and maps: ``forward_batch`` keeps every map of
the batch, ``score_batch`` only the scores and ``final_maps`` only the
last unit's maps, and training keeps a block's activations too, for
backprop.  The ``ClipReport`` each unit stores is defined here beside it;
one rule (``_check_model``) checks a model, its units and its head when
it is built, saved or loaded, so a model that saves is a model that loads.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass

import numpy as np

from .dkn import DknArchitecture, LayerSpec, activate, check_finite, combine
from .errors import ConfigError, FormatError, InputError, VersionError, drawing
from .fileio import atomic_write_bytes
from .kernels import (KernelSpec, _as_samples, _floats, _is_whole, _seed,
                      gram_matrix, walk_blocks)

MODEL_MAGIC = b"DMAPMDL\x00"
MODEL_VERSION = 3


@dataclass(frozen=True)
class ClipReport:
    """How much spectrum an eigendecomposition kept and dropped."""

    retained: int
    discarded: int
    discarded_max_abs: float
    discarded_abs_sum: float

    def __post_init__(self):
        # two counts and two numbers, as a model file records them
        _count(self.retained, "clip_report retained", ConfigError)
        _count(self.discarded, "clip_report discarded", ConfigError)
        sums = (self.discarded_max_abs, self.discarded_abs_sum)
        if not all(isinstance(v, (int, float)) for v in sums):
            raise ConfigError(f"clip_report sums must be numbers, got {sums!r}")


@dataclass
class DmnUnit:
    """One map unit: its anchors, projection and clip report.

    The projection is ``(anchor_count, width)``.  Below the last layer
    ``anchors`` is the unit's anchor map, also ``(anchor_count, width)``:
    built as the unit's map of the anchor samples, it holds the rows every
    unit of the layer above takes inner products with, and it is a free
    parameter during training.  The last layer's one unit feeds only the
    head and holds ``(anchor_count, 0)`` anchors.  The activation and, for
    input units, the base kernel belong to the unit's layer and are read
    from the model's architecture.  A unit checks nothing itself; the rule
    of a model that holds it does (``_check_model``).
    """

    anchors: np.ndarray
    projection: np.ndarray
    clip_report: ClipReport

    @property
    def width(self) -> int:
        # np.shape, so a projection replaced by a list still has a width
        return np.shape(self.projection)[1]


def anchor_id_tuple(ids, count: int) -> tuple:
    """``ids`` as a tuple, or ``0 .. count - 1`` when it is empty.

    Anchor ids are what a model file can record: a list or tuple of unique
    strings or integers (not booleans), one per anchor sample.
    """
    if (not isinstance(ids, (list, tuple))
            or any(type(i) not in (str, int) for i in ids)):
        raise ConfigError("anchor_ids must be a list or tuple of strings or "
                          "integers")
    ids = tuple(ids) or tuple(range(count))
    if len(ids) != count:
        raise ConfigError(f"anchor_ids must match the anchor sample count "
                          f"({count}), got {len(ids)}")
    if len(set(ids)) != count:
        raise ConfigError("anchor_ids must be unique")
    return ids


@dataclass
class DmnModel:
    """A stack of unit layers plus the anchor samples they were built on.

    ``layers`` holds the units of each network layer, bottom-up from the
    input-kernel units.  The architecture is the one record of every
    layer's width and activation and of the input units' base kernels.  The
    model owns a private copy of it; training updates the mixing weights
    inside that copy without touching the caller's architecture.
    """

    layers: list
    arch: DknArchitecture
    anchor_samples: np.ndarray
    anchor_ids: tuple = ()

    def __post_init__(self):
        _check_model(self)

    @property
    def anchor_count(self) -> int:
        return self.anchor_samples.shape[0]

    @property
    def final_width(self) -> int:
        return self.layers[-1][0].width


def _check_model(model: DmnModel, head: ClassifierHead | None = None) -> None:
    """The one rule for a valid model and head, applied by ``DmnModel``
    and ``save_model`` and reached by ``load_model`` through the
    constructors.  Raises ConfigError unless the anchor samples are finite
    and 2-D, each part passes its own rule again (the anchor ids, the
    architecture and its layers, each clip report, a head's and
    ``check_head_width``), and each unit, named by layer and unit, is finite
    and fits the architecture: one row per anchor sample, anchor maps as
    wide as the projection below the last layer and none in it, and a clip
    report that keeps the unit's width of its gram's eigenvalues and drops
    the rest.  Each array is kept as the check converted it."""
    model.anchor_samples = _floats(model.anchor_samples, "anchor samples",
                                   ConfigError)
    if model.anchor_samples.ndim != 2:
        raise ConfigError("anchor samples must be 2-D")
    model.anchor_ids = anchor_id_tuple(model.anchor_ids, model.anchor_count)
    model.arch.__post_init__()
    widths, n = model.arch.widths, model.anchor_count
    if len(model.layers) != len(widths):
        raise ConfigError("unit layers must match the architecture depth")
    for l, units in enumerate(model.layers):
        if len(units) != widths[l]:
            raise ConfigError(
                f"layer {l + 1} has {len(units)} units, expected {widths[l]}"
            )
        for p, unit in enumerate(units):
            where = f"layer {l + 1}, unit {p + 1}"
            unit.anchors, unit.projection = anchors, projection = [
                _floats(getattr(unit, name), f"{where}: {name}", ConfigError)
                for name in ("anchors", "projection")]
            if anchors.ndim != 2 or projection.ndim != 2:
                raise ConfigError(f"{where}: anchors and projection must be 2-D")
            if anchors.shape[0] != n or projection.shape[0] != n:
                raise ConfigError(
                    f"{where}: anchors and projection "
                    f"must have one row per anchor sample ({n})"
                )
            width = projection.shape[1]
            expected = 0 if l == len(widths) - 1 else width
            if anchors.shape[1] != expected:
                raise ConfigError(
                    f"{where}: anchors have "
                    f"{anchors.shape[1]} columns, expected {expected}"
                )
            unit.clip_report.__post_init__()
            kept, drop = unit.clip_report.retained, unit.clip_report.discarded
            if kept != width or kept + drop != n:
                raise ConfigError(f"{where}: clip report keeps "
                                  f"{kept} of {n} eigenvalues, drops {drop}; "
                                  f"width {width}")
    if head is not None:
        head.__post_init__()
        check_head_width(model, head)


def as_per_class_c(c_policy, num_classes: int) -> np.ndarray:
    """The one trade-off rule: ``c_policy`` as one positive, finite value
    per class.  A scalar is broadcast over the classes; a float64 array of
    the right shape comes back as it is, uncopied."""
    try:
        c = np.asarray(c_policy, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"trade-offs must be numbers: {err}") from err
    if c.ndim == 0:
        c = np.full(num_classes, c)
    if c.shape != (num_classes,):
        raise ConfigError(f"need one trade-off per class ({num_classes}), "
                          f"got shape {c.shape}")
    if not np.isfinite(c).all() or not (c > 0).all():
        raise ConfigError("trade-offs must be positive and finite")
    return c


@dataclass
class ClassifierHead:
    """Per-class linear weights over the final map plus hinge trade-offs."""

    normals: np.ndarray  # (classes, final_width)
    trade_offs: np.ndarray  # (classes,), as as_per_class_c gives them

    def __post_init__(self):
        self.normals = _floats(self.normals, "head normals", ConfigError)
        if self.normals.ndim != 2:
            raise ConfigError("head normals must be 2-D (classes x map width)")
        self.trade_offs = as_per_class_c(self.trade_offs, self.normals.shape[0])

    @property
    def num_classes(self) -> int:
        return self.normals.shape[0]

    @classmethod
    def random(cls, num_classes: int, width: int, trade_off=1.0, seed: int = 0,
               scale: float = 0.01) -> "ClassifierHead":
        """Normals drawn from ``N(0, scale**2)``; ``trade_off`` is one value
        for every class or one per class."""
        for name, count in (("num_classes", num_classes), ("width", width)):
            if not _is_whole(count) or count < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {count!r}")
        if not isinstance(scale, numbers.Real):
            raise ConfigError(f"scale must be a number, got {scale!r}")
        rng = np.random.default_rng(_seed(seed, ConfigError))
        with drawing(f"a {num_classes} x {width} head"):
            normals = rng.standard_normal((int(num_classes), int(width)))
        return cls(scale * normals, trade_off)


def input_kernel_rows(model: DmnModel, X) -> list:
    """Kernel values of each sample against the anchor samples, one matrix
    per input unit.  These depend only on the anchor samples and the base
    kernels, so training loops compute them once and reuse them."""
    X = _as_samples(X, "X")
    if X.shape[1] != model.anchor_samples.shape[1]:
        raise InputError(
            f"sample dimension {X.shape[1]} does not match anchors "
            f"({model.anchor_samples.shape[1]})"
        )
    return [gram_matrix(spec, X, model.anchor_samples).values
            for spec in model.arch.input_kernels]


def walk(model: DmnModel, kernel_rows):
    """Map samples up through every unit from their kernel rows, one matrix
    per input unit, yielding ``(index, activation, map)`` unit by unit,
    bottom-up, where ``index`` is the unit's layer's place in
    ``model.layers``.

    A unit's activation is its activated pre-activation (samples x
    anchors; layer 1's are the kernel rows) and its map is the activation
    times the unit's projection.  The walk keeps no activation it has
    yielded, and it keeps a layer's maps only until the layer above has
    combined them, so a caller that drops what it does not need holds
    nothing more: at most one layer's activations, one lower unit's
    product with its anchors and one weighted copy of it, all as many rows
    as ``kernel_rows``, which ``forward_batch``, ``final_maps``,
    ``score_batch`` and training keep to one row block of ``walk_blocks``.
    Overflow is computed silently, but never while the walk is suspended;
    a non-finite map raises NumericRangeError naming its layer and unit,
    as does ``activate`` for a non-finite sum.
    """
    hs = list(kernel_rows)
    del kernel_rows  # hs alone holds the rows here, each until it is yielded
    for i, units in enumerate(model.layers):
        if i:
            spec = model.arch.layers[i - 1]
            with np.errstate(over="ignore", invalid="ignore"):
                # one lower product alive at a time
                hs = activate(spec, i + 1, combine(spec.weights, (
                    phi @ unit.anchors.T
                    for phi, unit in zip(maps, model.layers[i - 1]))))
        maps = []
        for p, unit in enumerate(units, start=1):
            with np.errstate(over="ignore", invalid="ignore"):
                maps.append(hs[0] @ unit.projection)
            check_finite(maps[-1], i + 1, p, "map")
            yield i, hs.pop(0), maps[-1]


def put_rows(out, rows: slice, part: np.ndarray, n: int) -> np.ndarray:
    """An ``n``-row result with ``part`` as its rows ``rows``: ``part``
    itself when it holds all ``n`` rows, else ``out`` written in place,
    allocated on the first block when ``out`` is None."""
    if part.shape[0] == n:
        return part
    if out is None:
        out = np.empty((n,) + part.shape[1:])
    out[rows] = part
    return out


def _last_map(units) -> np.ndarray:
    """The last unit's map of a walk, dropping every activation as it
    comes."""
    for _, h, phi in units:
        del h
    return phi


def _block_walks(model: DmnModel, X: np.ndarray):
    """``(rows, walk)`` for each walk block of the sample array ``X``: the
    block's slice and the walk of its kernel rows, made when the block is
    reached and held by the walk alone."""
    for rows in walk_blocks(X.shape[0], model.anchor_count):
        yield rows, walk(model, input_kernel_rows(model, X[rows]))


def forward_batch(model: DmnModel, X) -> tuple:
    """Map a batch of samples through every unit.

    Returns ``(final_maps, maps)``: the output of the last layer's one unit
    and, per layer, every unit's map (samples x unit width).  The batch
    walks in row blocks.  A batch of one block returns the walk's own
    maps; a larger one fills maps allocated before its first block, so
    each block's arrays are freed above them and can go back to the
    system.  Each activation goes as soon as its map exists, so beyond the
    maps the call holds one block's walk.
    """
    X = _as_samples(X, "X")
    n = X.shape[0]
    slots = [(i, p) for i, units in enumerate(model.layers)
             for p in range(len(units))]
    maps = [[None] * len(units) for units in model.layers]
    if len(walk_blocks(n, model.anchor_count)) > 1:
        # allocating each map at its unit's first block left the freed
        # blocks resident between maps: serve-1000's set-up peaked 12 MB
        # higher on glibc
        for i, p in slots:
            maps[i][p] = np.empty((n, model.layers[i][p].width))
    for rows, units in _block_walks(model, X):
        slot = iter(slots)
        for _, h, phi in units:
            del h  # the activation goes now that its map exists
            i, p = next(slot)
            maps[i][p] = put_rows(maps[i][p], rows, phi, n)
    return maps[-1][0], maps


def final_maps(model: DmnModel, X) -> np.ndarray:
    """The last unit's maps of a batch, as ``forward_batch`` gives them,
    holding beyond them one block's walk and no lower layer's maps."""
    X = _as_samples(X, "X")
    final = None
    for rows, units in _block_walks(model, X):
        final = put_rows(final, rows, _last_map(units), X.shape[0])
    return final


def check_head_width(model: DmnModel, head: ClassifierHead) -> None:
    """Raise ConfigError unless the head is as wide as the final map."""
    if head.normals.shape[1] != model.final_width:
        raise ConfigError(f"head width {head.normals.shape[1]} does not match "
                          f"the final map width {model.final_width}")


def score_batch(model: DmnModel, head: ClassifierHead, X) -> np.ndarray:
    """Scores for a batch of samples, one row per sample.

    The batch walks in row blocks and keeps each block's scores only, so
    beyond the scores a call holds one block's walk.
    """
    check_head_width(model, head)
    X = _as_samples(X, "X")
    scores = None
    for rows, units in _block_walks(model, X):
        scores = put_rows(scores, rows, _last_map(units) @ head.normals.T,
                          X.shape[0])
    return scores


def classify(model: DmnModel, head: ClassifierHead, x) -> tuple:
    """Scores and hard labels for one sample.

    Labels are +1 where the score is strictly positive, else -1.
    """
    scores = score_batch(model, head, _floats(x, "x", InputError)[None])[0]
    labels = np.where(scores > 0, 1, -1).astype(np.int64)
    return scores, labels


# --- binary container --------------------------------------------------------

def _clip_report_from_dict(obj) -> ClipReport:
    return ClipReport(obj["retained"], obj["discarded"],
                      float(obj["discarded_max_abs"]),
                      float(obj["discarded_abs_sum"]))


def _count(value, what: str, error=FormatError) -> int:
    """A header count: a non-negative JSON integer."""
    if type(value) is not int or value < 0:
        raise error(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _model_matrices(model: DmnModel, head: ClassifierHead | None) -> list:
    mats = [model.anchor_samples]
    for layer in model.arch.layers:
        mats.append(layer.weights)
    for units in model.layers:
        for unit in units:
            mats.append(unit.anchors)
            mats.append(unit.projection)
    if head is not None:
        mats.append(head.normals)
        mats.append(head.trade_offs[None, :])
    return mats


def save_model(model: DmnModel, head: ClassifierHead | None, path) -> None:
    """Write the model (and optional head) to a versioned binary container.

    Layout: magic, u32 version, u32 header length, UTF-8 JSON header, then
    every matrix as little-endian float64 in row-major order, and a trailing
    SHA-256 over all preceding bytes.  Raises ConfigError, and writes
    nothing, when the model or head breaks the rule models and heads are
    built and loaded by (``_check_model``).
    """
    _check_model(model, head)
    header = {
        "format": "dmn-model",
        "anchor_count": int(model.anchor_count),
        "feature_dim": int(model.anchor_samples.shape[1]),
        "anchor_ids": list(model.anchor_ids),
        "arch": {
            "input_kernels": [k.to_dict() for k in model.arch.input_kernels],
            "layers": [
                {"width": layer.width, "activation": layer.activation}
                for layer in model.arch.layers
            ],
        },
        "units": [
            [
                {"width": unit.width, "clip_report": asdict(unit.clip_report)}
                for unit in units
            ]
            for units in model.layers
        ],
        "head": None if head is None else {"classes": int(head.num_classes)},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = (MODEL_MAGIC + int(MODEL_VERSION).to_bytes(4, "little")
              + len(header_bytes).to_bytes(4, "little") + header_bytes)

    def parts():
        # each matrix goes to the checksum and the file as it is, uncopied
        digest = hashlib.sha256(prefix)
        yield prefix
        for mat in _model_matrices(model, head):
            part = np.ascontiguousarray(mat, dtype="<f8")
            digest.update(part)
            yield part
        yield digest.digest()

    atomic_write_bytes(path, parts())


class _PayloadReader:
    """Hands out consecutive matrices as views of one uint8 buffer."""

    def __init__(self, buf: np.ndarray):
        self.buf = buf
        self.offset = 0

    def take(self, shape) -> np.ndarray:
        nbytes = math.prod(shape) * 8
        if self.offset + nbytes > len(self.buf):
            raise FormatError("model file truncated inside the matrix payload")
        arr = self.buf[self.offset:self.offset + nbytes].view("<f8")
        self.offset += nbytes
        try:
            return arr.reshape(shape)
        except ValueError as err:  # an empty matrix with a huge dimension
            raise FormatError(
                f"model header gives a matrix shape too large to read: {shape}"
            ) from err


def load_model(path) -> tuple:
    """Read a model container; returns ``(model, head_or_None)``.

    The file is read once into one buffer, placed so that the payload starts
    on an 8-byte boundary.  Every returned matrix is an aligned, writable
    view of that buffer, which lives as long as any of them does.
    """
    prefix_len = len(MODEL_MAGIC) + 4 + 4
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        payload_at = prefix_len + int.from_bytes(
            fh.read(prefix_len)[prefix_len - 4:], "little")
        buf = np.empty(size + 7, dtype=np.uint8)
        start = -(buf.ctypes.data + payload_at) % 8
        fh.seek(0)
        raw = memoryview(buf[start:start + size])
        raw = raw[:fh.readinto(raw)]
    min_len = prefix_len + 32
    if len(raw) < min_len:
        raise FormatError("model file too short to be valid")
    if raw[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise FormatError("bad magic; not a model container")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise FormatError("checksum mismatch; model file is corrupt")
    pos = len(MODEL_MAGIC)
    version = int.from_bytes(body[pos:pos + 4], "little")
    pos += 4
    if version < 1:
        raise FormatError(f"model format version {version} does not exist")
    if version != MODEL_VERSION:
        raise VersionError(
            f"model format version {version} is not supported; this library "
            f"reads version {MODEL_VERSION} only"
        )
    header_len = int.from_bytes(body[pos:pos + 4], "little")
    pos += 4
    if pos + header_len > len(body):
        raise FormatError("model file truncated inside the header")
    try:
        header = json.loads(str(body[pos:pos + header_len], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FormatError(f"unreadable model header: {err}") from err
    pos += header_len

    # every header field is checked before any matrix is read
    try:
        n = _count(header["anchor_count"], "anchor_count")
        d = _count(header["feature_dim"], "feature_dim")
        kernels = [KernelSpec.from_dict(k) for k in header["arch"]["input_kernels"]]
        layer_meta = [(_count(meta["width"], "layer width"), meta["activation"])
                      for meta in header["arch"]["layers"]]
        unit_meta = [[(_count(meta["width"], "unit width"),
                       _clip_report_from_dict(meta["clip_report"]))
                      for meta in metas]
                     for metas in header["units"]]
        head_meta = header["head"]
        classes = (None if head_meta is None
                   else _count(head_meta["classes"], "head classes"))
        anchor_ids = anchor_id_tuple(header["anchor_ids"], n)
    except KeyError as err:
        raise FormatError(f"model header missing field: {err}") from err
    except (TypeError, ValueError) as err:
        raise FormatError(f"malformed model header: {err}") from err
    counts = [len(metas) for metas in unit_meta]
    widths = [len(kernels)] + [width for width, _ in layer_meta]
    if counts != widths:
        raise FormatError(f"inconsistent model header: {counts} units per "
                          f"layer, layer widths {widths}")

    reader = _PayloadReader(buf[start + pos:start + len(body)])
    anchor_samples = reader.take((n, d))
    layers_spec = []
    prev = len(kernels)
    unit_layers = []
    try:
        for width, activation in layer_meta:
            w = reader.take((width, prev))
            layers_spec.append(LayerSpec(width=width, activation=activation,
                                         weights=w))
            prev = width
        arch = DknArchitecture(input_kernels=kernels, layers=layers_spec)
        # a unit's shapes follow from its width; the last layer has no anchors
        for l, metas in enumerate(unit_meta):
            last = l == len(unit_meta) - 1
            unit_layers.append([
                DmnUnit(reader.take((n, 0 if last else width)),
                        reader.take((n, width)), clip)
                for width, clip in metas])
        model = DmnModel(layers=unit_layers, arch=arch,
                         anchor_samples=anchor_samples, anchor_ids=anchor_ids)
        head = None
        if classes is not None:
            normals = reader.take((classes, model.final_width))
            trade_offs = reader.take((1, classes))[0]
            head = ClassifierHead(normals=normals, trade_offs=trade_offs)
    except ConfigError as err:
        raise FormatError(f"inconsistent model file: {err}") from err

    if reader.offset != len(reader.buf):
        raise FormatError("model file has trailing bytes after the payload")
    return model, head
