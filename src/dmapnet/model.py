"""Explicit deep map models: per-unit anchors and projections, inference,
classifier heads, and a versioned binary container for trained models.

A model holds one unit per network kernel unit.  Input units carry the base
kernel and a projection; their map for a sample is the kernel-value vector
against the anchor samples times the projection.  Units of later layers
carry an anchor matrix whose rows live in the concatenated lower map space;
their map is the activated inner products against those rows times the
projection.  Inference therefore never touches any training set, only the
fixed anchor matrices.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .dkn import ACTIVATIONS, DknArchitecture, activation_apply
from .errors import ConfigError, FormatError, InputError, NumericRangeError, VersionError
from .fileio import atomic_write_bytes
from .kernels import KernelSpec, gram_matrix

MODEL_MAGIC = b"DMAPMDL\x00"
MODEL_VERSION = 1


@dataclass
class DmnUnit:
    """One map unit: anchors, projection and activation.

    For input-layer units ``kernel`` is set, ``activation`` is identity and
    ``anchors`` holds the unit's own map of the anchor samples (used while
    building the layer above).  For later layers ``anchors`` rows live in the
    concatenated lower map space and are free parameters during training.
    """

    activation: str
    anchors: np.ndarray
    projection: np.ndarray
    kernel: KernelSpec | None = None
    clip_report: object | None = None

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        self.anchors = np.asarray(self.anchors, dtype=np.float64)
        self.projection = np.asarray(self.projection, dtype=np.float64)
        if self.anchors.ndim != 2 or self.projection.ndim != 2:
            raise ConfigError("anchors and projection must be 2-D")
        if self.anchors.shape[0] != self.projection.shape[0]:
            raise ConfigError(
                "anchors and projection must agree on the anchor count"
            )

    @property
    def width(self) -> int:
        return self.projection.shape[1]


@dataclass
class DmnModel:
    """A stack of unit layers plus the anchor samples they were built on.

    ``layers[0]`` holds the input-kernel units.  The model owns a private
    copy of the architecture; training updates the mixing weights inside
    that copy without touching the caller's architecture.
    """

    layers: list
    arch: DknArchitecture
    anchor_samples: np.ndarray
    anchor_ids: tuple = ()

    def __post_init__(self):
        self.anchor_samples = np.asarray(self.anchor_samples, dtype=np.float64)
        if self.anchor_samples.ndim != 2:
            raise ConfigError("anchor samples must be 2-D")
        if not self.anchor_ids:
            self.anchor_ids = tuple(range(self.anchor_samples.shape[0]))
        self.anchor_ids = tuple(self.anchor_ids)
        if len(self.anchor_ids) != self.anchor_samples.shape[0]:
            raise ConfigError("anchor ids must match the anchor sample count")
        if len(self.layers) != self.arch.num_layers:
            raise ConfigError("unit layers must match the architecture depth")
        for l, units in enumerate(self.layers):
            expected = self.arch.widths[l]
            if len(units) != expected:
                raise ConfigError(
                    f"layer {l + 1} has {len(units)} units, expected {expected}"
                )

    @property
    def anchor_count(self) -> int:
        return self.anchor_samples.shape[0]

    @property
    def final_width(self) -> int:
        return self.layers[-1][0].width


@dataclass
class ClassifierHead:
    """Per-class linear weights over the final map plus hinge trade-offs."""

    normals: np.ndarray  # (classes, final_width)
    trade_offs: np.ndarray  # (classes,), positive

    def __post_init__(self):
        self.normals = np.asarray(self.normals, dtype=np.float64)
        self.trade_offs = np.asarray(self.trade_offs, dtype=np.float64)
        if self.normals.ndim != 2:
            raise ConfigError("head normals must be 2-D (classes x map width)")
        if self.trade_offs.shape != (self.normals.shape[0],):
            raise ConfigError("one trade-off per class is required")
        if not np.isfinite(self.normals).all():
            raise ConfigError("head normals must be finite")
        if not (self.trade_offs > 0).all():
            raise ConfigError("trade-offs must be positive")

    @property
    def num_classes(self) -> int:
        return self.normals.shape[0]

    @classmethod
    def zeros(cls, num_classes: int, width: int, trade_off=1.0) -> "ClassifierHead":
        return cls(np.zeros((num_classes, width)),
                   np.broadcast_to(np.asarray(trade_off, dtype=np.float64),
                                   (num_classes,)).copy())

    @classmethod
    def random(cls, num_classes: int, width: int, trade_off=1.0, seed: int = 0,
               scale: float = 0.01) -> "ClassifierHead":
        rng = np.random.default_rng(seed)
        return cls(scale * rng.standard_normal((num_classes, width)),
                   np.broadcast_to(np.asarray(trade_off, dtype=np.float64),
                                   (num_classes,)).copy())


@dataclass
class BatchTrace:
    """Forward intermediates for a batch: per layer, per unit, the
    activated inner products against the anchors (samples x anchors; the
    input layer's kernel rows) and the map output (samples x unit width)."""

    h: list
    out: list

    @property
    def final(self) -> np.ndarray:
        return self.out[-1][0]

    @property
    def num_samples(self) -> int:
        return self.out[0][0].shape[0]


def _check_finite(arr: np.ndarray, layer: int, unit: int, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericRangeError(
            f"non-finite {what} at layer {layer}, unit {unit}"
        )


def input_kernel_rows(model: DmnModel, X) -> list:
    """Kernel values of each sample against the anchor samples, one matrix
    per input unit.  These depend only on the anchor samples and the base
    kernels, so training loops compute them once and reuse them."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != model.anchor_samples.shape[1]:
        raise InputError(
            f"sample dimension {X.shape[1]} does not match anchors "
            f"({model.anchor_samples.shape[1]})"
        )
    rows = []
    for unit in model.layers[0]:
        rows.append(gram_matrix(unit.kernel, X, model.anchor_samples).values)
    return rows


def forward_batch(model: DmnModel, X, kernel_rows=None) -> tuple:
    """Map a batch of samples through every unit.

    Returns ``(final_maps, trace)`` where ``final_maps`` is the output of
    the last layer's first unit and ``trace`` is a BatchTrace with every
    activated inner-product matrix and map.
    """
    if kernel_rows is None:
        kernel_rows = input_kernel_rows(model, X)
    h_layers = []
    out_layers = []
    outs = []
    # overflow may pass through as inf/nan silently; the finite checks
    # after every product raise with the offending unit named
    with np.errstate(over="ignore", invalid="ignore"):
        for q, unit in enumerate(model.layers[0]):
            Z = kernel_rows[q]
            phi = Z @ unit.projection
            _check_finite(phi, 1, q + 1, "map")
            outs.append(phi)
        h_layers.append(list(kernel_rows))
        out_layers.append(outs)
        for li, layer_spec in enumerate(model.arch.layers):
            units = model.layers[li + 1]
            weights = layer_spec.weights
            new_outs = []
            new_hs = []
            for p, unit in enumerate(units):
                cmat = concat_with_weights(outs, weights[p])
                smat = cmat @ unit.anchors.T
                _check_finite(smat, li + 2, p + 1, "pre-activation")
                hmat = activation_apply(unit.activation, smat)
                phi = hmat @ unit.projection
                _check_finite(phi, li + 2, p + 1, "map")
                new_hs.append(hmat)
                new_outs.append(phi)
            h_layers.append(new_hs)
            out_layers.append(new_outs)
            outs = new_outs
    trace = BatchTrace(h=h_layers, out=out_layers)
    return trace.final, trace


def concat_with_weights(lower_maps, weights_row) -> np.ndarray:
    """Concatenate lower maps scaled by the square roots of the weights.

    Inner products of the concatenated rows equal the weighted sum of the
    lower maps' inner products.  Zero weights keep their block (as zeros) so
    widths never change."""
    if len(lower_maps) != len(weights_row):
        raise ConfigError(
            f"{len(weights_row)} weights for {len(lower_maps)} lower maps"
        )
    if np.min(weights_row) < 0:
        raise ConfigError("mixing weights must be nonnegative")
    if len({m.shape[0] for m in lower_maps}) > 1:
        raise InputError("lower maps must agree on the number of rows")
    parts = [np.sqrt(w) * m for w, m in zip(weights_row, lower_maps)]
    return np.hstack(parts)


def score_batch(model: DmnModel, head: ClassifierHead, X, kernel_rows=None) -> np.ndarray:
    """Scores for a batch of samples, one row per sample.

    The head must match a final layer of exactly one unit.
    """
    if len(model.layers[-1]) != 1:
        raise ConfigError(
            "classification requires a final layer with exactly one unit"
        )
    if head.normals.shape[1] != model.final_width:
        raise ConfigError(
            f"head width {head.normals.shape[1]} does not match the final map "
            f"width {model.final_width}"
        )
    final, _ = forward_batch(model, X, kernel_rows=kernel_rows)
    return final @ head.normals.T


def classify(model: DmnModel, head: ClassifierHead, x) -> tuple:
    """Scores and hard labels for one sample.

    Labels are +1 where the score is strictly positive, else -1.
    """
    scores = score_batch(model, head, np.asarray(x, dtype=np.float64)[None, :])[0]
    labels = np.where(scores > 0, 1, -1).astype(np.int64)
    return scores, labels


# --- binary container --------------------------------------------------------

def _clip_report_to_dict(report) -> dict | None:
    if report is None:
        return None
    return {
        "retained": int(report.retained),
        "discarded": int(report.discarded),
        "discarded_max_abs": float(report.discarded_max_abs),
        "discarded_abs_sum": float(report.discarded_abs_sum),
    }


def _clip_report_from_dict(obj):
    if obj is None:
        return None
    from .builder import ClipReport

    return ClipReport(
        retained=_count(obj["retained"], "clip_report retained"),
        discarded=_count(obj["discarded"], "clip_report discarded"),
        discarded_max_abs=float(obj["discarded_max_abs"]),
        discarded_abs_sum=float(obj["discarded_abs_sum"]),
    )


def _count(value, what: str) -> int:
    """A header count: a non-negative JSON integer."""
    if type(value) is not int or value < 0:
        raise FormatError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _shape(value, what: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise FormatError(f"{what} must hold two entries, got {value!r}")
    return tuple(_count(v, what) for v in value)


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
    SHA-256 over all preceding bytes.
    """
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
                {
                    "activation": unit.activation,
                    "kernel": unit.kernel.to_dict() if unit.kernel else None,
                    "anchors_shape": list(unit.anchors.shape),
                    "projection_shape": list(unit.projection.shape),
                    "clip_report": _clip_report_to_dict(unit.clip_report),
                }
                for unit in units
            ]
            for units in model.layers
        ],
        "head": None if head is None else {"classes": int(head.num_classes)},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [MODEL_MAGIC,
             int(MODEL_VERSION).to_bytes(4, "little"),
             len(header_bytes).to_bytes(4, "little"),
             header_bytes]
    for mat in _model_matrices(model, head):
        parts.append(np.ascontiguousarray(mat, dtype="<f8").tobytes())
    blob = b"".join(parts)
    digest = hashlib.sha256(blob).digest()
    atomic_write_bytes(path, blob + digest)


class _PayloadReader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.offset = 0

    def take(self, shape) -> np.ndarray:
        count = math.prod(shape)
        nbytes = count * 8
        if self.offset + nbytes > len(self.buf):
            raise FormatError("model file truncated inside the matrix payload")
        arr = np.frombuffer(self.buf, dtype="<f8", count=count, offset=self.offset)
        self.offset += nbytes
        return arr.astype(np.float64).reshape(shape)


def load_model(path) -> tuple:
    """Read a model container; returns ``(model, head_or_None)``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    min_len = len(MODEL_MAGIC) + 4 + 4 + 32
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
    if version > MODEL_VERSION:
        raise VersionError(
            f"model format version {version} is newer than supported "
            f"({MODEL_VERSION})"
        )
    header_len = int.from_bytes(body[pos:pos + 4], "little")
    pos += 4
    if pos + header_len > len(body):
        raise FormatError("model file truncated inside the header")
    try:
        header = json.loads(body[pos:pos + header_len].decode("utf-8"))
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
        unit_meta = [
            [(meta["activation"],
              KernelSpec.from_dict(meta["kernel"]) if meta["kernel"] else None,
              _shape(meta["anchors_shape"], "anchors_shape"),
              _shape(meta["projection_shape"], "projection_shape"),
              _clip_report_from_dict(meta["clip_report"]))
             for meta in metas]
            for metas in header["units"]
        ]
        head_meta = header["head"]
        classes = (None if head_meta is None
                   else _count(head_meta["classes"], "head classes"))
        anchor_ids = tuple(header["anchor_ids"])
    except KeyError as err:
        raise FormatError(f"model header missing field: {err}") from err
    except (TypeError, ValueError) as err:
        raise FormatError(f"malformed model header: {err}") from err

    reader = _PayloadReader(body[pos:])
    anchor_samples = reader.take((n, d))
    from .dkn import LayerSpec

    layers_spec = []
    prev = len(kernels)
    for width, activation in layer_meta:
        w = reader.take((width, prev))
        layers_spec.append(LayerSpec(width=width, activation=activation, weights=w))
        prev = width
    arch = DknArchitecture(input_kernels=kernels, layers=layers_spec)

    unit_layers = []
    for metas in unit_meta:
        units = []
        for activation, kern, anchors_shape, projection_shape, clip in metas:
            anchors = reader.take(anchors_shape)
            projection = reader.take(projection_shape)
            units.append(DmnUnit(activation=activation, anchors=anchors,
                                 projection=projection, kernel=kern,
                                 clip_report=clip))
        unit_layers.append(units)
    model = DmnModel(layers=unit_layers, arch=arch,
                     anchor_samples=anchor_samples, anchor_ids=anchor_ids)

    head = None
    if classes is not None:
        normals = reader.take((classes, model.final_width))
        trade_offs = reader.take((1, classes))[0]
        head = ClassifierHead(normals=normals, trade_offs=trade_offs)

    if reader.offset != len(reader.buf):
        raise FormatError("model file has trailing bytes after the payload")
    return model, head
