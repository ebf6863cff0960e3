"""Deep kernel networks: recursive nonlinear combinations of base kernels.

A network has an input layer of base kernels and one or more combination
layers.  Unit p of layer l computes ``g(sum_q w[p, q] * k_q(x, x'))`` over
the units of the layer below, with nonnegative mixing weights and an
activation g in {tanh, exp, identity}.  Everything here works on implicit
kernel values; the explicit map construction lives in ``builder``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError
from .kernels import GramMatrix, KernelSpec, _is_whole, gram_matrix

TANH = "tanh"
EXP = "exp"
IDENTITY = "identity"

ACTIVATIONS = (TANH, EXP, IDENTITY)


def activation_apply(name: str, values):
    if name == TANH:
        return np.tanh(values)
    if name == EXP:
        # overflow yields inf silently; callers validate finiteness
        with np.errstate(over="ignore"):
            return np.exp(values)
    if name == IDENTITY:
        return np.asarray(values, dtype=np.float64)
    raise ConfigError(f"unknown activation {name!r}")


def activation_prime(name: str, h):
    """Derivative of the activation, written in terms of its output
    ``h = activation_apply(name, pre)``."""
    if name == TANH:
        return 1.0 - h * h
    if name == EXP:
        return h
    if name == IDENTITY:
        return np.ones_like(np.asarray(h, dtype=np.float64))
    raise ConfigError(f"unknown activation {name!r}")


def _layer_width(value) -> int:
    if not _is_whole(value) or value < 1:
        raise ConfigError(f"layer width must be an integer >= 1, got {value!r}")
    return int(value)


@dataclass
class LayerSpec:
    """One combination layer: width units mixing the layer below."""

    width: int
    activation: str
    weights: np.ndarray  # (width, prev_width), nonnegative

    def __post_init__(self):
        self.width = _layer_width(self.width)
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        try:
            self.weights = np.asarray(self.weights, dtype=np.float64)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"mixing weights must be numbers: {err}") from err
        if self.weights.ndim != 2 or self.weights.shape[0] != self.width:
            raise ConfigError(
                f"weights must have shape ({self.width}, prev_width), "
                f"got {self.weights.shape}"
            )
        if not np.isfinite(self.weights).all():
            raise ConfigError("mixing weights must be finite")
        if np.min(self.weights) < 0:
            raise ConfigError("mixing weights must be nonnegative")


@dataclass
class DknArchitecture:
    """Input kernels plus combination layers.

    Layer numbering is 1-based in messages: layer 1 is the input kernel
    layer, ``layers[0]`` is layer 2, and so on.
    """

    input_kernels: list = field(default_factory=list)
    layers: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.input_kernels) < 1:
            raise ConfigError("at least one input kernel is required")
        for spec in self.input_kernels:
            if not isinstance(spec, KernelSpec):
                raise ConfigError("input_kernels must contain KernelSpec values")
        if len(self.layers) < 1:
            raise ConfigError("at least one combination layer is required")
        prev = len(self.input_kernels)
        for i, layer in enumerate(self.layers):
            if not isinstance(layer, LayerSpec):
                raise ConfigError("layers must contain LayerSpec values")
            if layer.weights.shape[1] != prev:
                raise ConfigError(
                    f"layer {i + 2}: weights expect {layer.weights.shape[1]} inputs "
                    f"but the layer below has {prev} units"
                )
            prev = layer.width

    @property
    def num_layers(self) -> int:
        return 1 + len(self.layers)

    @property
    def widths(self) -> list:
        return [len(self.input_kernels)] + [layer.width for layer in self.layers]

    @property
    def output_width(self) -> int:
        return self.layers[-1].width

    def to_json_dict(self) -> dict:
        return {
            "input_kernels": [spec.to_dict() for spec in self.input_kernels],
            "layers": [
                {
                    "width": layer.width,
                    "activation": layer.activation,
                    "weights": layer.weights.tolist(),
                }
                for layer in self.layers
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict, seed: int = 0) -> "DknArchitecture":
        """Build from a parsed JSON object.

        Layers may omit ``weights``; missing weight matrices are drawn
        uniform nonnegative with rows normalized to sum to one, seeded.
        """
        if not isinstance(obj, dict):
            raise ConfigError("architecture config must be a JSON object")
        try:
            kernel_objs = obj["input_kernels"]
            layer_objs = obj["layers"]
        except KeyError as err:
            raise ConfigError(f"architecture config missing key {err}") from err
        if not isinstance(kernel_objs, list) or not isinstance(layer_objs, list):
            raise ConfigError("'input_kernels' and 'layers' must be lists")
        kernels = [KernelSpec.from_dict(k) for k in kernel_objs]
        rng = np.random.default_rng(seed)
        layers = []
        prev = len(kernels)
        for raw in layer_objs:
            if not isinstance(raw, dict) or "width" not in raw or "activation" not in raw:
                raise ConfigError("each layer needs 'width' and 'activation'")
            width = _layer_width(raw["width"])
            if "weights" in raw and raw["weights"] is not None:
                weights = raw["weights"]
            else:
                weights = random_mixing_weights(width, prev, rng)
            layers.append(LayerSpec(width=width, activation=raw["activation"],
                                    weights=weights))
            prev = width
        return cls(input_kernels=kernels, layers=layers)


def random_mixing_weights(width: int, prev_width: int, rng) -> np.ndarray:
    """Uniform nonnegative weights with each unit's row normalized to sum 1."""
    w = rng.uniform(0.0, 1.0, size=(width, prev_width))
    return w / w.sum(axis=1, keepdims=True)


def default_architecture(input_kernels, hidden_width: int | None = None,
                         seed: int = 0) -> DknArchitecture:
    """Three-layer network: inputs, a tanh layer twice as wide, one exp unit."""
    n1 = len(input_kernels)
    if hidden_width is None:
        hidden_width = 2 * n1
    rng = np.random.default_rng(seed)
    layers = [
        LayerSpec(width=hidden_width, activation=TANH,
                  weights=random_mixing_weights(hidden_width, n1, rng)),
        LayerSpec(width=1, activation=EXP,
                  weights=random_mixing_weights(1, hidden_width, rng)),
    ]
    return DknArchitecture(input_kernels=input_kernels, layers=layers)


def default_input_kernels(gamma: float = 1.0, degree: int = 2,
                          offset: float = 1.0) -> list:
    return [
        KernelSpec("linear"),
        KernelSpec("polynomial", degree=degree, offset=offset),
        KernelSpec("rbf", gamma=gamma),
        KernelSpec("histogram_intersection"),
    ]


def load_architecture(path, seed: int = 0) -> DknArchitecture:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ConfigError(f"invalid architecture JSON: {err}") from err
    return DknArchitecture.from_json_dict(obj, seed=seed)


def _combine_grams(weights_row, grams):
    """Weighted sum of gram arrays, accumulated in ascending unit order."""
    acc = weights_row[0] * grams[0]
    for q in range(1, len(grams)):
        acc = acc + weights_row[q] * grams[q]
    return acc


def dkn_forward_grams(arch: DknArchitecture, input_grams) -> list:
    """Per-layer, per-unit gram matrices over a fixed sample set.

    ``input_grams`` holds one GramMatrix (or plain square array) per input
    kernel, all over the same samples.  Returns a list of layers; layer 0
    echoes the inputs, later layers hold the combined, activated grams.
    """
    n1 = len(arch.input_kernels)
    if len(input_grams) != n1:
        raise InputError(
            f"expected {n1} input grams, got {len(input_grams)}"
        )
    normalized = []
    ids = None
    for gm in input_grams:
        if not isinstance(gm, GramMatrix):
            gm = GramMatrix(np.asarray(gm, dtype=np.float64))
        if ids is None:
            ids = gm.row_ids
        if gm.row_ids != ids or gm.col_ids != ids:
            raise InputError("input grams must share one sample id list")
        normalized.append(gm)
    layered = [normalized]
    values = [gm.values for gm in normalized]
    for layer in arch.layers:
        new_values = []
        for p in range(layer.width):
            combined = _combine_grams(layer.weights[p], values)
            new_values.append(activation_apply(layer.activation, combined))
        layered.append([GramMatrix(v, ids, ids) for v in new_values])
        values = new_values
    return layered


def dkn_pair(arch: DknArchitecture, x, y) -> float:
    """Network kernel value for one sample pair (output unit 1)."""
    from .kernels import eval_kernel

    kappa = [eval_kernel(spec, x, y) for spec in arch.input_kernels]
    for layer in arch.layers:
        new = []
        for p in range(layer.width):
            acc = layer.weights[p, 0] * kappa[0]
            for q in range(1, len(kappa)):
                acc = acc + layer.weights[p, q] * kappa[q]
            new.append(float(activation_apply(layer.activation, acc)))
        kappa = new
    return kappa[0]


def dkn_classify(arch: DknArchitecture, support, dual_coef, bias, x) -> np.ndarray:
    """Dual-form scores: sum of dual coefficients times pair kernel values.

    Evaluates the network kernel against every support sample, so the cost
    grows linearly with the number of supports.
    """
    support = np.asarray(support, dtype=np.float64)
    if support.ndim != 2 or support.shape[0] == 0:
        raise InputError("support must be a nonempty 2-D sample array")
    dual_coef = np.asarray(dual_coef, dtype=np.float64)
    if dual_coef.ndim != 2 or dual_coef.shape[1] != support.shape[0]:
        raise InputError(
            f"dual_coef must have shape (classes, {support.shape[0]}), "
            f"got {dual_coef.shape}"
        )
    bias = np.asarray(bias, dtype=np.float64)
    if bias.shape != (dual_coef.shape[0],):
        raise InputError(
            f"bias must have shape ({dual_coef.shape[0]},), got {bias.shape}"
        )
    kvec = np.empty(support.shape[0])
    for i in range(support.shape[0]):
        kvec[i] = dkn_pair(arch, x, support[i])
    return dual_coef @ kvec + bias
