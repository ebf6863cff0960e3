"""Deep kernel networks: recursive nonlinear combinations of base kernels.

A network has an input layer of base kernels and one or more combination
layers, the last of which is one unit: the network's kernel.  Unit p of
layer l computes ``g(sum_q w[p, q] * k_q(x, x'))`` over the units of the
layer below, with nonnegative mixing weights and an activation g in
{tanh, exp, identity}.  Everything here works on implicit kernel values;
the explicit map construction lives in ``builder``.  Every walk activates
a layer's ``combine`` sums through ``activate``, which names the layer and
unit of a non-finite value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, NumericRangeError, drawing
from .kernels import (GramMatrix, KernelSpec, _floats, _is_whole, _seed,
                      block_rows, eval_kernel)

TANH = "tanh"
EXP = "exp"
IDENTITY = "identity"

ACTIVATIONS = (TANH, EXP, IDENTITY)


def activation_apply(name: str, values, out=None):
    """The activation of ``values``, written into ``out`` when it is given
    (``out=values`` activates in place)."""
    if name == TANH:
        return np.tanh(values, out=out)
    if name == EXP:
        # overflow yields inf silently; activate checks finiteness
        with np.errstate(over="ignore"):
            return np.exp(values, out=out)
    if name == IDENTITY:
        if out is None or out is values:
            return np.asarray(values, dtype=np.float64)
        np.copyto(out, values)
        return out
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
        self.weights = _floats(self.weights, "mixing weights", ConfigError)
        if (self.weights.ndim != 2 or self.weights.shape[0] != self.width
                or not self.weights.shape[1]):
            raise ConfigError(f"weights must have shape ({self.width}, prev_width "
                              f">= 1), got {self.weights.shape}")
        if np.min(self.weights) < 0:
            raise ConfigError("mixing weights must be nonnegative")


@dataclass
class DknArchitecture:
    """Input kernels plus combination layers, the last of exactly one unit.

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
            try:  # again, for a layer changed after it was made
                layer.__post_init__()
            except ConfigError as err:
                raise ConfigError(f"layer {i + 2}: {err}") from err
            if layer.weights.shape[1] != prev:
                raise ConfigError(
                    f"layer {i + 2}: weights expect {layer.weights.shape[1]} inputs "
                    f"but the layer below has {prev} units"
                )
            prev = layer.width
        if prev != 1:
            raise ConfigError(
                f"layer {self.num_layers} is the output layer and must have "
                f"exactly one unit, got {prev}"
            )

    @property
    def num_layers(self) -> int:
        return 1 + len(self.layers)

    @property
    def widths(self) -> list:
        return [len(self.input_kernels)] + [layer.width for layer in self.layers]

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
        return cls(input_kernels=kernels,
                   layers=_mixing_layers(layer_objs, len(kernels), seed))


def random_mixing_weights(width: int, prev_width: int, rng) -> np.ndarray:
    """Uniform nonnegative weights with each unit's row normalized to sum 1."""
    w = rng.uniform(0.0, 1.0, size=(_layer_width(width), _layer_width(prev_width)))
    return w / w.sum(axis=1, keepdims=True)


def _mixing_layers(layer_objs, prev: int, seed: int) -> list:
    """LayerSpecs over ``prev`` input kernels from parsed layer objects; each
    missing weight matrix is drawn from one generator seeded with ``seed``."""
    rng = np.random.default_rng(_seed(seed, ConfigError))
    layers = []
    for number, raw in enumerate(layer_objs, start=2):
        if not isinstance(raw, dict) or "width" not in raw or "activation" not in raw:
            raise ConfigError("each layer needs 'width' and 'activation'")
        width = _layer_width(raw["width"])
        weights = raw.get("weights")
        if weights is None:
            with drawing(f"layer {number}'s {width} x {prev} mixing weights"):
                weights = random_mixing_weights(width, prev, rng)
        layers.append(LayerSpec(width=width, activation=raw["activation"],
                                weights=weights))
        prev = width
    return layers


def default_architecture(input_kernels, hidden_width: int | None = None,
                         seed: int = 0) -> DknArchitecture:
    """Three-layer network: inputs, a tanh layer twice as wide, one exp unit."""
    n1 = len(input_kernels)
    hidden = {"width": 2 * n1 if hidden_width is None else hidden_width,
              "activation": TANH}
    return DknArchitecture(input_kernels=input_kernels, layers=_mixing_layers(
        [hidden, {"width": 1, "activation": EXP}], n1, seed))


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


def combine(weights, terms) -> list:
    """For every row ``p`` of ``weights``, ``sum_q weights[p, q] * terms[q]``,
    accumulated in ascending ``q``.

    ``terms`` is consumed one at a time, so a generator keeps only one term
    alive.  Terms may be 2-D arrays (the sums are then fresh arrays, summed
    in place) or scalars, from ``dkn_pair``'s recursion, which are added
    whole.  Each later array is added one row block of ``block_rows`` at a
    time into every sum, so all sums read that block from cache; a small
    term is one block.  Every entry sees the same operations in the same
    order.
    """
    sums = None
    for q, term in enumerate(terms):
        if sums is None:
            sums = [w * term for w in weights[:, q]]
        elif isinstance(term, np.ndarray):
            step = block_rows(term.shape[1])
            for i in range(0, term.shape[0], step):
                block = term[i:i + step]
                for p, w in enumerate(weights[:, q]):
                    sums[p][i:i + step] += w * block
        else:
            for p, w in enumerate(weights[:, q]):
                sums[p] += w * term
    return sums


def check_finite(values, layer: int, unit: int, what: str) -> None:
    """Raise NumericRangeError naming the layer and unit of non-finite values."""
    # dkn_pair's values are floats, which math checks fastest
    if not (np.isfinite(values).all() if isinstance(values, np.ndarray)
            else math.isfinite(values)):
        raise NumericRangeError(f"non-finite {what} at layer {layer}, unit {unit}")


def activate(layer: LayerSpec, number: int, sums: list) -> list:
    """Activate layer ``number``'s ``combine`` sums unit by unit, arrays in
    place, raising check_finite's error for a non-finite sum or activation."""
    for p, pre in enumerate(sums):
        check_finite(pre, number, p + 1, "pre-activation")
        if isinstance(pre, np.ndarray):
            activation_apply(layer.activation, pre, out=pre)
        else:  # dkn_pair's floats
            sums[p] = float(activation_apply(layer.activation, pre))
        check_finite(sums[p], number, p + 1, "activation")
    return sums


def gram_layers(arch: DknArchitecture, input_grams):
    """Yield each layer's per-unit GramMatrix list over a fixed sample set,
    bottom-up: first the inputs, then each layer's combined, activated grams.

    ``input_grams`` holds, or yields, one GramMatrix (or plain array) per
    input kernel, all square and of one size, each over the same samples.
    The generator keeps only the layer it combines from, so a caller that
    lets each yielded layer go before asking for the next holds at most two
    layers of grams.
    """
    grams = [gm if isinstance(gm, GramMatrix) else GramMatrix(gm)
             for gm in input_grams]
    n1 = len(arch.input_kernels)
    if len(grams) != n1:
        raise InputError(f"expected {n1} input grams, got {len(grams)}")
    n = grams[0].shape[0]
    if any(gm.shape != (n, n) for gm in grams):
        raise InputError("input grams must be square and of one size, got "
                         + ", ".join(str(gm.shape) for gm in grams))
    for number, layer in enumerate(arch.layers, start=2):
        yield grams
        with np.errstate(over="ignore", invalid="ignore"):
            grams = [GramMatrix(h) for h in activate(layer, number, combine(
                layer.weights, (gm.values for gm in grams)))]
    yield grams


def dkn_pair(arch: DknArchitecture, x, y) -> float:
    """Network kernel value for one sample pair."""
    kappa = [eval_kernel(spec, x, y) for spec in arch.input_kernels]
    with np.errstate(over="ignore", invalid="ignore"):
        for number, layer in enumerate(arch.layers, start=2):
            kappa = activate(layer, number, combine(layer.weights, kappa))
    return kappa[0]


def dkn_classify(arch: DknArchitecture, support, dual_coef, bias, x) -> np.ndarray:
    """Dual-form scores: sum of dual coefficients times pair kernel values.

    Evaluates the network kernel against every support sample, so the cost
    grows linearly with the number of supports.
    """
    support = _floats(support, "support", InputError)
    if support.ndim != 2 or support.shape[0] == 0:
        raise InputError("support must be a nonempty 2-D sample array")
    dual_coef = _floats(dual_coef, "dual_coef", InputError)
    if dual_coef.ndim != 2 or dual_coef.shape[1] != support.shape[0]:
        raise InputError(
            f"dual_coef must have shape (classes, {support.shape[0]}), "
            f"got {dual_coef.shape}"
        )
    bias = _floats(bias, "bias", InputError)
    if bias.shape != (dual_coef.shape[0],):
        raise InputError(
            f"bias must have shape ({dual_coef.shape[0]},), got {bias.shape}"
        )
    kvec = np.empty(support.shape[0])
    for i in range(support.shape[0]):
        kvec[i] = dkn_pair(arch, x, support[i])
    return dual_coef @ kvec + bias
