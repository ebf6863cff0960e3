"""Layerwise construction of explicit maps from a deep kernel network.

Each unit's gram over the anchor set is eigendecomposed; the projection
``U = V * diag(1/sqrt(lam))`` turns similarity vectors against the anchors
into coordinates whose inner products reproduce the unit's kernel on the
anchor set, up to the discarded eigenvalue mass.  Construction walks up from
layer 1, whose grams are the base kernels': each unit keeps its map of the
anchor samples as its anchors, and an upper unit's gram is the weighted
sum, over the lower units, of those maps' inner products, then activated.
``_unit`` makes every unit; ``model`` defines the ``ClipReport`` it records.
"""

from __future__ import annotations

import copy
import numbers
from dataclasses import dataclass

import numpy as np

from .dkn import DknArchitecture, EXP, activate, combine, gram_layers
from .errors import (ConfigError, DegenerateGramError, InputError,
                     NumericRangeError)
from .kernels import _floats, gram_matrix, max_asymmetry
from .model import (ClipReport, DmnModel, DmnUnit, anchor_id_tuple,
                    forward_batch)

# exp overflows float64 a little above this argument
EXP_ARG_LIMIT = 700.0

DEFAULT_CLIP_RATIO = 1e-10


@dataclass(frozen=True)
class AnchorSet:
    """The fixed samples every map is expanded over."""

    samples: np.ndarray
    ids: tuple = ()

    def __post_init__(self):
        samples = _floats(self.samples, "anchor samples", InputError)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 2:
            raise InputError("anchor samples must form a 2-D array")
        if samples.shape[0] < 2:
            raise InputError("at least two anchor samples are required")
        object.__setattr__(self, "ids",
                           anchor_id_tuple(self.ids, samples.shape[0]))

    @property
    def count(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class EigenFactor:
    """Retained eigenvectors and eigenvalues of a gram, plus the clip report.

    Eigenvalues are sorted descending; exact ties keep their original
    eigensolver order so repeated runs produce identical factors.
    """

    vectors: np.ndarray
    values: np.ndarray
    clip_report: ClipReport

    def projection(self) -> np.ndarray:
        """The map projection ``V * diag(1/sqrt(lam))``."""
        return self.vectors / np.sqrt(self.values)[None, :]

    def anchor_map(self) -> np.ndarray:
        """The map of the anchor samples, ``V * diag(sqrt(lam))``: the gram
        times the projection, without the product's rounding."""
        return self.vectors * np.sqrt(self.values)[None, :]


def eigen_projection(gram, clip_ratio: float = DEFAULT_CLIP_RATIO) -> EigenFactor:
    """Eigendecompose a symmetric gram, discarding the unusable spectrum.

    Eigenvalues at or below ``clip_ratio`` (finite, >= 0) times the largest
    one (negative ones included) are dropped.  Raises DegenerateGramError
    when nothing survives.
    """
    if not (isinstance(clip_ratio, numbers.Real) and 0 <= clip_ratio < np.inf):
        raise ConfigError(f"clip_ratio must be finite and >= 0, got {clip_ratio!r}")
    values = _floats(getattr(gram, "values", gram), "gram", InputError)
    if values.ndim != 2 or values.shape[0] != values.shape[1] or not values.size:
        raise InputError("eigen_projection expects a non-empty square matrix")
    asym = max_asymmetry(values)
    if asym > 1e-8:
        raise InputError(f"gram must be symmetric; max asymmetry {asym:.3e}")
    # eigh reads only the lower triangle
    lam, vec = np.linalg.eigh(values)
    lam_max = float(lam[-1])
    if not lam_max > 0:
        raise DegenerateGramError(
            "gram has no positive eigenvalues; nothing to retain"
        )
    threshold = clip_ratio * lam_max
    keep = lam > threshold
    if not keep.any():
        raise DegenerateGramError(
            "every eigenvalue fell at or below the clip threshold"
        )
    dropped = lam[~keep]
    report = ClipReport(
        retained=int(keep.sum()),
        discarded=int(dropped.size),
        discarded_max_abs=float(np.max(np.abs(dropped))) if dropped.size else 0.0,
        discarded_abs_sum=float(np.sum(np.abs(dropped))) if dropped.size else 0.0,
    )
    kept = np.nonzero(keep)[0]
    kept = kept[np.argsort(-lam[kept], kind="stable")]
    return EigenFactor(vectors=vec[:, kept], values=lam[kept],
                       clip_report=report)


def _unit(gram, clip_ratio: float, layer: int, unit: int, last: bool) -> DmnUnit:
    """The unit with this gram over the anchor samples: its projection and,
    below the last layer, its map of the anchor samples as its anchors, whose
    row inner products reproduce the gram up to the clipped spectrum."""
    try:
        factor = eigen_projection(gram, clip_ratio)
    except DegenerateGramError as err:
        raise DegenerateGramError(f"layer {layer}, unit {unit}: {err}") from err
    maps = np.zeros((gram.shape[0], 0)) if last else factor.anchor_map()
    return DmnUnit(maps, factor.projection(), factor.clip_report)


def _grams(arch: DknArchitecture, number: int, samples, built: list):
    """Yield layer ``number``'s unit grams over the anchor samples one at a
    time, keeping none: the base grams in layer 1, above it the activated
    sums over the last ``built`` layer's anchor maps."""
    if number == 1:
        yield from (gram_matrix(spec, samples).values for spec in arch.input_kernels)
        return
    spec = arch.layers[number - 2]
    with np.errstate(over="ignore", invalid="ignore"):
        # a weighted sum of exactly symmetric grams stays exactly symmetric
        sums = combine(spec.weights, (u.anchors @ u.anchors.T for u in built[-1]))
        for p, pre in enumerate(sums, start=1):
            if spec.activation == EXP and np.max(np.abs(pre)) > EXP_ARG_LIMIT:
                raise NumericRangeError(f"layer {number}, unit {p}: exp "
                                        f"argument exceeds {EXP_ARG_LIMIT:g}")
        activate(spec, number, sums)
    while sums:
        yield sums.pop(0)


def build_dmn(arch: DknArchitecture, anchors: AnchorSet,
              clip_ratio: float = DEFAULT_CLIP_RATIO) -> DmnModel:
    """Construct the full explicit-map model for a network architecture.

    Each unit's ``clip_report`` records its retained width and discarded
    eigenvalue mass.
    """
    unit_layers = []
    for number in range(1, arch.num_layers + 1):
        units = []
        grams = _grams(arch, number, anchors.samples, unit_layers)
        for p, gram in enumerate(grams, start=1):
            units.append(_unit(gram, clip_ratio, number, p, number == arch.num_layers))
            del gram  # the gram goes once its unit is built
        unit_layers.append(units)
    return DmnModel(layers=unit_layers, arch=copy.deepcopy(arch),
                    anchor_samples=anchors.samples.copy(),
                    anchor_ids=anchors.ids)


def _spectral_norm(sym: np.ndarray) -> float:
    """The spectral norm of an exactly symmetric matrix: its largest
    ``|eigenvalue|``, which costs less than an SVD."""
    return float(np.max(np.abs(np.linalg.eigvalsh(sym))))


def reconstruction_errors(model: DmnModel) -> list:
    """Relative spectral error between each unit's map gram and its network
    kernel gram, both over the model's anchor samples.

    Returns a list of layers, each a list of per-unit errors.  Freshly built
    models reproduce every unit's gram up to the clipped eigenvalue mass.

    One forward pass maps the anchor samples, and only its maps are kept.
    The reference grams then come one layer at a time from
    ``dkn.gram_layers``, and each layer's grams and maps go once its errors
    are taken.  Map grams ``phi @ phi.T`` and reference grams are exactly
    symmetric, so each spectral norm is the largest ``|eigvalsh|``.  A
    non-finite map raises the forward pass's NumericRangeError, which
    names its layer and unit.
    """
    S = model.anchor_samples
    # The maps come first: walking the model beside gram_layers instead
    # would keep a layer's activations alive next to two layers of
    # reference grams, a higher peak for the same errors.
    _, maps = forward_batch(model, S)
    reference = gram_layers(model.arch,
                            (gram_matrix(spec, S) for spec in model.arch.input_kernels))
    errors = []
    for l, grams in enumerate(reference):
        layer_errors = []
        for p, gram in enumerate(grams):
            K = gram.values
            denom = _spectral_norm(K)
            if denom == 0.0:
                raise DegenerateGramError(
                    f"layer {l + 1}, unit {p + 1}: reference gram is zero"
                )
            diff = maps[l][p] @ maps[l][p].T
            diff -= K
            layer_errors.append(_spectral_norm(diff) / denom)
            del diff  # not alive while the next layer is combined
        maps[l] = None
        errors.append(layer_errors)
    return errors
