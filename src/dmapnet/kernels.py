"""Base kernels and gram-matrix computation for the network input layer.

All four kernels run through one vectorized core whose reductions accumulate
in ascending feature order.  The core works through row blocks of about
``BLOCK_BYTES``, so a block's accumulator and temporaries stay in a core's
cache, and it reads the second sample set's features as contiguous rows.
Neither changes any entry's arithmetic.  A single pair evaluation is the 1x1
case of the same core, so a full gram matrix and per-pair evaluations
perform identical arithmetic, entry for entry.  Entry (i, j) sees the same
operations as entry (j, i), so a gram over one sample set is exactly
symmetric.

The network walks of ``model`` and ``training`` take their row blocks, of
about ``WALK_BYTES``, from ``walk_blocks``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError

LINEAR = "linear"
POLYNOMIAL = "polynomial"
RBF = "rbf"
HISTOGRAM_INTERSECTION = "histogram_intersection"

KERNEL_KINDS = (LINEAR, POLYNOMIAL, RBF, HISTOGRAM_INTERSECTION)

# Row blocks of about this many bytes keep a block's accumulator, its
# temporaries and the rows it reads in a core's L2 cache.  128-512 KB ran
# within 3% of each other on 256 x 1000 kernel rows; 32 KB and 1 MB were
# slower.
BLOCK_BYTES = 1 << 18

# A batch walks the network in row blocks whose samples x anchors matrix
# holds at most this many bytes, so what a walk holds is bounded by the
# block and not by the batch.  A block holds up to 262 rows at 1000 anchors
# and 2621 at 100, so a 256-row batch at 1000 anchors is one block.
WALK_BYTES = 1 << 21


def block_rows(columns: int) -> int:
    """Rows per block of a float64 array with ``columns`` columns."""
    return max(1, BLOCK_BYTES // (8 * max(1, columns)))


def walk_blocks(rows: int, anchors: int) -> list:
    """The row blocks, as slices in order, of a walk of ``rows`` samples
    over ``anchors`` anchors: as few blocks as fit in ``WALK_BYTES``, of
    equal size but for the last, so one slice of every row when they fit.
    Training walks all blocks but the last twice, so none is much larger
    than the others."""
    most = max(1, WALK_BYTES // (8 * max(1, anchors)))
    count = max(1, -(-rows // most))
    step = max(1, -(-rows // count))
    return [slice(lo, min(rows, lo + step)) for lo in range(0, rows, step)]


def max_asymmetry(values) -> float:
    """Largest ``|values - values.T|`` of a square array, one row block at a
    time, so no gram-sized temporary is made."""
    asym = 0.0
    step = block_rows(values.shape[0])
    for i in range(0, values.shape[0], step):
        rows = values[i:i + step]
        asym = max(asym, float(np.max(np.abs(rows - values[:, i:i + step].T))))
    return asym


def _is_whole(value) -> bool:
    """True for an integer-valued number; False for anything else, strings
    and non-finite floats included."""
    try:
        return int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def _seed(value, error) -> int:
    """``value`` as a generator seed, an integer >= 0; raises ``error``, the
    caller's typed error, for anything else."""
    if not _is_whole(value) or value < 0:
        raise error(f"seed must be an integer >= 0, got {value!r}")
    return int(value)


def _floats(value, what: str, error) -> np.ndarray:
    """``value`` as a float64 array, uncopied when it already is one; raises
    ``error``, the caller's typed error, naming ``what`` when ``value`` is
    not numbers or holds a non-finite entry."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        raise error(f"{what} must be numbers: {err}") from err
    if not np.isfinite(arr).all():
        raise error(f"{what} must be finite")
    return arr


@dataclass(frozen=True)
class KernelSpec:
    """A parametric base kernel.

    kind: one of ``KERNEL_KINDS``.
    degree, offset: polynomial parameters, ``(dot(x, y) + offset) ** degree``.
    gamma: RBF bandwidth, ``exp(-gamma * ||x - y||^2)``.

    Parameters irrelevant to ``kind`` are ignored but kept at defaults so
    specs stay hashable and comparable.
    """

    kind: str
    degree: int = 2
    offset: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if self.kind == POLYNOMIAL:
            if not _is_whole(self.degree) or self.degree < 1:
                raise ConfigError(
                    f"polynomial degree must be an integer >= 1, got {self.degree!r}")
            if not (isinstance(self.offset, numbers.Real)
                    and 0 <= self.offset < np.inf):
                raise ConfigError(f"polynomial offset must be a finite number "
                                  f">= 0, got {self.offset!r}")
        if self.kind == RBF and not (isinstance(self.gamma, numbers.Real)
                                     and 0 < self.gamma < np.inf):
            raise ConfigError(f"rbf gamma must be a finite number > 0, "
                              f"got {self.gamma!r}")

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == POLYNOMIAL:
            out["degree"] = int(self.degree)
            out["offset"] = float(self.offset)
        elif self.kind == RBF:
            out["gamma"] = float(self.gamma)
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "KernelSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConfigError("kernel spec must be an object with a 'kind' key")
        kwargs = {}
        for key in ("degree", "offset", "gamma"):
            if key in obj:
                kwargs[key] = obj[key]
        return cls(kind=obj["kind"], **kwargs)


@dataclass(frozen=True)
class GramMatrix:
    """Kernel values between two sample lists: a finite 2-D float array.

    Symmetry is not checked here; ``builder.eigen_projection``, the one step
    that needs it, checks it.
    """

    values: np.ndarray

    def __post_init__(self):
        values = _floats(self.values, "gram matrix", InputError)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise InputError("gram values must form a 2-D matrix")

    @property
    def shape(self) -> tuple:
        return self.values.shape


def _as_samples(x, name: str) -> np.ndarray:
    arr = _floats(x, name, InputError)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise InputError(f"{name} must be a 2-D sample array, got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InputError(f"{name} must contain at least one sample and one feature")
    return arr


def _gram_block(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Kernel values between every row of ``X`` and every row of ``Y``.

    Feature-axis reductions run as explicit rank-1 updates in ascending
    feature order, so no entry depends on the block shape.  The result is
    filled one row block of ``X`` at a time, and ``Y``'s features are read
    from one contiguous copy of ``Y.T``.
    """
    n, d = X.shape
    Yt = np.ascontiguousarray(Y.T)
    out = np.zeros((n, Y.shape[0]))
    step = block_rows(Y.shape[0])
    for i in range(0, n, step):
        Xb = X[i:i + step]
        acc = out[i:i + step]
        if spec.kind == RBF:
            for t in range(d):
                diff = Xb[:, t, None] - Yt[t]
                acc += diff * diff
            acc *= -spec.gamma
            np.exp(acc, out=acc)
        elif spec.kind == HISTOGRAM_INTERSECTION:
            for t in range(d):
                acc += np.minimum(Xb[:, t, None], Yt[t])
        else:
            for t in range(d):
                acc += Xb[:, t, None] * Yt[t]
            if spec.kind == POLYNOMIAL:
                acc += spec.offset
                acc **= int(spec.degree)
    return out


def _sample_pair(spec: KernelSpec, X, Y, names: str) -> tuple:
    """``X`` and ``Y`` (``X`` when ``Y`` is None) as sample arrays of one
    feature dimension that ``spec`` accepts; ``names`` names them in errors."""
    X = _as_samples(X, names[0])
    Y = X if Y is None else _as_samples(Y, names[1])
    if X.shape[1] != Y.shape[1]:
        raise InputError(
            f"sample dimension mismatch: {X.shape[1]} vs {Y.shape[1]}"
        )
    if spec.kind == HISTOGRAM_INTERSECTION:
        if np.min(X) < 0 or np.min(Y) < 0:
            raise InputError("histogram intersection requires nonnegative features")
    return X, Y


# overflow yields inf or nan silently; GramMatrix rejects non-finite entries
@np.errstate(over="ignore", invalid="ignore")
def gram_matrix(spec: KernelSpec, X, Y=None) -> GramMatrix:
    """Kernel values between every row of ``X`` and every row of ``Y``.

    ``Y=None`` means ``Y = X``; that gram is exactly symmetric.
    """
    X, Y = _sample_pair(spec, X, Y, "XY")
    return GramMatrix(_gram_block(spec, X, Y))


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Kernel value for one sample pair.

    Runs the same core as ``gram_matrix`` on a 1x1 block, so the result is
    bit-identical to the corresponding gram entry.
    """
    X, Y = _sample_pair(spec, x, y, "xy")
    if X.shape[0] != 1 or Y.shape[0] != 1:
        raise InputError("eval_kernel expects single samples")
    return float(_gram_block(spec, X, Y)[0, 0])
