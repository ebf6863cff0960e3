"""Base kernels and gram-matrix computation for the network input layer.

All four kernels run through one vectorized core whose reductions accumulate
in ascending feature order.  A single pair evaluation is the 1x1 case of the
same core, so a full gram matrix and per-pair evaluations perform identical
arithmetic, entry for entry.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError

LINEAR = "linear"
POLYNOMIAL = "polynomial"
RBF = "rbf"
HISTOGRAM_INTERSECTION = "histogram_intersection"

KERNEL_KINDS = (LINEAR, POLYNOMIAL, RBF, HISTOGRAM_INTERSECTION)

# Maximum allowed asymmetry for a gram over a single sample set.
SYMMETRY_TOL = 1e-10


def _is_whole(value) -> bool:
    """True for an integer-valued number; False for anything else, strings
    and non-finite floats included."""
    try:
        return int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


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
            if not (isinstance(self.offset, numbers.Real) and self.offset >= 0):
                raise ConfigError(
                    f"polynomial offset must be a number >= 0, got {self.offset!r}")
        if self.kind == RBF and not (isinstance(self.gamma, numbers.Real)
                                     and self.gamma > 0):
            raise ConfigError(f"rbf gamma must be a number > 0, got {self.gamma!r}")

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
    """Kernel values between two indexed sample lists.

    Passing the same non-empty ids for both axes claims that rows and
    columns index one sample list; such a gram must be symmetric to within
    ``SYMMETRY_TOL``.  Omitted ids default to positional integers without
    making that claim, so a square cross gram between two different sample
    lists is accepted.  Every entry must be finite.
    """

    values: np.ndarray
    row_ids: tuple = field(default=())
    col_ids: tuple = field(default=())

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise InputError("gram values must form a 2-D matrix")
        shared = bool(self.row_ids) and tuple(self.row_ids) == tuple(self.col_ids)
        row_ids = tuple(self.row_ids) if self.row_ids else tuple(range(values.shape[0]))
        col_ids = tuple(self.col_ids) if self.col_ids else tuple(range(values.shape[1]))
        object.__setattr__(self, "row_ids", row_ids)
        object.__setattr__(self, "col_ids", col_ids)
        if len(row_ids) != values.shape[0] or len(col_ids) != values.shape[1]:
            raise InputError("id lists must match the gram shape")
        if not np.isfinite(values).all():
            raise InputError("gram matrix contains non-finite entries")
        if shared:
            asym = float(np.max(np.abs(values - values.T))) if values.size else 0.0
            if asym > SYMMETRY_TOL:
                raise InputError(
                    f"gram with identical ids must be symmetric; max asymmetry {asym:.3e}"
                )

    @property
    def shape(self) -> tuple:
        return self.values.shape


def _as_samples(x, name: str) -> np.ndarray:
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise InputError(f"{name} could not be converted to a float array") from err
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise InputError(f"{name} must be a 2-D sample array, got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InputError(f"{name} must contain at least one sample and one feature")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite values")
    return arr


def _gram_block(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Kernel values for one row block.

    Feature-axis reductions run as explicit rank-1 updates in ascending
    feature order so the result does not depend on the block shape.
    """
    n, d = X.shape
    m = Y.shape[0]
    if spec.kind in (LINEAR, POLYNOMIAL):
        acc = np.zeros((n, m))
        for t in range(d):
            acc += X[:, t, None] * Y[None, :, t]
        if spec.kind == LINEAR:
            return acc
        return (acc + spec.offset) ** int(spec.degree)
    if spec.kind == RBF:
        acc = np.zeros((n, m))
        for t in range(d):
            diff = X[:, t, None] - Y[None, :, t]
            acc += diff * diff
        return np.exp(-spec.gamma * acc)
    # histogram intersection
    acc = np.zeros((n, m))
    for t in range(d):
        acc += np.minimum(X[:, t, None], Y[None, :, t])
    return acc


def gram_matrix(spec: KernelSpec, X, Y=None, *, row_ids=None,
                col_ids=None) -> GramMatrix:
    """Kernel values between every row of ``X`` and every row of ``Y``.

    ``Y=None`` means ``Y = X``.
    """
    X = _as_samples(X, "X")
    Y = X if Y is None else _as_samples(Y, "Y")
    if X.shape[1] != Y.shape[1]:
        raise InputError(
            f"sample dimension mismatch: {X.shape[1]} vs {Y.shape[1]}"
        )
    if spec.kind == HISTOGRAM_INTERSECTION:
        if np.min(X) < 0 or np.min(Y) < 0:
            raise InputError("histogram intersection requires nonnegative features")
    values = _gram_block(spec, X, Y)
    if Y is X and col_ids is None:
        # both axes index the same samples; claim it so symmetry is checked
        col_ids = row_ids = tuple(row_ids) if row_ids else tuple(range(X.shape[0]))
    return GramMatrix(values, row_ids or (), col_ids or ())


def eval_kernel(spec: KernelSpec, x, y) -> float:
    """Kernel value for one sample pair.

    Runs the same core as ``gram_matrix`` on a 1x1 block, so the result is
    bit-identical to the corresponding gram entry.
    """
    X = _as_samples(x, "x")
    Y = _as_samples(y, "y")
    if X.shape[0] != 1 or Y.shape[0] != 1:
        raise InputError("eval_kernel expects single samples")
    if X.shape[1] != Y.shape[1]:
        raise InputError(
            f"sample dimension mismatch: {X.shape[1]} vs {Y.shape[1]}"
        )
    if spec.kind == HISTOGRAM_INTERSECTION:
        if np.min(X) < 0 or np.min(Y) < 0:
            raise InputError("histogram intersection requires nonnegative features")
    return float(_gram_block(spec, X, Y)[0, 0])
