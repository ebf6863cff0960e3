"""Exception types shared across the package.

Two broad families matter to callers: ``InputError`` covers anything wrong
with user-supplied data or configuration, ``NumericError`` covers failures
of the arithmetic itself (overflow, degenerate spectra, divergence).  The
command-line driver maps the first family to exit code 1 and the second to
exit code 2.
"""


class DmapnetError(Exception):
    """Base class for all library errors."""


class InputError(DmapnetError, ValueError):
    """Invalid user-supplied data (shapes, values, domains)."""


class ConfigError(InputError):
    """Inconsistent architecture or run configuration."""


class FormatError(InputError):
    """Malformed dataset or model file."""


class VersionError(FormatError):
    """Model file written by an unknown, newer format version."""


class GenerationError(InputError):
    """Synthetic data generation could not satisfy the label constraints."""


class NumericError(DmapnetError, ArithmeticError):
    """Numerical failure during construction, inference or training."""


class DegenerateGramError(NumericError):
    """Every eigenvalue of a gram matrix fell below the clip threshold."""


class NumericRangeError(NumericError):
    """An intermediate value left the representable range."""


class BuildError(NumericError):
    """Map construction failed; the message names the layer and unit."""


class TrainingDivergedError(NumericError):
    """Training could not go on: the first evaluation failed, or a step was
    still rejected after the last allowed halving of the learning rate.

    Carries the last accepted model, head and history so callers can recover
    something useful from a partially completed run; the model and head are
    None when no iteration was accepted.
    """

    def __init__(self, message, model=None, head=None, history=None):
        super().__init__(message)
        self.model = model
        self.head = head
        self.history = history if history is not None else []
