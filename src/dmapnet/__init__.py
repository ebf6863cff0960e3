"""Deep kernel map networks.

Build multilayer kernel machines twice over: once implicitly as recursive
kernel combinations (``dkn``), once explicitly as finite-dimensional maps
obtained by eigendecomposing each unit's gram over a fixed anchor set
(``builder`` / ``model``).  The explicit side supports end-to-end supervised
fine-tuning (``training``), multi-label evaluation (``metrics``) and a
runtime comparison against the implicit dual form (``bench``).
"""

from .bench import BenchReport, BenchRow, run_bench
from .builder import (AnchorSet, ClipReport, EigenFactor, build_dmn,
                      eigen_projection, reconstruction_errors)
from .checks import finite_difference_gradients, gradient_check
from .data import (LabeledDataset, SyntheticSpec, generate_synthetic,
                   load_dataset, save_dataset)
from .dkn import (DknArchitecture, LayerSpec, default_architecture,
                  default_input_kernels, dkn_classify, dkn_pair, gram_layers,
                  load_architecture, random_mixing_weights)
from .errors import (ConfigError, DegenerateGramError, DmapnetError, FormatError,
                     GenerationError, InputError, NumericError, NumericRangeError,
                     TrainingDivergedError, VersionError)
from .kernels import GramMatrix, KernelSpec, eval_kernel, gram_matrix
from .metrics import EvalReport, evaluate, f_measure
from .model import (ClassifierHead, DmnModel, DmnUnit, classify, forward_batch,
                    input_kernel_rows, load_model, save_model, score_batch)
from .training import (TrainConfig, TrainLogEntry, backprop, cross_validate_C,
                       format_history, forward_trace, grad_output, objective,
                       svm_solve, train, train_with_guard)

__version__ = "0.1.0"

__all__ = [
    "AnchorSet", "BenchReport", "BenchRow", "ClassifierHead", "ClipReport",
    "ConfigError", "DegenerateGramError", "DknArchitecture", "DmapnetError",
    "DmnModel", "DmnUnit", "EigenFactor", "EvalReport", "FormatError",
    "GenerationError", "GramMatrix", "InputError", "KernelSpec",
    "LabeledDataset", "LayerSpec", "NumericError", "NumericRangeError",
    "SyntheticSpec", "TrainConfig", "TrainLogEntry", "TrainingDivergedError",
    "VersionError", "backprop", "build_dmn", "classify", "cross_validate_C",
    "default_architecture", "default_input_kernels", "dkn_classify",
    "dkn_pair", "eigen_projection", "eval_kernel", "evaluate", "f_measure",
    "finite_difference_gradients", "format_history", "forward_batch",
    "forward_trace", "generate_synthetic", "grad_output", "gradient_check",
    "gram_layers", "gram_matrix", "input_kernel_rows", "load_architecture",
    "load_dataset", "load_model", "objective", "random_mixing_weights",
    "reconstruction_errors", "run_bench", "save_dataset", "save_model",
    "score_batch", "svm_solve", "train", "train_with_guard",
]
