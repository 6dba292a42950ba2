"""Exact Toeplitz quantization of the free *-algebra on 2n generators."""

from .freealg import (
    AlgebraElement,
    Scalar,
    swap_alphabet,
    theta_word,
    word_star,
)
from .form import WeightSystem, parse_weight_config
from .kernel import KERNEL_IMPL
from .matrixrep import (
    OperatorMatrix,
    TruncatedSpace,
    adjoint_defect,
    commutator_matrix,
    matrix_of,
)
from .projection import project, project_oracle, project_word
from .scanproj import (
    LeftRightRightmost,
    ScanOutcome,
    Stochastic,
    monte_carlo_mean,
    random_toeplitz_apply,
    scan_project,
)
from .toeplitz import (
    ToeplitzOperator,
    annihilation,
    check_adjoint,
    check_compatibility,
    creation,
    reproduce_counterexamples,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "KERNEL_IMPL",
    "LeftRightRightmost",
    "OperatorMatrix",
    "ScanOutcome",
    "Scalar",
    "Stochastic",
    "ToeplitzOperator",
    "TruncatedSpace",
    "WeightSystem",
    "adjoint_defect",
    "annihilation",
    "check_adjoint",
    "check_compatibility",
    "commutator_matrix",
    "creation",
    "matrix_of",
    "monte_carlo_mean",
    "parse_weight_config",
    "project",
    "project_oracle",
    "project_word",
    "random_toeplitz_apply",
    "reproduce_counterexamples",
    "scan_project",
    "swap_alphabet",
    "theta_word",
    "word_star",
]
