"""Quadratic-gradient optimization toolkit.

Diagonal Hessian accelerators (reciprocal row sums, and the Newton-ratio
accelerator with a pseudoinverse fallback for singular cases), the
spectral-radius learning rate, enhanced NAG / Adagrad / Adam optimizers, the
benchmark objective suite, and a CSV comparison harness.
"""

from .errors import (
    DimensionError,
    InvalidDimension,
    InvalidInput,
    InvalidMatrix,
    QuadGradError,
    SingularMatrix,
    UnknownFunction,
)
from .functions import (
    ObjectiveFunction,
    Sense,
    beale,
    booth,
    finite_difference_check,
    get_function,
    himmelblau,
    quadratic_counterexample,
    rosenbrock,
    standard_suite,
)
from .gradients import (
    NewtonRatios,
    Variant,
    bound_diagonal,
    new_quadratic_gradient,
    newton_ratios,
    ratio_diagonal,
    spectral_learning_rate,
)
from .linalg import (
    SpectralBounds,
    is_symmetric,
    pseudoinverse,
    solve,
    spectral_bounds,
)
from .optimizers import (
    Method,
    OptimizerConfig,
    OptimizerState,
    Trajectory,
    TrajectoryRecord,
    init_state,
    run,
    step_adam,
    step_enhanced_adagrad,
    step_gd_spectral,
    step_nag,
)
from .bench import (
    CsvTable,
    ExperimentSpec,
    experiment_adam_qg,
    experiment_lemma_lr,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "QuadGradError",
    "InvalidMatrix",
    "SingularMatrix",
    "DimensionError",
    "InvalidInput",
    "InvalidDimension",
    "UnknownFunction",
    "ObjectiveFunction",
    "Sense",
    "rosenbrock",
    "beale",
    "booth",
    "himmelblau",
    "quadratic_counterexample",
    "finite_difference_check",
    "get_function",
    "standard_suite",
    "NewtonRatios",
    "Variant",
    "bound_diagonal",
    "newton_ratios",
    "ratio_diagonal",
    "new_quadratic_gradient",
    "spectral_learning_rate",
    "SpectralBounds",
    "is_symmetric",
    "spectral_bounds",
    "solve",
    "pseudoinverse",
    "Method",
    "OptimizerConfig",
    "OptimizerState",
    "Trajectory",
    "TrajectoryRecord",
    "init_state",
    "run",
    "step_gd_spectral",
    "step_nag",
    "step_enhanced_adagrad",
    "step_adam",
    "CsvTable",
    "ExperimentSpec",
    "experiment_lemma_lr",
    "experiment_adam_qg",
    "run_experiment",
]
