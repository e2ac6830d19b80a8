"""Quadratic-gradient optimization toolkit.

Diagonal Hessian accelerators (reciprocal row sums, and the Newton-ratio
accelerator with a pseudoinverse fallback for singular cases), the
spectral-radius learning rate, enhanced NAG / Adagrad / Adam optimizers, the
benchmark objective suite, and a CSV comparison harness.
"""

from .errors import InvalidInput, QuadGradError, SingularMatrix, UnknownFunction
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
    Trajectory,
    TrajectoryRecord,
    run,
)

__version__ = "0.1.0"

_BENCH_NAMES = {"bench", "CsvTable", "experiment_adam_qg", "experiment_lemma_lr",
                "run_experiment"}


def __getattr__(name):
    # bench is imported at first use, not with the package, so that
    # ``python -m quadgrad.bench`` finds it absent and executes it only once
    if name not in _BENCH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import quadgrad.bench as bench
    return bench if name == "bench" else getattr(bench, name)

__all__ = [
    "QuadGradError",
    "SingularMatrix",
    "InvalidInput",
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
    "Trajectory",
    "TrajectoryRecord",
    "run",
    "CsvTable",
    "experiment_lemma_lr",
    "experiment_adam_qg",
    "run_experiment",
]
