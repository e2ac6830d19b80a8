"""Benchmark objectives with analytic value, gradient, and Hessian.

Each factory returns an :class:`ObjectiveFunction` whose derivatives were
worked out by hand from the standard formulas; ``finite_difference_check``
provides the independent cross-check used by the test suite.
"""

from __future__ import annotations

import enum
import numbers
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInput, UnknownFunction
from .linalg import as_vector


class Sense(enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


@dataclass(frozen=True, eq=False)
class ObjectiveFunction:
    """A scalar field with analytic first and second derivatives.

    ``known_optima`` lists (point, optimal value) pairs where the gradient
    vanishes and the recorded value is attained.
    """

    name: str
    dim: int
    sense: Sense
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    known_optima: tuple[tuple[np.ndarray, float], ...] = field(default_factory=tuple)


def rosenbrock(n: int) -> ObjectiveFunction:
    """n-dimensional Rosenbrock function.

    f(x) = sum_i 100*(x_{i+1} - x_i^2)^2 + (1 - x_i)^2.
    Minimum is at the all-ones vector, f = 0. InvalidInput unless n is an
    integer >= 2 for which numpy can allocate a length-n array.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise InvalidInput(f"rosenbrock needs an integer n, got {n!r}")
    if n < 2:
        raise InvalidInput(f"rosenbrock needs n >= 2, got {n}")
    try:
        optimum = np.ones(n)
    except (ValueError, MemoryError):  # numpy, or malloc, refuses the size: nothing allocated
        # named by its bit length: str(n) itself fails beyond 4300 digits
        raise InvalidInput(f"rosenbrock n is too large for an array: n >= "
                           f"2**{int(n).bit_length() - 1}") from None

    def value(x):
        x = np.asarray(x, dtype=float)
        head = x[:-1]
        return float((100.0 * (x[1:] - head ** 2) ** 2 + (1.0 - head) ** 2).sum())

    def gradient(x):
        x = np.asarray(x, dtype=float)
        head = x[:-1]
        g = np.zeros(n)
        d = x[1:] - head ** 2
        g[:-1] = -400.0 * head * d - 2.0 * (1.0 - head)
        g[1:] += 200.0 * d
        return g

    def hessian(x):
        x = np.asarray(x, dtype=float)
        h = np.zeros((n, n))
        # strided views of the diagonal, superdiagonal and subdiagonal
        flat = h.reshape(-1)
        diag = flat[:: n + 1]
        diag[:-1] = 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
        diag[1:] += 200.0
        off = -400.0 * x[:-1]
        flat[1 :: n + 1] = off
        flat[n :: n + 1] = off
        return h

    return ObjectiveFunction(
        name=f"rosenbrock:{n}",
        dim=n,
        sense=Sense.MINIMIZE,
        value=value,
        gradient=gradient,
        hessian=hessian,
        known_optima=((optimum, 0.0),),
    )


def beale() -> ObjectiveFunction:
    """Beale function. Minimum is at f(3, 0.5) = 0."""
    coeffs = (1.5, 2.25, 2.625)

    def residuals(x, y):
        return tuple(c + x * (y**k - 1.0) for k, c in enumerate(coeffs, start=1))

    def value(p):
        x, y = np.asarray(p, dtype=float)
        return float(sum(r * r for r in residuals(x, y)))

    def gradient(p):
        x, y = np.asarray(p, dtype=float)
        r = residuals(x, y)
        gx = sum(2.0 * r[k - 1] * (y**k - 1.0) for k in (1, 2, 3))
        gy = sum(2.0 * r[k - 1] * k * x * y ** (k - 1) for k in (1, 2, 3))
        return np.array([gx, gy])

    def hessian(p):
        x, y = np.asarray(p, dtype=float)
        r = np.array(residuals(x, y))
        # residual Jacobians and curvatures, row k - 1 for residual k; the
        # curvatures are written out per k to avoid 0 * y**-1 at y = 0
        jac = np.array([(y**k - 1.0, k * x * y ** (k - 1)) for k in (1, 2, 3)])
        curvatures = np.array([
            ((0.0, 1.0), (1.0, 0.0)),
            ((0.0, 2.0 * y), (2.0 * y, 2.0 * x)),
            ((0.0, 3.0 * y * y), (3.0 * y * y, 6.0 * x * y)),
        ])
        terms = 2.0 * (jac[:, :, None] * jac[:, None, :] + r[:, None, None] * curvatures)
        # summed into zeros in k order, so every entry keeps its expression tree
        h = np.zeros((2, 2))
        for term in terms:
            h += term
        return h

    return ObjectiveFunction(
        name="beale",
        dim=2,
        sense=Sense.MINIMIZE,
        value=value,
        gradient=gradient,
        hessian=hessian,
        known_optima=((np.array([3.0, 0.5]), 0.0),),
    )


def booth() -> ObjectiveFunction:
    """Booth function. Minimum is at f(1, 3) = 0; the Hessian is constant."""

    def value(p):
        x, y = np.asarray(p, dtype=float)
        return float((x + 2.0 * y - 7.0) ** 2 + (2.0 * x + y - 5.0) ** 2)

    def gradient(p):
        x, y = np.asarray(p, dtype=float)
        r1 = x + 2.0 * y - 7.0
        r2 = 2.0 * x + y - 5.0
        return np.array([2.0 * r1 + 4.0 * r2, 4.0 * r1 + 2.0 * r2])

    def hessian(p):
        return np.array([[10.0, 8.0], [8.0, 10.0]])

    return ObjectiveFunction(
        name="booth",
        dim=2,
        sense=Sense.MINIMIZE,
        value=value,
        gradient=gradient,
        hessian=hessian,
        known_optima=((np.array([1.0, 3.0]), 0.0),),
    )


# The two symmetric minima pairs below were refined from the usual literature
# seeds by Newton iteration on the gradient until float64 stationarity.
_HIMMELBLAU_OPTIMA = (
    (3.0, 2.0),
    (-2.805118086952745, 3.131312518250573),
    (-3.779310253377747, -3.2831859912861696),
    (3.5844283403304917, -1.8481265269644034),
)


def himmelblau() -> ObjectiveFunction:
    """Himmelblau function. Four minima with value 0, including f(3, 2)."""

    def value(p):
        x, y = np.asarray(p, dtype=float)
        return float((x * x + y - 11.0) ** 2 + (x + y * y - 7.0) ** 2)

    def gradient(p):
        x, y = np.asarray(p, dtype=float)
        r1 = x * x + y - 11.0
        r2 = x + y * y - 7.0
        return np.array([4.0 * x * r1 + 2.0 * r2, 2.0 * r1 + 4.0 * y * r2])

    def hessian(p):
        x, y = np.asarray(p, dtype=float)
        return np.array(
            [
                [12.0 * x * x + 4.0 * y - 42.0, 4.0 * x + 4.0 * y],
                [4.0 * x + 4.0 * y, 12.0 * y * y + 4.0 * x - 26.0],
            ]
        )

    return ObjectiveFunction(
        name="himmelblau",
        dim=2,
        sense=Sense.MINIMIZE,
        value=value,
        gradient=gradient,
        hessian=hessian,
        known_optima=tuple((np.array(p), 0.0) for p in _HIMMELBLAU_OPTIMA),
    )


def quadratic_counterexample() -> ObjectiveFunction:
    """Concave quadratic -2*x1^2 + 2*x1*x2 - x2^2, maximized at f(0, 0) = 0.

    Its constant Hessian [[-4, 2], [2, -2]] is the stock example for which
    the Newton-ratio accelerator breaks the Loewner bound condition.
    """

    def value(p):
        x1, x2 = np.asarray(p, dtype=float)
        return float(-2.0 * x1 * x1 + 2.0 * x1 * x2 - x2 * x2)

    def gradient(p):
        x1, x2 = np.asarray(p, dtype=float)
        return np.array([-4.0 * x1 + 2.0 * x2, 2.0 * x1 - 2.0 * x2])

    def hessian(p):
        return np.array([[-4.0, 2.0], [2.0, -2.0]])

    return ObjectiveFunction(
        name="quadratic-counterexample",
        dim=2,
        sense=Sense.MAXIMIZE,
        value=value,
        gradient=gradient,
        hessian=hessian,
        known_optima=((np.zeros(2), 0.0),),
    )


def as_point(x, f: ObjectiveFunction, name: str) -> np.ndarray:
    """``x`` as a float64 vector; InvalidInput, naming it ``name``, unless it has
    ``f.dim`` finite real entries."""
    x = as_vector(x)
    if x.shape[0] != f.dim:
        raise InvalidInput(f"{name} has dim {x.shape[0]}, objective needs {f.dim}")
    if not np.isfinite(x).all():
        raise InvalidInput(f"{name} must be finite")
    return x


def finite_difference_check(f: ObjectiveFunction, x) -> tuple[float, float]:
    """Max-norm discrepancy between analytic and central-difference derivatives.

    Returns ``(grad_err, hess_err)``: the gradient is differenced from the
    value, the Hessian from the analytic gradient, both with step 1e-5.
    InvalidInput unless ``f`` is an ObjectiveFunction and ``x`` a finite real
    vector of length ``f.dim``.
    """
    if not isinstance(f, ObjectiveFunction):
        raise InvalidInput(f"f must be an ObjectiveFunction, got {type(f).__name__}")
    h = 1e-5
    x = as_point(x, f, "x")
    n = x.shape[0]
    fd_grad = np.zeros(n)
    fd_hess = np.zeros((n, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        fd_grad[j] = (f.value(x + step) - f.value(x - step)) / (2.0 * h)
        fd_hess[:, j] = (f.gradient(x + step) - f.gradient(x - step)) / (2.0 * h)
    grad_err = float(np.max(np.abs(fd_grad - f.gradient(x))))
    hess_err = float(np.max(np.abs(fd_hess - f.hessian(x))))
    return grad_err, hess_err


_ROSENBROCK_ID = re.compile(r"^rosenbrock(?::(\d+))?$")

# Registry names of the fixed-dimension functions, in standard_suite's order
_FIXED_DIMENSION = {"beale": beale, "booth": booth, "himmelblau": himmelblau,
                    "quadratic-counterexample": quadratic_counterexample}


def get_function(function_id: str) -> ObjectiveFunction:
    """Look up a benchmark function by registry name.

    Accepted names: ``rosenbrock:<n>`` (bare ``rosenbrock`` means n=2),
    ``beale``, ``booth``, ``himmelblau``, ``quadratic-counterexample``.
    A name that is not a str, or an n too long for ``int()``, raises
    InvalidInput; any other unlisted name raises UnknownFunction.
    """
    if not isinstance(function_id, str):
        raise InvalidInput(f"function id must be a str, got {type(function_id).__name__}")
    match = _ROSENBROCK_ID.match(function_id)
    if match:
        try:
            n = int(match.group(1) or 2)
        except ValueError:  # beyond Python's limit on the digits int() converts
            raise InvalidInput(f"rosenbrock n has too many digits: {len(match.group(1))}") from None
        return rosenbrock(n)
    if function_id in _FIXED_DIMENSION:
        return _FIXED_DIMENSION[function_id]()
    raise UnknownFunction(f"no benchmark function named {function_id!r}")


def standard_suite() -> list[ObjectiveFunction]:
    """The five functions exercised by the test battery (Rosenbrock at n=2)."""
    return [rosenbrock(2), *(factory() for factory in _FIXED_DIMENSION.values())]
