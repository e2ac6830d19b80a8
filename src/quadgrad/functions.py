"""Benchmark objectives with analytic value, gradient, and Hessian.

Each factory returns an :class:`ObjectiveFunction` whose derivatives were
worked out by hand from the standard formulas; ``finite_difference_check``
provides the independent cross-check used by the test suite. ``_fixed_2d``
builds the four fixed 2-D objectives from their formulas in two floats.
Rosenbrock computes on Python floats up to ``_FLOAT_MAX_N`` dimensions, the
paper's sizes, where numpy's per-call set-up would cost more than the
arithmetic, and on numpy arrays above; both give the same bits.
"""

from __future__ import annotations

import enum
import math
import numbers
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInput, UnknownFunction
from .linalg import _max_abs, _quiet, as_vector


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


def _pow(v: float, k: int) -> float:
    """libm ``pow(v, k)`` as numpy calls it: a result beyond the float range is
    the signed inf, and a NaN goes to numpy, since ``**`` returns a NaN as it
    came where ``pow(-nan, 1)`` is ``+nan``."""
    if v != v:
        return float(np.float64(v) ** k)
    try:
        return v**k
    except OverflowError:
        return math.copysign(math.inf, v) if k % 2 else math.inf


def rosenbrock(n: int) -> ObjectiveFunction:
    """n-dimensional Rosenbrock function.

    f(x) = sum_i 100*(x_{i+1} - x_i^2)^2 + (1 - x_i)^2.
    Minimum is at the all-ones vector, f = 0. InvalidInput unless n is an
    integer >= 2 for which numpy can allocate a length-n array. Each callable
    raises ValueError unless its point's float64 form has shape (n,). Up to
    ``_FLOAT_MAX_N`` it computes on Python floats, with the bits of the numpy
    arrays it computes on above.
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
    value, gradient, hessian = (_rosenbrock_floats if n <= _FLOAT_MAX_N
                                else _rosenbrock_arrays)(n)
    return ObjectiveFunction(
        name=f"rosenbrock:{n}",
        dim=n,
        sense=Sense.MINIMIZE,
        value=value,
        gradient=gradient,
        hessian=hessian,
        known_optima=((optimum, 0.0),),
    )


# Rosenbrock computes on Python floats up to this n and on numpy arrays above,
# where a value, a gradient and a Hessian together cost less. The three per
# call (2 CPUs, Python 3.11.7, numpy 2.4.6, minimum of 9 repeats): at n=28
# floats won 6 of 8 runs, by 0.3-0.7 us of about 9.5 us; n=29-30 tied; at
# n=32 floats lost by 0.3-0.8 us; at n=2 floats take 2.4-2.6 us, arrays 9.5-10.2
_FLOAT_MAX_N = 28


def _rosenbrock_point(x, n: int) -> np.ndarray:
    """``x`` as float64; ValueError unless that has shape (n,)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"rosenbrock:{n} needs a point of shape ({n},), got shape {x.shape}")
    return x


def _tridiagonal(n: int, diag, off) -> np.ndarray:
    """The n x n matrix with ``diag`` on its diagonal and ``off`` on both of its neighbours,
    written through strided views of the flattened zeros; Rosenbrock's Hessian layout."""
    h = np.zeros((n, n))
    flat = h.reshape(-1)
    flat[:: n + 1] = diag
    flat[1 :: n + 1] = off
    flat[n :: n + 1] = off
    return h


def _rosenbrock_arrays(n: int):
    """Rosenbrock's value, gradient and Hessian at n on numpy arrays, each ``_quiet``."""

    @_quiet
    def value(x):
        x = _rosenbrock_point(x, n)
        head = x[:-1]
        # np.add.reduce is what .sum() calls after its Python-level wrapper
        return float(np.add.reduce(100.0 * (x[1:] - head ** 2) ** 2 + (1.0 - head) ** 2,
                                   axis=None))

    @_quiet
    def gradient(x):
        x = _rosenbrock_point(x, n)
        head = x[:-1]
        g = np.zeros(n)
        d = x[1:] - head ** 2
        g[:-1] = -400.0 * head * d - 2.0 * (1.0 - head)
        g[1:] += 200.0 * d
        return g

    @_quiet
    def hessian(x):
        x = _rosenbrock_point(x, n)
        d = np.zeros(n)
        d[:-1] = 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
        d[1:] += 200.0
        return _tridiagonal(n, d, -400.0 * x[:-1])

    return value, gradient, hessian


def _pairwise_sum(terms: list) -> float:
    """``np.add.reduce`` of fewer than 128 floats, in numpy's order: from 0.0,
    8 interleaved partial sums combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    when there are 8 terms or more, then the rest one by one."""
    total = 0.0
    head = len(terms) - len(terms) % 8
    if head:
        r0, r1, r2, r3, r4, r5, r6, r7 = terms[:8]
        for i in range(8, head, 8):
            t0, t1, t2, t3, t4, t5, t6, t7 = terms[i : i + 8]
            r0, r1, r2, r3 = r0 + t0, r1 + t1, r2 + t2, r3 + t3
            r4, r5, r6, r7 = r4 + t4, r5 + t5, r6 + t6, r7 + t7
        total += ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        terms = terms[head:]
    for term in terms:
        total += term
    return total


def _rosenbrock_floats(n: int):
    """Rosenbrock's value, gradient and Hessian at n on Python floats, with the
    bits of ``_rosenbrock_arrays(n)`` for n <= 128 and without its warnings.

    Each callable reads its point once as a list of floats. numpy's ``** 2`` on
    an array is ``a * a``, so every square here is too (Python's ``**`` is libm
    ``pow``); the value sums its terms in numpy's order (``_pairwise_sum``).
    Gradient and Hessian diagonal entry i adds the term that numpy's ``+=``
    adds from entry i - 1: the first entry adds -0.0, which changes no bit,
    and the last is 0.0 plus its term, as numpy adds it into zeros (which
    turns -0.0 into 0.0). Only a NaN can differ: where two NaNs of different
    bits meet in ``+`` or ``*``, CPython's specialised float operations return
    the first and numpy the second, as for ``_fixed_2d``. ``run()`` never
    evaluates a non-finite point.
    """

    def value(p):
        x = _rosenbrock_point(p, n).tolist()
        terms = []
        for a, b in zip(x, x[1:]):
            d = b - a * a
            e = 1.0 - a
            terms.append(100.0 * (d * d) + e * e)
        return _pairwise_sum(terms)

    def gradient(p):
        x = _rosenbrock_point(p, n).tolist()
        g = []
        carry = -0.0
        for a, b in zip(x, x[1:]):
            d = b - a * a
            g.append(-400.0 * a * d - 2.0 * (1.0 - a) + carry)
            carry = 200.0 * d
        g.append(0.0 + carry)
        return np.array(g)

    def hessian(p):
        x = _rosenbrock_point(p, n).tolist()
        diag, off = [], []
        carry = -0.0
        for a, b in zip(x, x[1:]):
            diag.append(1200.0 * (a * a) - 400.0 * b + 2.0 + carry)
            off.append(-400.0 * a)
            carry = 200.0
        diag.append(200.0)
        return _tridiagonal(n, diag, off)

    return value, gradient, hessian


def _fixed_2d(name, value, gradient, hessian, optima, sense=Sense.MINIMIZE) -> ObjectiveFunction:
    """An objective on R^2 from its formulas in two Python floats ``(x, y)``:
    ``value`` returns a float, ``gradient`` a tuple and ``hessian`` a tuple of
    tuples; the objective is 0 at each point of ``optima``.

    Each callable reads its point once as two Python floats (ValueError or
    TypeError unless it is two reals) and builds one float64 array. IEEE
    ``+ - *`` on Python floats give the bits numpy float64 scalars give, for
    a fraction of the cost and without warnings. Every power stays libm
    ``pow``, through ``_pow`` (``pow(v, 2)`` and ``v * v`` differ in the last
    bit on some doubles). Only a NaN can differ: where two NaNs of different
    bits meet in ``+`` or ``*``, CPython's specialised float operations
    return the first and numpy the second.
    """

    def reading(formula, build):
        def call(p):
            x, y = np.asarray(p, dtype=float).tolist()
            return build(formula(x, y))
        return call

    return ObjectiveFunction(name=name, dim=2, sense=sense, value=reading(value, float),
                             gradient=reading(gradient, np.array),
                             hessian=reading(hessian, np.array),
                             known_optima=tuple((np.array(point), 0.0) for point in optima))


def beale() -> ObjectiveFunction:
    """Beale function, sum_k r_k^2 with r_k = c_k + x * (y^k - 1) for k = 1, 2, 3
    and c = (1.5, 2.25, 2.625). Minimum is at f(3, 0.5) = 0."""

    def residuals(x, y):
        """(k, y**(k - 1), y**k - 1, r_k) for each residual k = 1, 2, 3."""
        y0, y1, y2, y3 = _pow(y, 0), _pow(y, 1), _pow(y, 2), _pow(y, 3)
        u1, u2, u3 = y1 - 1.0, y2 - 1.0, y3 - 1.0
        return ((1, y0, u1, 1.5 + x * u1), (2, y1, u2, 2.25 + x * u2),
                (3, y2, u3, 2.625 + x * u3))

    def value(x, y):
        total = 0.0
        for _, _, _, r in residuals(x, y):
            total += r * r
        return total

    def gradient(x, y):
        gx = gy = 0.0
        for k, below, u, r in residuals(x, y):
            gx += 2.0 * r * u
            gy += 2.0 * r * k * x * below
        return gx, gy

    def hessian(x, y):
        # residual k's curvature is ((0, b), (b, d)), written out per k to avoid
        # 0 * y**-1 at y = 0; its Jacobian is (u, v)
        curvatures = ((1.0, 0.0), (2.0 * y, 2.0 * x), (3.0 * y * y, 6.0 * x * y))
        hxx = hxy = hyx = hyy = 0.0
        for (k, below, u, r), (b, d) in zip(residuals(x, y), curvatures):
            v = k * x * below
            # 2 * (jac jac^T + r * curvature), summed from 0.0 in k order
            hxx += 2.0 * (u * u + r * 0.0)
            hxy += 2.0 * (u * v + r * b)
            hyx += 2.0 * (v * u + r * b)
            hyy += 2.0 * (v * v + r * d)
        return (hxx, hxy), (hyx, hyy)

    return _fixed_2d("beale", value, gradient, hessian, [(3.0, 0.5)])


def booth() -> ObjectiveFunction:
    """Booth function. Minimum is at f(1, 3) = 0; the Hessian is constant."""

    def gradient(x, y):
        r1 = x + 2.0 * y - 7.0
        r2 = 2.0 * x + y - 5.0
        return 2.0 * r1 + 4.0 * r2, 4.0 * r1 + 2.0 * r2

    return _fixed_2d("booth",
                     lambda x, y: _pow(x + 2.0 * y - 7.0, 2) + _pow(2.0 * x + y - 5.0, 2),
                     gradient, lambda x, y: ((10.0, 8.0), (8.0, 10.0)), [(1.0, 3.0)])


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

    def gradient(x, y):
        r1 = x * x + y - 11.0
        r2 = x + y * y - 7.0
        return 4.0 * x * r1 + 2.0 * r2, 2.0 * r1 + 4.0 * y * r2

    def hessian(x, y):
        return ((12.0 * x * x + 4.0 * y - 42.0, 4.0 * x + 4.0 * y),
                (4.0 * x + 4.0 * y, 12.0 * y * y + 4.0 * x - 26.0))

    return _fixed_2d("himmelblau",
                     lambda x, y: _pow(x * x + y - 11.0, 2) + _pow(x + y * y - 7.0, 2),
                     gradient, hessian, _HIMMELBLAU_OPTIMA)


def quadratic_counterexample() -> ObjectiveFunction:
    """Concave quadratic -2*x1^2 + 2*x1*x2 - x2^2, maximized at f(0, 0) = 0.

    Its constant Hessian [[-4, 2], [2, -2]] is the stock example for which
    the Newton-ratio accelerator breaks the Loewner bound condition.
    """
    return _fixed_2d(
        "quadratic-counterexample",
        lambda x1, x2: -2.0 * x1 * x1 + 2.0 * x1 * x2 - x2 * x2,
        lambda x1, x2: (-4.0 * x1 + 2.0 * x2, 2.0 * x1 - 2.0 * x2),
        lambda x1, x2: ((-4.0, 2.0), (2.0, -2.0)),
        [(0.0, 0.0)],
        Sense.MAXIMIZE,
    )


def as_point(x, f: ObjectiveFunction, name: str) -> np.ndarray:
    """``x`` as a float64 vector; InvalidInput unless ``f`` is an ObjectiveFunction
    and ``x``, named ``name`` in the message, has ``f.dim`` finite real entries."""
    if not isinstance(f, ObjectiveFunction):
        raise InvalidInput(f"f must be an ObjectiveFunction, got {type(f).__name__}")
    x = as_vector(x)
    if x.shape[0] != f.dim:
        raise InvalidInput(f"{name} has dim {x.shape[0]}, objective needs {f.dim}")
    if not math.isfinite(_max_abs(x)):
        raise InvalidInput(f"{name} must be finite")
    return x


@_quiet
def finite_difference_check(f: ObjectiveFunction, x) -> tuple[float, float]:
    """Max-norm discrepancy between analytic and central-difference derivatives.

    Returns ``(grad_err, hess_err)``: the gradient is differenced from the
    value, the Hessian from the analytic gradient, both with step 1e-5.
    ``as_point`` checks ``f`` and ``x``: InvalidInput unless ``f`` is an
    ObjectiveFunction and ``x`` a finite real vector of length ``f.dim``.
    Nothing warns, ``f``'s own evaluations included; where they overflow the
    errors are inf or NaN.
    """
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
    return _max_abs(fd_grad - f.gradient(x)), _max_abs(fd_hess - f.hessian(x))


_ROSENBROCK_ID = re.compile(r"rosenbrock(?::([0-9]+))?")

# Registry names of the fixed-dimension functions, in standard_suite's order
_FIXED_DIMENSION = {"beale": beale, "booth": booth, "himmelblau": himmelblau,
                    "quadratic-counterexample": quadratic_counterexample}


def get_function(function_id: str) -> ObjectiveFunction:
    """Look up a benchmark function by registry name.

    Accepted names: ``rosenbrock:<n>`` (bare ``rosenbrock`` means n=2),
    ``beale``, ``booth``, ``himmelblau``, ``quadratic-counterexample``.
    An id is matched whole, and n is written in ASCII digits. A name that
    is not a str, or an n too long for ``int()``, raises InvalidInput; any
    other unlisted name raises UnknownFunction.
    """
    if not isinstance(function_id, str):
        raise InvalidInput(f"function id must be a str, got {type(function_id).__name__}")
    match = _ROSENBROCK_ID.fullmatch(function_id)
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
