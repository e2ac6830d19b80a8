"""Quadratic gradients: diagonal accelerators built from second-order information.

Two constructions are provided. The original one takes the reciprocal
absolute row sums of a Hessian bound matrix; the newer one inverts the
per-coordinate ratios between the Newton step and the gradient, falling
back to a Moore-Penrose pseudoinverse when those ratios are not directly
solvable. Both yield a positive diagonal that rescales the gradient
elementwise, plus there is a scalar spectral learning rate for plain
gradient descent. The accelerators are ``linalg._quiet``: none warns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, SingularMatrix
from .linalg import (_max_abs, _quiet, as_square_matrix, as_vector, pseudoinverse, solve,
                     spectral_bounds)

# Guards every 1/(EPSILON + ...) against division by zero; not a tuning knob.
EPSILON = 1e-8

# Rows per block of the absolute row sums: each block's |.| temporary is
# 64 rows, not a copy of the whole matrix.
_ROW_BLOCK = 64


class Variant(enum.Enum):
    """Which diagonal accelerator an enhanced Adam run applies to its gradient."""

    ORIGINAL = "original"  # reciprocal absolute row sums of a bound matrix
    NEW = "new"  # reciprocal |Newton step / gradient| ratios


@dataclass(frozen=True, slots=True)
class NewtonRatios:
    """Per-coordinate ratios r with diag(r) @ g equal to the Newton step.

    ``used_pseudoinverse`` is True when the ratios came from the
    pseudoinverse fallback rather than an exact solve.
    """

    ratios: np.ndarray
    used_pseudoinverse: bool


def _abs_row_sums(m: np.ndarray) -> np.ndarray:
    """``np.sum(np.abs(m), axis=1)`` without an n x n temporary, same bits; ``np.add.reduce``
    is the call ``sum`` makes after its Python-level wrapper.

    A C-ordered row is reduced the same way alone or inside the whole
    matrix, so summing blocks of rows changes nothing. Other layouts keep
    the one-shot sum: there a one-row tail block would be reduced pairwise
    where the whole matrix is reduced sequentially, and the last bit differs.
    """
    if m.shape[0] <= _ROW_BLOCK or not m.flags.c_contiguous:
        return np.add.reduce(abs(m), axis=1)
    sums = np.empty(m.shape[0])
    for i in range(0, m.shape[0], _ROW_BLOCK):
        rows = slice(i, i + _ROW_BLOCK)
        np.add.reduce(abs(m[rows]), axis=1, out=sums[rows])
    return sums


@_quiet
def bound_diagonal(hbar) -> np.ndarray:
    """Accelerator diagonal with entries 1 / (EPSILON + sum_i |hbar_ji|).

    ``hbar`` is a Hessian bound matrix (or the Hessian itself); the row sums
    run over absolute values so the sign convention of the bound does not
    matter. A C-ordered matrix is summed in blocks of rows, so no copy of it
    is made. An inf or NaN entry, or a row sum that overflows, raises
    InvalidInput, without a RuntimeWarning: that row's entry would be a silent 0 or NaN.
    """
    sums = _abs_row_sums(as_square_matrix(hbar))
    # the max norm is NaN or inf if a sum is: one test for both
    if not math.isfinite(_max_abs(sums)):
        raise InvalidInput("bound_diagonal requires finite row sums of |hbar|")
    return 1.0 / (EPSILON + sums)


@_quiet
def newton_ratios(h, g) -> NewtonRatios:
    """Ratios r such that diag(r) @ g reproduces the Newton step solve(h, g).

    Every call starts with ``solve(h, g)``, whose check is the only one of ``h`` and ``g``:
    bad input raises its InvalidInput, the same on both branches. When no gradient entry is
    zero and ``h`` is not singular, r_i = solve(h, g)_i / g_i exactly. Otherwise r comes from
    the pseudoinverse of h @ diag(g), built from the matrix ``solve`` accepted, which agrees
    with the exact form whenever both exist; ``pseudoinverse`` refuses an h @ diag(g) that
    overflows. A ratio that overflows (a subnormal g_i can) is inf, without a RuntimeWarning.
    """
    grad = as_vector(g)
    try:
        step = solve(h, grad)
        # no zero entry (NaN is nonzero: solve refused it); cheaper than grad.all()
        if np.count_nonzero(grad) == grad.shape[0]:
            return NewtonRatios(ratios=step / grad, used_pseudoinverse=False)
    except SingularMatrix:
        pass
    # finite operands: only an overflow leaves an inf, which pseudoinverse refuses
    product = as_square_matrix(h) * grad[np.newaxis, :]
    return NewtonRatios(ratios=pseudoinverse(product) @ grad, used_pseudoinverse=True)


@_quiet
def new_quadratic_gradient(h, g) -> np.ndarray:
    """Quadratic gradient with entries g_i / (EPSILON + |r_i|), r the Newton ratios.

    ``newton_ratios`` checks ``h`` and ``g``, so ``g`` enters the product as
    given: any real dtype it accepts gives the float64 bits.
    Each accelerator entry is at most 1/EPSILON, so |G_i| <= |g_i| / EPSILON, reached
    when r_i = 0 and g_i != 0: whenever the Newton step's i-th entry (h^-1 g)_i is 0,
    whatever g_i is. h = [[2, 1], [1, 1]] and g = (1, 1) give h^-1 g = (0, 1) and
    G = (1e8, 0.99999999); g = (1, 1 + 1e-9) still gives G_1 = 9.09e7.
    """
    return 1.0 / (EPSILON + np.abs(newton_ratios(h, g).ratios)) * g


def spectral_learning_rate(h) -> float:
    """1 / (EPSILON + spectral radius of h), for a symmetric matrix h."""
    return 1.0 / (EPSILON + spectral_bounds(h).spectral_radius)
