"""Quadratic gradients: diagonal accelerators built from second-order information.

Two constructions are provided. The original one takes the reciprocal
absolute row sums of a Hessian bound matrix; the newer one inverts the
per-coordinate ratios between the Newton step and the gradient, falling
back to a Moore-Penrose pseudoinverse when those ratios are not directly
solvable. Both yield a positive diagonal that rescales the gradient
elementwise, plus there is a scalar spectral learning rate for plain
gradient descent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInput, SingularMatrix
from .linalg import as_square_matrix, as_vector, pseudoinverse, solve, spectral_bounds

# Guards every 1/(EPSILON + ...) against division by zero; not a tuning knob.
EPSILON = 1e-8

# Rows per block of the absolute row sums: each block's |.| temporary is
# 64 rows, not a copy of the whole matrix.
_ROW_BLOCK = 64


class Variant(enum.Enum):
    """Which diagonal accelerator an enhanced Adam run applies to its gradient."""

    ORIGINAL = "original"  # reciprocal absolute row sums of a bound matrix
    NEW = "new"  # reciprocal |Newton step / gradient| ratios


@dataclass(frozen=True)
class NewtonRatios:
    """Per-coordinate ratios r with diag(r) @ g equal to the Newton step.

    ``used_pseudoinverse`` is True when the ratios came from the
    pseudoinverse fallback rather than an exact solve.
    """

    ratios: np.ndarray
    used_pseudoinverse: bool


def _abs_row_sums(m: np.ndarray) -> np.ndarray:
    """``np.sum(np.abs(m), axis=1)`` without an n x n temporary, same bits.

    A C-ordered row is reduced the same way alone or inside the whole
    matrix, so summing blocks of rows changes nothing. Other layouts keep
    the one-shot sum: there a one-row tail block would be reduced pairwise
    where the whole matrix is reduced sequentially, and the last bit differs.
    """
    if m.shape[0] <= _ROW_BLOCK or not m.flags.c_contiguous:
        return np.sum(np.abs(m), axis=1)
    sums = np.empty(m.shape[0])
    for i in range(0, m.shape[0], _ROW_BLOCK):
        rows = slice(i, i + _ROW_BLOCK)
        np.sum(np.abs(m[rows]), axis=1, out=sums[rows])
    return sums


def bound_diagonal(hbar) -> np.ndarray:
    """Accelerator diagonal with entries 1 / (EPSILON + sum_i |hbar_ji|).

    ``hbar`` is a Hessian bound matrix (or the Hessian itself); the row sums
    run over absolute values so the sign convention of the bound does not
    matter. A C-ordered matrix is summed in blocks of rows, so no copy of it
    is made.
    """
    return 1.0 / (EPSILON + _abs_row_sums(as_square_matrix(hbar)))


def newton_ratios(h, g) -> NewtonRatios:
    """Ratios r such that diag(r) @ g reproduces the Newton step solve(h, g).

    When ``h`` is invertible and no gradient entry is zero this is computed
    exactly as r_i = solve(h, g)_i / g_i. Otherwise r comes from the
    pseudoinverse of h @ diag(g), which agrees with the exact form whenever
    both exist.
    """
    m = as_square_matrix(h)
    grad = as_vector(g)
    if grad.shape[0] != m.shape[0]:
        raise DimensionError(
            f"matrix order {m.shape[0]} != gradient dim {grad.shape[0]}"
        )
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(grad))):
        raise InvalidInput("newton_ratios requires finite inputs")
    if np.all(grad != 0.0):
        try:
            return NewtonRatios(ratios=solve(m, grad) / grad, used_pseudoinverse=False)
        except SingularMatrix:
            pass
    ratios = pseudoinverse(m * grad[np.newaxis, :]) @ grad
    return NewtonRatios(ratios=ratios, used_pseudoinverse=True)


def ratio_diagonal(h, g) -> np.ndarray:
    """Accelerator diagonal with entries 1 / (EPSILON + |r_i|) from the Newton ratios."""
    return 1.0 / (EPSILON + np.abs(newton_ratios(h, g).ratios))


def new_quadratic_gradient(h, g) -> np.ndarray:
    """Quadratic gradient with entries g_i / (EPSILON + |r_i|).

    A zero ratio can only arise together with a zero gradient entry, so the
    guarded 1/EPSILON accelerator entry never amplifies anything.
    """
    return ratio_diagonal(h, g) * as_vector(g)


def spectral_learning_rate(h) -> float:
    """1 / (EPSILON + spectral radius of h), for a symmetric matrix h."""
    return 1.0 / (EPSILON + spectral_bounds(h).spectral_radius)
