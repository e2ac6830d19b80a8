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

from .errors import DimensionError, InvalidEpsilon, InvalidInput, SingularMatrix
from .linalg import (
    DEFAULT_RANK_TOL,
    as_square_matrix,
    as_vector,
    pseudoinverse,
    solve,
    spectral_bounds,
)

DEFAULT_EPSILON = 1e-8


class Variant(enum.Enum):
    """Which diagonal-accelerator construction produced a quadratic gradient."""

    ORIGINAL = "original"  # reciprocal absolute row sums of a bound matrix
    NEW = "new"  # reciprocal |Newton step / gradient| ratios


@dataclass(frozen=True)
class DiagonalAccelerator:
    """Strictly positive diagonal that premultiplies a gradient."""

    diag: np.ndarray
    epsilon: float
    variant: Variant

    @property
    def dim(self) -> int:
        return self.diag.shape[0]


@dataclass(frozen=True)
class QuadraticGradient:
    """An accelerated gradient ``vector = accelerator.diag * g`` (elementwise)."""

    vector: np.ndarray
    accelerator: DiagonalAccelerator


@dataclass(frozen=True)
class NewtonRatios:
    """Per-coordinate ratios r with diag(r) @ g equal to the Newton step.

    ``used_pseudoinverse`` is True when the ratios came from the
    pseudoinverse fallback rather than an exact solve.
    """

    ratios: np.ndarray
    used_pseudoinverse: bool


def _check_epsilon(epsilon: float) -> float:
    if not epsilon > 0.0:
        raise InvalidEpsilon(f"epsilon must be > 0, got {epsilon}")
    return float(epsilon)


def bound_diagonal(hbar, epsilon: float = DEFAULT_EPSILON) -> DiagonalAccelerator:
    """Accelerator with entries 1 / (epsilon + sum_i |hbar_ji|).

    ``hbar`` is a Hessian bound matrix (or the Hessian itself); the row sums
    run over absolute values so the sign convention of the bound does not
    matter.
    """
    eps = _check_epsilon(epsilon)
    m = as_square_matrix(hbar)
    diag = 1.0 / (eps + np.sum(np.abs(m), axis=1))
    return DiagonalAccelerator(diag=diag, epsilon=eps, variant=Variant.ORIGINAL)


def quadratic_gradient(accelerator: DiagonalAccelerator, g) -> QuadraticGradient:
    """Elementwise product of an accelerator diagonal and a gradient."""
    grad = as_vector(g)
    if grad.shape[0] != accelerator.dim:
        raise DimensionError(
            f"accelerator dim {accelerator.dim} != gradient dim {grad.shape[0]}"
        )
    return QuadraticGradient(vector=accelerator.diag * grad, accelerator=accelerator)


def newton_ratios(h, g, rank_tol: float = DEFAULT_RANK_TOL) -> NewtonRatios:
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
    ratios = pseudoinverse(m * grad[np.newaxis, :], rank_tol) @ grad
    return NewtonRatios(ratios=ratios, used_pseudoinverse=True)


def ratio_diagonal(
    h,
    g,
    epsilon: float = DEFAULT_EPSILON,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> DiagonalAccelerator:
    """Accelerator with entries 1 / (epsilon + |r_i|) from the Newton ratios."""
    eps = _check_epsilon(epsilon)
    r = newton_ratios(h, g, rank_tol)
    diag = 1.0 / (eps + np.abs(r.ratios))
    return DiagonalAccelerator(diag=diag, epsilon=eps, variant=Variant.NEW)


def new_quadratic_gradient(
    h,
    g,
    epsilon: float = DEFAULT_EPSILON,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> QuadraticGradient:
    """Quadratic gradient with entries g_i / (epsilon + |r_i|).

    A zero ratio can only arise together with a zero gradient entry, so the
    guarded 1/epsilon accelerator entry never amplifies anything.
    """
    return quadratic_gradient(ratio_diagonal(h, g, epsilon, rank_tol), g)


def spectral_learning_rate(h, epsilon: float = DEFAULT_EPSILON) -> float:
    """1 / (epsilon + spectral radius of h), for a symmetric matrix h."""
    eps = _check_epsilon(epsilon)
    return 1.0 / (eps + spectral_bounds(h).spectral_radius)
