"""Dense linear algebra: symmetric eigenvalue extremes, pivoted solve, pseudoinverse.

Everything here works on plain float64 numpy arrays: matrices are square
(n, n) arrays, vectors are (n,) arrays. The heavy lifting is delegated to
LAPACK through numpy/scipy; this module adds the validation and error
contracts the rest of the package relies on. Tridiagonal input to
``spectral_bounds`` skips the dense reduction and gives the same bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, InvalidMatrix, SingularMatrix

DEFAULT_SYMMETRY_TOL = 1e-9
DEFAULT_PIVOT_TOL = 1e-12
DEFAULT_RANK_TOL = 1e-12

# LAPACK dsyevd rescales a matrix whose largest lower-triangle entry lies
# outside [_RMIN, _RMAX] (sqrt(safe minimum / precision) and its inverse)
# before reducing it; dsterf alone matches its bits only inside that range.
_RMIN = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)
_RMAX = 1.0 / _RMIN


@dataclass(frozen=True)
class SpectralBounds:
    """Extreme eigenvalues of a symmetric matrix.

    ``spectral_radius`` is ``max(|lambda_min|, |lambda_max|)``.
    """

    lambda_min: float
    lambda_max: float
    spectral_radius: float


def as_square_matrix(a) -> np.ndarray:
    """Coerce to a float64 square matrix, raising InvalidMatrix otherwise."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidMatrix(f"expected a square matrix, got shape {m.shape}")
    return m


def as_vector(v) -> np.ndarray:
    """Coerce to a float64 vector, raising DimensionError otherwise."""
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.shape[0] < 1:
        raise DimensionError(f"expected a vector, got shape {x.shape}")
    return x


def is_symmetric(a, tol: float = DEFAULT_SYMMETRY_TOL) -> bool:
    """True when |a_ij - a_ji| <= tol * (1 + max|a|) for all entries."""
    m = as_square_matrix(a)
    scale = 1.0 + np.max(np.abs(m), initial=0.0)
    return bool(np.max(np.abs(m - m.T), initial=0.0) <= tol * scale)


def _tridiagonal_eigenvalues(m: np.ndarray, tol: float) -> np.ndarray | None:
    """Ascending eigenvalues of a finite tridiagonal ``m``; None for other input.

    ``np.linalg.eigvalsh`` (LAPACK dsyevd on the lower triangle) reduces the
    matrix to tridiagonal form and hands it to dsterf. On tridiagonal input
    that reduction changes nothing, so calling dsterf on the diagonal and
    the subdiagonal returns the same bits without the O(n^3) reduction.
    Declines (None) when a nonzero lies off the three central diagonals or
    dsyevd would rescale. Applies the test of ``is_symmetric`` to the
    off-diagonals and raises InvalidMatrix as ``spectral_bounds`` does.
    """
    d = m.diagonal()
    if d.shape[0] == 1:
        # dsyevd returns the entry itself; the dsterf wrapper rejects n = 1
        return d.copy()
    lower = m.diagonal(-1)
    upper = m.diagonal(1)
    if np.count_nonzero(m) != (
        np.count_nonzero(d) + np.count_nonzero(lower) + np.count_nonzero(upper)
    ):
        return None
    anrm = max(abs(d).max(), abs(lower).max())
    if anrm > _RMAX or 0.0 < anrm < _RMIN:
        return None
    scale = 1.0 + max(anrm, abs(upper).max())
    if not abs(lower - upper).max() <= tol * scale:
        raise InvalidMatrix("matrix is not symmetric within tolerance")
    eigenvalues, info = scipy.linalg.lapack.dsterf(d, lower)
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return eigenvalues


def spectral_bounds(h, tol: float = DEFAULT_SYMMETRY_TOL) -> SpectralBounds:
    """Smallest and largest eigenvalue of a symmetric matrix.

    Raises InvalidMatrix for non-finite entries or asymmetry beyond ``tol``.
    A tridiagonal matrix takes LAPACK dsterf directly; the result is
    identical to ``np.linalg.eigvalsh``.
    """
    m = as_square_matrix(h)
    if not np.isfinite(m).all():
        raise InvalidMatrix("matrix has non-finite entries")
    eigenvalues = _tridiagonal_eigenvalues(m, tol)
    if eigenvalues is None:
        if not is_symmetric(m, tol):
            raise InvalidMatrix("matrix is not symmetric within tolerance")
        eigenvalues = np.linalg.eigvalsh(m)
    lo = float(eigenvalues[0])
    hi = float(eigenvalues[-1])
    return SpectralBounds(lo, hi, max(abs(lo), abs(hi)))


def solve(a, b, tol: float = DEFAULT_PIVOT_TOL) -> np.ndarray:
    """Solve ``a @ x = b`` by partially pivoted LU.

    Raises SingularMatrix when any pivot falls below ``tol * max|a|``,
    signalling the caller to switch to the pseudoinverse path.
    """
    m = as_square_matrix(a)
    rhs = as_vector(b)
    if rhs.shape[0] != m.shape[0]:
        raise DimensionError(
            f"matrix order {m.shape[0]} does not match vector length {rhs.shape[0]}"
        )
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(rhs))):
        raise InvalidMatrix("solve requires finite inputs")
    with warnings.catch_warnings():
        # zero pivots are an expected condition here; we raise SingularMatrix
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if np.min(pivots) < tol * max(np.max(np.abs(m)), np.finfo(float).tiny):
        raise SingularMatrix("pivot below tolerance; matrix is numerically singular")
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


def pseudoinverse(a, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``rank_tol * sigma_max * order`` are treated as
    zero. The result satisfies the four Penrose conditions to roundoff.
    """
    m = as_square_matrix(a)
    if not np.all(np.isfinite(m)):
        raise InvalidMatrix("pseudoinverse requires finite entries")
    u, sigma, vt = np.linalg.svd(m)
    if sigma[0] == 0.0:
        return np.zeros_like(m.T)
    cutoff = rank_tol * sigma[0] * m.shape[0]
    inv_sigma = np.zeros_like(sigma)
    keep = sigma > cutoff
    inv_sigma[keep] = 1.0 / sigma[keep]
    return (vt.T * inv_sigma) @ u.T
