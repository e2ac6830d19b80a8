"""Dense linear algebra: symmetric eigenvalue extremes, pivoted solve, pseudoinverse.

Everything here works on plain float64 numpy arrays: matrices are square
(n, n) arrays, vectors are (n,) arrays. The heavy lifting is delegated to
LAPACK through numpy and scipy; this module adds the validation and error
contracts the rest of the package relies on. Tridiagonal input to
``spectral_bounds`` skips the dense reduction and gives the same bits.

The three scipy LAPACK routines used here (``dsterf``, ``dgetrf``,
``dgetrs``) come from scipy's compiled wrapper module
``scipy/linalg/_flapack``, loaded by file under the private name
``quadgrad._flapack``: importing ``scipy.linalg`` for them would run the
whole package, which took most of the start-up time of ``import quadgrad``.
``scipy.linalg.lapack`` re-exports the same routines from that module, so
the results are the same bits; it is the fallback when the file is not
found. scipy's own import state is left alone: a later ``import
scipy.linalg`` loads its ``_flapack`` as usual.
"""

from __future__ import annotations

import importlib.util
import math
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .errors import InvalidInput, SingularMatrix

SYMMETRY_TOL = 1e-9
PIVOT_TOL = 1e-12
RANK_TOL = 1e-12

# LAPACK dsyevd rescales a matrix whose largest lower-triangle entry lies
# outside [1/_RMAX, _RMAX] (_RMAX = sqrt(precision / safe minimum) = 2**485)
# before reducing it; dsterf alone matches its bits only inside that range.
_TINY = np.finfo(float).tiny
_RMAX = math.sqrt(np.finfo(float).eps / _TINY)


def _load_lapack():
    """scipy's compiled LAPACK wrappers, without importing ``scipy.linalg``.

    ``find_spec("scipy")`` locates the package without running it; the
    private module name keeps ``scipy.linalg._flapack`` for scipy to import.
    """
    linalg_dir = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0],
                              "linalg")
    finder = FileFinder(linalg_dir, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("quadgrad._flapack")
    if spec is None:
        from scipy.linalg import lapack

        return lapack
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_lapack = _load_lapack()


@dataclass(frozen=True)
class SpectralBounds:
    """Extreme eigenvalues of a symmetric matrix."""

    lambda_min: float
    lambda_max: float

    @property
    def spectral_radius(self) -> float:
        """``max(|lambda_min|, |lambda_max|)``."""
        return max(abs(self.lambda_min), abs(self.lambda_max))


def _as_float_array(a) -> np.ndarray:
    """``a`` as a float64 array; InvalidInput unless it holds bool, integer or
    float numbers (complex input is refused, not cast under a ComplexWarning)."""
    try:
        arr = np.asarray(a)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise InvalidInput(f"expected real numbers: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise InvalidInput(f"expected real numbers, got dtype {arr.dtype}")
    return np.asarray(arr, dtype=float)


def as_square_matrix(a) -> np.ndarray:
    """Coerce to a float64 square matrix, raising InvalidInput otherwise."""
    m = _as_float_array(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    return m


def as_vector(v) -> np.ndarray:
    """Coerce to a float64 vector, raising InvalidInput otherwise."""
    x = _as_float_array(v)
    if x.ndim != 1 or x.shape[0] < 1:
        raise InvalidInput(f"expected a vector, got shape {x.shape}")
    return x


def _max_abs(m: np.ndarray, who: str) -> float:
    """max|m| of a non-empty array; InvalidInput naming ``who`` if an entry is NaN or
    infinite, which the maximum or the minimum then is. Both are tested before ``max``
    sees them: with a NaN argument its result depends on the argument order.
    ``np.maximum.reduce`` is ``m.max()`` without numpy's Python-level wrapper."""
    hi, lo = np.maximum.reduce(m, axis=None), np.minimum.reduce(m, axis=None)
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise InvalidInput(f"{who} requires finite inputs")
    return max(hi, -lo)


def _tridiagonal_eigenvalues(m: np.ndarray, max_abs: float) -> np.ndarray | None:
    """Ascending eigenvalues of a finite tridiagonal ``m``; None for other input.

    ``np.linalg.eigvalsh`` (LAPACK dsyevd on the lower triangle) reduces the
    matrix to tridiagonal form and hands it to dsterf. On tridiagonal input
    that reduction changes nothing, so calling dsterf on the diagonal and
    the subdiagonal returns the same bits without the O(n^3) reduction.
    Declines (None) at n = 1, which the dsterf wrapper rejects, when a nonzero lies off the three
    central diagonals (never at n = 2, so the count is skipped there), when ``max_abs`` (max|m|)
    is outside [2 * SYMMETRY_TOL, _RMAX], or when the off-diagonals fail ``spectral_bounds``' test.
    Past both tests dsyevd's own scale max(|d|, |lower|) is in [~SYMMETRY_TOL, _RMAX]: no rescaling.
    """
    d = m.diagonal()
    lower = m.diagonal(-1)
    upper = m.diagonal(1)
    n = d.shape[0]
    if n == 1 or (n > 2 and np.count_nonzero(m) != (
        np.count_nonzero(d) + np.count_nonzero(lower) + np.count_nonzero(upper)
    )):
        return None
    # the scale test first, so lower - upper cannot overflow
    if not (2.0 * SYMMETRY_TOL <= max_abs <= _RMAX
            and np.maximum.reduce(abs(lower - upper)) <= SYMMETRY_TOL * (1.0 + max_abs)):
        return None
    eigenvalues, info = _lapack.dsterf(d, lower)
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return eigenvalues


def spectral_bounds(h) -> SpectralBounds:
    """Smallest and largest eigenvalue of a symmetric matrix.

    Raises InvalidInput for non-finite entries, or unless |h_ij - h_ji| <=
    SYMMETRY_TOL * (1 + max|h|) everywhere; a dense test makes one n x n temporary.
    A tridiagonal matrix takes LAPACK dsterf directly; the result is
    identical to ``np.linalg.eigvalsh``.
    """
    m = as_square_matrix(h)
    max_abs = _max_abs(m, "spectral_bounds")
    eigenvalues = _tridiagonal_eigenvalues(m, max_abs)
    if eigenvalues is None:
        with np.errstate(all="ignore"):  # m - m.T can overflow near the float range
            diff = m - m.T
            asymmetry = np.abs(diff, out=diff).max()
        del diff  # not held while eigvalsh copies m
        if not asymmetry <= SYMMETRY_TOL * (1.0 + max_abs):
            raise InvalidInput("matrix is not symmetric within tolerance")
        eigenvalues = np.linalg.eigvalsh(m)
    return SpectralBounds(float(eigenvalues[0]), float(eigenvalues[-1]))


def solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by partially pivoted LU (LAPACK dgetrf/dgetrs).

    Raises SingularMatrix when any pivot falls below
    ``PIVOT_TOL * max|a|``, signalling the caller to switch to the
    pseudoinverse path.
    """
    m = as_square_matrix(a)
    rhs = as_vector(b)
    if rhs.shape[0] != m.shape[0]:
        raise InvalidInput(
            f"matrix order {m.shape[0]} does not match vector length {rhs.shape[0]}"
        )
    _max_abs(rhs, "solve")
    scale = max(_max_abs(m, "solve"), _TINY)
    # an exactly zero pivot (info > 0) fails the pivot test below
    lu, piv, _ = _lapack.dgetrf(m)
    if np.minimum.reduce(abs(lu.diagonal())) < PIVOT_TOL * scale:
        raise SingularMatrix("pivot below tolerance; matrix is numerically singular")
    return _lapack.dgetrs(lu, piv, rhs)[0]


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``RANK_TOL * sigma_max * order`` are treated as
    zero. The result satisfies the four Penrose conditions to roundoff.
    A kept singular value whose reciprocal overflows (a subnormal one) gives
    inf or NaN entries, without a RuntimeWarning. Scaling the rows of ``vt``
    in place keeps the peak at the SVD's factors plus the result.
    """
    m = as_square_matrix(a)
    _max_abs(m, "pseudoinverse")
    u, sigma, vt = np.linalg.svd(m)
    cutoff = RANK_TOL * sigma[0] * m.shape[0]
    inv_sigma = np.zeros_like(sigma)
    keep = sigma > cutoff
    with np.errstate(over="ignore", invalid="ignore"):
        inv_sigma[keep] = 1.0 / sigma[keep]
        vt *= inv_sigma[:, np.newaxis]
        return vt.T @ u.T
