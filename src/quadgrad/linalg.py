"""Dense linear algebra: symmetric eigenvalue extremes, pivoted solve, pseudoinverse.

Everything here works on plain float64 numpy arrays: matrices are square
(n, n) arrays, vectors are (n,) arrays. The heavy lifting is delegated to
LAPACK through numpy and scipy; this module adds the validation and error
contracts the rest of the package relies on. ``spectral_bounds`` reads a 2 x 2
matrix as four floats, hands a tridiagonal matrix to LAPACK ``dsterf`` with
temporaries of length n, and any other matrix, after one n x n temporary for
its symmetry test, to ``np.linalg.eigvalsh``; both routes give eigvalsh's bits.

The four scipy LAPACK routines used here (``dlange``, ``dsterf``,
``dgetrf``, ``dgetrs``) come from scipy's compiled wrapper module
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


def _vector_max_abs(v: np.ndarray) -> float:
    """max|v| of a non-empty float64 vector, exactly: LAPACK dlange's max norm of ``v``
    as one column. It is NaN if an entry is NaN, else inf if one is infinite; it neither
    overflows nor warns, and costs one call where a numpy reduction's set-up alone costs
    more. dlange reads a matrix one element at a time, so matrices go to ``_max_abs``."""
    return _lapack.dlange("M", v[:, np.newaxis])


def _max_abs(m: np.ndarray, who: str) -> float:
    """The matrix guard: max|m| of a non-empty array; InvalidInput naming ``who`` if an
    entry is NaN or infinite, which the maximum or the minimum then is. Both are tested
    before ``max`` sees them: with a NaN argument its result depends on the argument order.
    ``np.maximum.reduce`` is ``m.max()`` without numpy's Python-level wrapper."""
    hi, lo = np.maximum.reduce(m, axis=None), np.minimum.reduce(m, axis=None)
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise InvalidInput(f"{who} requires finite inputs")
    return max(hi, -lo)


def spectral_bounds(h) -> SpectralBounds:
    """Smallest and largest eigenvalue of a symmetric matrix.

    Raises InvalidInput for non-finite entries, or unless |h_ij - h_ji| <=
    SYMMETRY_TOL * (1 + max|h|) everywhere. A tridiagonal matrix (a 2 x 2 one, read as four
    floats, or by its nonzero count for n > 2) with max|h| in [2 * SYMMETRY_TOL, _RMAX] takes
    the direct route: the symmetry test reads its off-diagonals and LAPACK dsterf its diagonal
    and subdiagonal, so no temporary is longer than n. ``np.linalg.eigvalsh`` (LAPACK dsyevd
    on the lower triangle) would reduce it to tridiagonal form, changing nothing, and hand it
    to dsterf unscaled (dsyevd's scale max(|d|, |lower|) is in [~SYMMETRY_TOL, _RMAX]), so the
    bits are eigvalsh's. Any other matrix is tested through one n x n temporary, m - m.T,
    freed before eigvalsh copies m.
    """
    m = as_square_matrix(h)
    if m.shape[0] == 2:  # Python floats: no numpy reduction, view or strided copy
        (a, upper), (lower, c) = m.tolist()
        if not all(map(math.isfinite, (a, upper, lower, c))):
            raise InvalidInput("spectral_bounds requires finite inputs")
        max_abs = max(abs(a), abs(upper), abs(lower), abs(c))
        asymmetry = abs(lower - upper)  # inf where it overflows, and so refused
        d, lower = [a, c], [lower]
        direct = 2.0 * SYMMETRY_TOL <= max_abs <= _RMAX
    else:
        max_abs = _max_abs(m, "spectral_bounds")
        d, lower, upper = m.diagonal(), m.diagonal(-1), m.diagonal(1)
        # the scale first, so lower - upper cannot overflow; dsterf's wrapper rejects n = 1
        direct = 2.0 * SYMMETRY_TOL <= max_abs <= _RMAX and d.shape[0] > 2 and (
            np.count_nonzero(m)
            == np.count_nonzero(d) + np.count_nonzero(lower) + np.count_nonzero(upper))
        if direct:
            asymmetry = _vector_max_abs(lower - upper)
        else:
            with np.errstate(all="ignore"):  # m - m.T can overflow near the float range
                diff = m - m.T
                asymmetry = np.abs(diff, out=diff).max()
            del diff  # not held while eigvalsh copies m
    if not asymmetry <= SYMMETRY_TOL * (1.0 + max_abs):
        raise InvalidInput("matrix is not symmetric within tolerance")
    if direct:
        eigenvalues, info = _lapack.dsterf(d, lower)
        if info != 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
    else:
        eigenvalues = np.linalg.eigvalsh(m)
    return SpectralBounds(float(eigenvalues[0]), float(eigenvalues[-1]))


def solve_operands(a, b) -> tuple[np.ndarray, np.ndarray, float]:
    """``a`` and ``b`` as float64 arrays, with max|a|; ``solve``'s InvalidInput unless
    ``a`` is a square matrix, ``b`` a vector of its order and every entry finite."""
    m = as_square_matrix(a)
    rhs = as_vector(b)
    if rhs.shape[0] != m.shape[0]:
        raise InvalidInput(f"matrix order {m.shape[0]} does not match vector length "
                           f"{rhs.shape[0]}")
    if not math.isfinite(_vector_max_abs(rhs)):
        raise InvalidInput("solve requires finite inputs")
    return m, rhs, _max_abs(m, "solve")


def solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by partially pivoted LU (LAPACK dgetrf/dgetrs).

    Raises SingularMatrix when any pivot falls below
    ``PIVOT_TOL * max|a|``, signalling the caller to switch to the
    pseudoinverse path.
    """
    m, rhs, max_abs = solve_operands(a, b)
    # an exactly zero pivot (info > 0) fails the pivot test below
    lu, piv, _ = _lapack.dgetrf(m)
    if np.minimum.reduce(abs(lu.diagonal())) < PIVOT_TOL * max(max_abs, _TINY):
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
