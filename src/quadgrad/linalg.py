"""Dense linear algebra: symmetric eigenvalue extremes, pivoted solve, pseudoinverse.

Everything here works on plain float64 numpy arrays: matrices are square
(n, n) arrays, vectors are (n,) arrays. The heavy lifting is delegated to
LAPACK through numpy and scipy; this module adds the validation and error
contracts the rest of the package relies on. ``spectral_bounds`` reads a 2 x 2
matrix as four floats, hands a tridiagonal matrix to LAPACK ``dsterf`` with
temporaries of length n, and any other matrix, after one n x n temporary for
its symmetry test, to ``np.linalg.eigvalsh``; both routes give eigvalsh's bits.

The three scipy LAPACK routines used here (``dlange``, ``dsterf``, ``dgesv``) come from
scipy's compiled wrapper module ``scipy/linalg/_flapack``, loaded by file under the private
name ``quadgrad._flapack``: importing ``scipy.linalg`` for them would run the whole package,
which took most of the start-up time of ``import quadgrad``. ``scipy.linalg.lapack``
re-exports the same routines from that module, so the results are the same bits; it is the
fallback when the file is not found. scipy's own import state is left alone: a later ``import
scipy.linalg`` loads its ``_flapack`` as usual.

Two numeric rules are each written once here. ``_run_scope(slot)`` is the only code that
enters ``np.errstate(all="ignore")`` or sets ``_workspace``: ``optimizers.run()`` enters it
once with a slot for one F-ordered buffer the run owns, where ``solve`` copies its matrix and
factors it (``dgesv`` with ``overwrite_a``; the wrapper would copy a C-ordered matrix into
fresh n x n pages at every call), with the same bits. A ``_quiet`` kernel computes as it is
inside a scope, and in a scope of its own, with an empty slot, when called directly: no numpy
``RuntimeWarning`` escapes it. ``_max_abs`` is the only code that takes an array's max|a|:
the finiteness guard and the scale of every tolerance.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
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
# _max_abs reads up to this many entries with one dlange call (about 4 ns per entry), more
# with two numpy reductions (about 2.5 us of set-up). The measured crossover: 2.43 against
# 2.51 us at n = 23, 2.79 against 2.54 at n = 25 (README, "Per-call costs")
_DLANGE_MAX_ENTRIES = 23 * 23


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
_workspace = contextvars.ContextVar("quadgrad.linalg.workspace", default=None)


@contextlib.contextmanager
def _run_scope(slot: list):
    """``np.errstate(all="ignore")``, and ``slot`` in ``_workspace``, per thread and nested
    block: ``[np.empty(0)]`` holds ``solve``'s buffer for a run, ``[]`` holds none. A set
    ``_workspace`` means that the errstate holds."""
    token = _workspace.set(slot)
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _workspace.reset(token)


def _quiet(kernel):
    """``kernel`` as it is inside a ``_run_scope`` (one ContextVar read), else in a scope of
    its own with no LU buffer."""

    @functools.wraps(kernel)
    def quiet(*args, **kwargs):
        if _workspace.get() is not None:
            return kernel(*args, **kwargs)
        with _run_scope([]):
            return kernel(*args, **kwargs)

    return quiet


@dataclass(frozen=True, slots=True)
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
    float numbers (complex input is refused, not cast under a ComplexWarning). An exact
    float64 ndarray, as ``run()`` passes, is returned as it is, without numpy's calls."""
    if type(a) is np.ndarray and a.dtype == float:
        return a
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


def _max_abs(a: np.ndarray, who: str | None = None) -> float:
    """max|a| of a non-empty float64 vector or matrix, exactly, as a Python float: NaN if an
    entry is NaN, else inf if one is infinite; it neither overflows nor warns. Given ``who``,
    it is the guard: InvalidInput naming ``who`` unless every entry is finite.
    Up to ``_DLANGE_MAX_ENTRIES`` entries it is one LAPACK dlange call on ``a.T`` (a vector as
    one column; not copied when ``a`` is C-ordered), above ``a.max()`` and ``a.min()`` without
    numpy's Python wrappers: each propagates a NaN, and abs() turns a zero's -0.0 into 0.0."""
    if a.size <= _DLANGE_MAX_ENTRIES:
        max_abs = _lapack.dlange("M", a.T if a.ndim == 2 else a[:, np.newaxis])
    else:
        hi, lo = np.maximum.reduce(a, axis=None), np.minimum.reduce(a, axis=None)
        max_abs = abs(float(max(hi, -lo)))
    if who is not None and not math.isfinite(max_abs):
        raise InvalidInput(f"{who} requires finite inputs")
    return max_abs


@_quiet
def _dense_asymmetry(m: np.ndarray) -> float:
    """max|m - m.T|, through one n x n temporary (it can overflow near the float range),
    freed on return, before eigvalsh copies m."""
    return _max_abs(m - m.T)


def spectral_bounds(h) -> SpectralBounds:
    """Smallest and largest eigenvalue of a symmetric matrix.

    Raises InvalidInput for non-finite entries, or unless |h_ij - h_ji| <=
    SYMMETRY_TOL * (1 + max|h|) everywhere. A tridiagonal matrix (a 2 x 2 one, read as four
    floats, or by its nonzero count for n > 2) with max|h| in [2 * SYMMETRY_TOL, _RMAX] takes
    the direct route: the symmetry test reads its off-diagonals and LAPACK dsterf its diagonal
    and subdiagonal, so no temporary is longer than n. ``np.linalg.eigvalsh`` (LAPACK dsyevd
    on the lower triangle) would reduce it to tridiagonal form, changing nothing, and hand it
    to dsterf unscaled (dsyevd's scale max(|d|, |lower|) is in [~SYMMETRY_TOL, _RMAX]), so the
    bits are eigvalsh's. Any other matrix is tested by ``_dense_asymmetry``. Only that
    helper is ``_quiet``: the 2 x 2 and tridiagonal routes cannot warn, and take no frame.
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
        asymmetry = _max_abs(lower - upper) if direct else _dense_asymmetry(m)
    if not asymmetry <= SYMMETRY_TOL * (1.0 + max_abs):
        raise InvalidInput("matrix is not symmetric within tolerance")
    if direct:
        eigenvalues, info = _lapack.dsterf(d, lower)
        if info != 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
    else:
        eigenvalues = np.linalg.eigvalsh(m)
    return SpectralBounds(float(eigenvalues[0]), float(eigenvalues[-1]))


def solve(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by partially pivoted LU (LAPACK dgesv: dgetrf, then dgetrs).

    Raises InvalidInput unless ``a`` is a square matrix, ``b`` a vector of its order and every
    entry finite (``newton_ratios``' one operand check), and SingularMatrix when any pivot
    falls below ``PIVOT_TOL * max|a|``, signalling the caller to switch to the pseudoinverse
    path. ``a`` and ``b`` are never written: in a run the factor overwrites the run's buffer
    (module docstring), made anew for a new order.
    """
    m = as_square_matrix(a)
    rhs = as_vector(b)
    if rhs.shape[0] != m.shape[0]:
        raise InvalidInput(f"matrix order {m.shape[0]} does not match vector length "
                           f"{rhs.shape[0]}")
    _max_abs(rhs, "solve")
    max_abs = _max_abs(m, "solve")
    if slot := _workspace.get():  # a run's scope: neither None nor a direct call's []
        if slot[0].shape != m.shape:
            slot[0] = np.empty(m.shape, order="F")
        slot[0][...] = m
    # an exactly zero pivot (info > 0, and x not solved) fails the pivot test below
    lu, _, x, _ = _lapack.dgesv(slot[0] if slot else m, rhs, overwrite_a=bool(slot))
    pivots = lu.diagonal().tolist()
    # min() passes over a NaN pivot unless it comes first, and a NaN minimum is not below
    # the tolerance, as with np.minimum.reduce: so a NaN pivot means not singular
    if (min(map(abs, pivots)) < PIVOT_TOL * max(max_abs, _TINY)
            and not any(map(math.isnan, pivots))):
        raise SingularMatrix("pivot below tolerance; matrix is numerically singular")
    return x


@_quiet
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
    inv_sigma[keep] = 1.0 / sigma[keep]
    vt *= inv_sigma[:, np.newaxis]
    return vt.T @ u.T
