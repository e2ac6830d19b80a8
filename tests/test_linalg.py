import contextlib
import dataclasses
import inspect
import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadgrad.linalg as linalg
from quadgrad import (
    InvalidInput,
    Method,
    OptimizerConfig,
    SingularMatrix,
    SpectralBounds,
    bound_diagonal,
    finite_difference_check,
    new_quadratic_gradient,
    newton_ratios,
    pseudoinverse,
    rosenbrock,
    run,
    solve,
    spectral_bounds,
)
from quadgrad.linalg import PIVOT_TOL, SYMMETRY_TOL, as_square_matrix, as_vector
from helpers import (RecordingLapack, count_errstates, peak_traced_bytes,
                     random_rank_deficient_symmetric, random_symmetric)

# Constant Hessian of the concave-quadratic counterexample; its eigenvalues
# are the roots of lambda^2 + 6*lambda + 4, i.e. -3 +- sqrt(5).
H_F = np.array([[-4.0, 2.0], [2.0, -2.0]])


class TestSpectralBounds:
    def test_identity(self):
        b = spectral_bounds(np.eye(2))
        assert b.lambda_min == pytest.approx(1.0)
        assert b.lambda_max == pytest.approx(1.0)
        assert b.spectral_radius == pytest.approx(1.0)

    def test_diagonal(self):
        b = spectral_bounds(np.diag([2.0, 5.0]))
        assert b.lambda_min == pytest.approx(2.0)
        assert b.lambda_max == pytest.approx(5.0)
        assert b.spectral_radius == pytest.approx(5.0)

    def test_counterexample_hessian(self):
        b = spectral_bounds(H_F)
        assert b.lambda_min == pytest.approx(-3.0 - math.sqrt(5.0), abs=1e-12)
        assert b.lambda_max == pytest.approx(-3.0 + math.sqrt(5.0), abs=1e-12)
        assert b.spectral_radius == pytest.approx(3.0 + math.sqrt(5.0), abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInput):
            spectral_bounds([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            spectral_bounds([[np.nan, 0.0], [0.0, 1.0]])

    def test_rayleigh_quotient_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            h = random_symmetric(rng, n)
            b = spectral_bounds(h)
            for _ in range(100):
                x = rng.standard_normal(n)
                rq = (x @ h @ x) / (x @ x)
                assert b.lambda_min - 1e-9 <= rq <= b.lambda_max + 1e-9

    def test_loewner_sandwich(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            h = random_symmetric(rng, n)
            b = spectral_bounds(h)
            for _ in range(20):
                x = rng.standard_normal(n)
                assert x @ (b.lambda_max * np.eye(n) - h) @ x >= -1e-9
                assert x @ (h - b.lambda_min * np.eye(n)) @ x >= -1e-9


class TestTridiagonalPath:
    """Tridiagonal input skips eigvalsh's reduction and must keep its bits."""

    # 1e150 and 1e-160 push the largest entry outside the range in which
    # LAPACK dsyevd leaves the matrix unscaled, so these take the dense path.
    # A ("max|h|", v) scale rescales each Hessian so that max|h| is v, just
    # inside or outside [2 * SYMMETRY_TOL, 2**485], where dsterf runs
    @pytest.mark.parametrize("scale", [1.0, -1.0, 1e150, -1e150, 1e-160, -1e-160] + [
        pytest.param(("max|h|", v), id=name) for name, v in [
            ("max-below-2tol", 2.0 * SYMMETRY_TOL * (1.0 - 1e-12)),
            ("max-above-2tol", 2.0 * SYMMETRY_TOL * (1.0 + 1e-12)),
            ("max-below-2**485", 2.0**485 * (1.0 - 1e-12)),
            ("max-above-2**485", -(2.0**485) * (1.0 + 1e-12)),
        ]])
    @pytest.mark.parametrize("n", [2, 3, 20, 129, 400])
    def test_rosenbrock_hessian_matches_eigvalsh_exactly(self, n, scale):
        rng = np.random.default_rng(n)
        f = rosenbrock(n)
        for _ in range(3):
            h = f.hessian(rng.uniform(-2.0, 2.0, n))
            if isinstance(scale, tuple):
                largest = scale[1]
                h = h * (largest / np.abs(h).max())
                edge = 2.0 * SYMMETRY_TOL if abs(largest) < 1.0 else 2.0**485
                assert (np.abs(h).max() < edge) == (abs(largest) < edge)
            else:
                h = scale * h
            b = spectral_bounds(h)
            eigenvalues = np.linalg.eigvalsh(h)
            assert b.lambda_min == eigenvalues[0]
            assert b.lambda_max == eigenvalues[-1]

    def test_one_by_one(self):
        b = spectral_bounds([[-3.0]])
        assert (b.lambda_min, b.lambda_max, b.spectral_radius) == (-3.0, -3.0, 3.0)

    @pytest.mark.parametrize("block", [slice(None), slice(1, 3)], ids=["4x4", "2x2"])
    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    def test_symmetry_decided_as_the_reference(self, scale, block):
        # mismatches from a quarter to four times SYMMETRY_TOL * (1 + max|a|),
        # plus one that passes only because the mismatched upper entry, itself
        # the largest entry, raises max|a|: a scale that left that entry out
        # would refuse it. At scale 1 the rounding of 1 + mismatch is larger
        # than that margin; the matrix scaled down to 1e-6 resolves it. The
        # 2 x 2 block around that entry is decided the same way.
        diagonal = np.array([0.1, -0.2, 0.05, 0.15])
        lower = np.array([0.05, 1.0, 0.025])
        mismatches = list(np.geomspace(0.25, 4.0, 41) * SYMMETRY_TOL * (1.0 + scale))
        mismatches.append(SYMMETRY_TOL * (1.0 + scale) * (1.0 + SYMMETRY_TOL / 2.0))
        outcomes = set()
        for mismatch in mismatches:
            upper = scale * lower
            upper[1] += mismatch
            full = scale * (np.diag(diagonal) + np.diag(lower, -1)) + np.diag(upper, 1)
            t = full[block, block]
            assert np.abs(t).max() == full[1, 2]
            outcomes.add(reference_is_symmetric(t))
            if reference_is_symmetric(t):
                b = spectral_bounds(t)
                assert b.lambda_max == np.linalg.eigvalsh(t)[-1]
            else:
                with pytest.raises(InvalidInput, match="not symmetric"):
                    spectral_bounds(t)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    def test_makes_no_matrix_sized_temporary(self, symmetric):
        # finiteness is decided by max and min, with no n x n mask beside the
        # diagonals that dsterf reads; an asymmetric one is refused from its off-diagonals
        h = rosenbrock(300).hessian(np.linspace(-1.0, 1.0, 300))
        if not symmetric:
            h[0, 1] *= 1.5

        def bounds():
            if symmetric:
                return spectral_bounds(h)
            with pytest.raises(InvalidInput, match="not symmetric"):
                spectral_bounds(h)

        assert peak_traced_bytes(bounds) < 0.05 * h.nbytes

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-300, 1e300])
    def test_two_by_two_asymmetric_beyond_tolerance_is_refused(self, scale):
        # a 2 x 2 matrix is read as four floats, whether or not its scale is dsterf's:
        # 1e-300 and 1e300 lie outside that range, yet the same test refuses them
        t = scale * np.array([[1.0, 2.0], [2.0, 1.0]])
        t[1, 0] += 4.0 * SYMMETRY_TOL * (1.0 + 2.0 * scale)
        with pytest.raises(InvalidInput, match="not symmetric"):
            spectral_bounds(t)

    @pytest.mark.parametrize("a", [
        np.array([[-4, 2], [2, -2]]),
        np.array([[True, True], [True, False]]),
        np.asfortranarray([[0.3, -1.7], [-1.7, 2.9]]),
        (lambda big: big + big.T)(np.random.default_rng(5).standard_normal((4, 4)))[::2, ::2],
        [[0.0, 0.0], [0.0, 0.0]],
    ], ids=["int", "bool", "f-order", "strided", "zero"])
    def test_two_by_two_operands_give_eigvalsh_bits(self, a):
        b = spectral_bounds(a)
        eigenvalues = np.linalg.eigvalsh(a)
        assert (b.lambda_min, b.lambda_max) == (eigenvalues[0], eigenvalues[-1])

    def test_only_dense_input_reaches_eigvalsh(self, monkeypatch):
        def refuse(a, UPLO="L"):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        h = rosenbrock(50).hessian(np.linspace(-1.0, 1.0, 50))
        assert spectral_bounds(h).lambda_max > 0.0
        with pytest.raises(AssertionError, match="eigvalsh called"):
            spectral_bounds(np.ones((3, 3)) + np.eye(3))

    def test_unconverged_dsterf_raises_and_ends_a_run_as_diverged(self, monkeypatch):
        # dsterf reports a failure to converge by info > 0
        monkeypatch.setattr(linalg._lapack, "dsterf", lambda d, e: (np.zeros_like(d), 1))
        x0 = np.array([-1.0, 0.5, 2.0])
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            spectral_bounds(rosenbrock(3).hessian(x0))
        traj = run(rosenbrock(3), OptimizerConfig(Method.GD_SPECTRAL), x0)
        assert traj.diverged and len(traj.records) == 1


class TestSolve:
    def test_identity(self):
        np.testing.assert_allclose(solve(np.eye(2), [3.0, -1.0]), [3.0, -1.0])

    def test_counterexample_system(self):
        # H_F @ (-1, -1.5) == (1, 1)
        x = solve(H_F, [1.0, 1.0])
        np.testing.assert_allclose(x, [-1.0, -1.5], atol=1e-12)
        np.testing.assert_allclose(H_F @ np.array([-1.0, -1.5]), [1.0, 1.0])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            solve([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])

    def test_roundtrip_on_random_well_conditioned(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            a = random_symmetric(rng, n) + 5.0 * np.eye(n)
            b = rng.standard_normal(n)
            x = solve(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-8 * (1.0 + np.linalg.norm(b))

    @staticmethod
    def reference_solve(m, b):
        """``solve`` with its pivot scale written as max|a| over an |a| copy."""
        lu, piv, _ = scipy.linalg.lapack.dgetrf(m)
        scale = max(np.max(np.abs(m)), np.finfo(float).tiny)
        if np.min(np.abs(np.diag(lu))) < PIVOT_TOL * scale:
            raise SingularMatrix("pivot below tolerance")
        return scipy.linalg.lapack.dgetrs(lu, piv, b)[0]

    def test_same_bits_and_raises_as_abs_scale(self):
        rng = np.random.default_rng(12)
        systems = [
            (-np.zeros((3, 3)), np.ones(3)),
            (np.zeros((3, 3)), np.ones(3)),
            (-np.ones((4, 4)), np.ones(4)),
        ]
        for k in range(400):
            n = int(rng.integers(1, 40))
            kind = k % 5
            if kind == 0:
                a = rng.standard_normal((n, n))
            elif kind == 1:
                a = random_rank_deficient_symmetric(rng, n, int(rng.integers(0, n)))
            elif kind == 2:
                a = -np.abs(rng.standard_normal((n, n)))  # max|a| is -min(a)
            elif kind == 3:
                a = random_symmetric(rng, n, scale=10.0 ** rng.uniform(-300, 300))
            else:
                a = rng.standard_normal((n, n))
                a[:, -1] = a[:, 0] * (1.0 + 1e-14)  # nearly singular
            systems.append((a, rng.standard_normal(n)))
        raised = 0
        for a, b in systems:
            try:
                expected = self.reference_solve(a, b)
            except SingularMatrix:
                raised += 1
                with pytest.raises(SingularMatrix):
                    solve(a, b)
                continue
            assert solve(a, b).tobytes() == expected.tobytes()
        assert 0 < raised < len(systems)

    # the right-hand side's guard reads every entry: a bad one first, in the middle
    # or last is refused alike, and so is a bad matrix entry
    @pytest.mark.parametrize("a, b", [
        pytest.param(np.eye(3), [value if i == at else 1.0 for i in range(3)],
                     id=f"{name}-b-at-{at}")
        for at in range(3) for name, value in [("nan", np.nan), ("inf", np.inf),
                                               ("minus-inf", -np.inf)]
    ] + [
        pytest.param([[1.0, 0.0], [0.0, np.nan]], [1.0, 1.0], id="nan-a"),
        pytest.param([[1.0, -np.inf], [0.0, 1.0]], [1.0, 1.0], id="minus-inf-a"),
    ])
    def test_rejects_nonfinite(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput) as info:
                solve(a, b)
        assert type(info.value) is InvalidInput
        assert str(info.value) == "solve requires finite inputs"

    def test_huge_finite_right_hand_side_is_accepted_without_a_warning(self):
        # b.dot(b) overflows: a guard built on it would warn here
        b = [1e200, -1e200, 1.7e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = solve(np.eye(3), b)
        assert x.tolist() == b

    def test_holds_only_the_lu_factor(self):
        a = np.random.default_rng(13).standard_normal((300, 300))
        b = np.ones(300)
        assert peak_traced_bytes(solve, a, b) <= 1.1 * a.nbytes


def penrose_residuals(a, a_pinv):
    return (
        np.max(np.abs(a @ a_pinv @ a - a)),
        np.max(np.abs(a_pinv @ a @ a_pinv - a_pinv)),
        np.max(np.abs((a @ a_pinv).T - a @ a_pinv)),
        np.max(np.abs((a_pinv @ a).T - a_pinv @ a)),
    )


class TestPseudoinverse:
    def test_invertible_diagonal(self):
        np.testing.assert_allclose(
            pseudoinverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25])
        )

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pseudoinverse(np.zeros((2, 2))), np.zeros((2, 2)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zero_matrix_gives_positive_zeros(self, n):
        # no singular value passes the cutoff 0: every 1 / sigma is dropped
        assert pseudoinverse(np.zeros((n, n))).tobytes() == np.zeros((n, n)).tobytes()

    def test_rank_one_projector(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(pseudoinverse(a), a, atol=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            pseudoinverse([[np.inf, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("sigma_min, kept", [(1.5e-12, False), (4.5e-12, True)])
    def test_rank_cutoff_is_rank_tol_times_sigma_max_times_order(self, sigma_min, kept):
        # the cutoff here is 1e-12 * 1.0 * 3: 4.5e-12 is kept below twice it,
        # 1.5e-12 dropped above half of it
        q, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((3, 3)))
        a = (q * [1.0, 0.5, sigma_min]) @ q.T
        assert np.linalg.norm(pseudoinverse(a), 2) == pytest.approx(
            1.0 / sigma_min if kept else 2.0, rel=1e-3)

    @pytest.mark.parametrize("a", [[[5e-324]], [[-5e-324]], [[5e-324, 0.0], [0.0, -5e-324]]])
    def test_overflowing_reciprocal_warns_on_nothing(self, a):
        # 1 / 5e-324 overflows, and inf * 0 is NaN: the entries are not finite,
        # as they always were
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = pseudoinverse(a)
        assert result.tobytes() == reference_pseudoinverse(a).tobytes()
        assert not np.isfinite(result).all()

    def test_same_bits_as_scaling_a_transposed_copy(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(1, 41))
            a = random_rank_deficient_symmetric(rng, n, int(rng.integers(0, n + 1)))
            a *= 10.0 ** rng.integers(-5, 6) * rng.uniform(0.1, 2.0, n)  # h diag(g) form
            assert pseudoinverse(a).tobytes() == reference_pseudoinverse(a).tobytes()

    def test_holds_the_svd_factors_and_the_result(self):
        rng = np.random.default_rng(13)
        a = random_rank_deficient_symmetric(rng, 300, 200)
        assert peak_traced_bytes(pseudoinverse, a) <= 3.1 * a.nbytes

    def test_penrose_conditions_random(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            a = random_symmetric(rng, n)
            tol = 1e-8 * (1.0 + np.linalg.norm(a, 2))
            assert max(penrose_residuals(a, pseudoinverse(a))) <= tol

    def test_penrose_conditions_rank_deficient(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            rank = int(rng.integers(1, n))
            a = random_rank_deficient_symmetric(rng, n, rank)
            tol = 1e-8 * (1.0 + np.linalg.norm(a, 2))
            assert max(penrose_residuals(a, pseudoinverse(a))) <= tol


def reference_pseudoinverse(a):
    """The pseudoinverse with the kept reciprocals applied to a transposed copy of vt."""
    m = np.asarray(a, dtype=float)
    u, sigma, vt = np.linalg.svd(m)
    keep = sigma > 1e-12 * sigma[0] * m.shape[0]
    inv_sigma = np.zeros_like(sigma)
    with np.errstate(all="ignore"):
        inv_sigma[keep] = 1.0 / sigma[keep]
        return (vt.T * inv_sigma) @ u.T


def test_dense_symmetry_tolerance():
    # SYMMETRY_TOL * (1 + max|a|) is about 3e-9 here; a full 3 x 3 matrix takes the dense test
    a = np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 2.0], [2.0, 2.0, 1.0]])
    for mismatch in (0.0, 2e-9):
        t = a.copy()
        t[1, 0] += mismatch
        assert spectral_bounds(t).lambda_max == np.linalg.eigvalsh(t)[-1]
    a[1, 0] += 4e-9
    with pytest.raises(InvalidInput, match="not symmetric"):
        spectral_bounds(a)


def reference_is_symmetric(a):
    """The symmetry test written with an |a| copy and an |a - a^T| copy."""
    m = np.asarray(a, dtype=float)
    with np.errstate(all="ignore"):
        scale = 1.0 + np.max(np.abs(m))
        if not math.isfinite(scale):
            return False
        return bool(np.max(np.abs(m - m.T)) <= SYMMETRY_TOL * scale)


def test_symmetry_refused_exactly_where_the_reference_says_asymmetric():
    rng = np.random.default_rng(31)
    outcomes = set()
    for trial in range(600):
        n = int(rng.integers(1, 8))
        a = random_symmetric(rng, n, scale=10.0 ** rng.integers(-6, 7))
        kind = trial % 4
        if kind == 1:  # asymmetric around the tolerance
            a[rng.integers(n), rng.integers(n)] += rng.choice([1e-10, 1e-8]) * (1 + abs(a).max())
        elif kind == 2:
            a[rng.integers(n), rng.integers(n)] = np.nan
        elif kind == 3:
            i, j = rng.integers(n, size=2)
            a[i, j] = rng.choice([np.inf, -np.inf])
            if rng.random() < 0.5:
                a[j, i] = a[i, j]
        symmetric = reference_is_symmetric(a)
        outcomes.add(symmetric)
        if not np.isfinite(a).all():
            with pytest.raises(InvalidInput, match="requires finite inputs"):
                spectral_bounds(a)
        elif symmetric:
            assert spectral_bounds(a).lambda_max == np.linalg.eigvalsh(a)[-1]
        else:
            with pytest.raises(InvalidInput, match="not symmetric"):
                spectral_bounds(a)
    assert outcomes == {True, False}


def with_entry(slot, value):
    """[[1, 2], [2, 1]] with entry ``slot`` (row-major, 0-3) set to ``value``."""
    a = [[1.0, 2.0], [2.0, 1.0]]
    a[slot // 2][slot % 2] = value
    return a


def tridiagonal_with_entry(index, value):
    """The 5 x 5 tridiagonal matrix with 2 on its diagonal and 1 beside it, with
    ``[index]`` set to ``value``: it takes the direct route unless an entry is bad."""
    a = 2.0 * np.eye(5) + np.eye(5, k=1) + np.eye(5, k=-1)
    a[index] = value
    return a


# inf and NaN fail the finiteness test in any slot; near overflow, a - a^T overflows to inf.
# The direct route's asymmetry is the largest |lower - upper|: one beyond the tolerance in
# the first, middle or last subdiagonal entry is refused, and so is a bad entry there
@pytest.mark.parametrize("a, message", [
    pytest.param(with_entry(slot, value), "requires finite inputs", id=f"{name}-at-{slot}")
    for slot in range(4) for name, value in [("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)]
] + [
    pytest.param([[np.inf, 0.0], [0.0, 1.0]], "requires finite inputs", id="inf"),
    pytest.param([[1.0, np.inf], [5.0, 1.0]], "requires finite inputs", id="one-inf"),
    pytest.param([[1.0, np.inf], [np.inf, 1.0]], "requires finite inputs", id="mirrored-inf"),
    pytest.param([[1.0, np.nan], [np.nan, 1.0]], "requires finite inputs", id="mirrored-nan"),
    pytest.param([[1.0, -1e308], [1e308, 1.0]], "not symmetric", id="near-overflow"),
    pytest.param([[1.0, -1.7e308], [1.7e308, 1.0]], "not symmetric", id="overflow"),
    pytest.param([[1.0, -1e308, 0.0], [1e308, 1.0, 0.0], [0.0, 0.0, 1.0]], "not symmetric",
                 id="near-overflow-3x3"),
] + [
    pytest.param(tridiagonal_with_entry((row + 1, row), 1.0 + 4.0 * SYMMETRY_TOL * 3.0),
                 "not symmetric", id=f"asymmetric-tridiagonal-at-{row}")
    for row in (0, 2, 3)
] + [
    pytest.param(tridiagonal_with_entry((row + 1, row), value), "requires finite inputs",
                 id=f"{name}-tridiagonal-at-{row}")
    for row in (0, 2, 3) for name, value in [("nan", np.nan), ("inf", np.inf),
                                             ("minus-inf", -np.inf)]
])
def test_nonfinite_or_overflowing_asymmetry_is_refused_without_a_warning(a, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match=message):
            spectral_bounds(a)


def max_abs_of(a, switch, who=None):
    """``_max_abs(a, who)`` by one dlange call (``switch`` "dlange") or by the reductions."""
    max_entries = a.size if switch == "dlange" else a.size - 1
    with mock.patch.object(linalg, "_DLANGE_MAX_ENTRIES", max_entries):
        return linalg._max_abs(a, who)


BOTH_SIDES = pytest.mark.parametrize("switch", ["dlange", "reductions"])


@pytest.mark.parametrize("v", [
    np.array([0.0]), np.array([-0.0, -0.0]), np.array([5e-324, -0.0]),
    np.array([1.0, -3.0, 2.0]), np.array([1e200, -1.7e308, 1e308]),
    np.random.default_rng(33).standard_normal(1000),
    np.random.default_rng(34).standard_normal(40)[::3],
], ids=["zero", "negative-zeros", "subnormal", "small", "near-overflow", "n-1000", "strided"])
@BOTH_SIDES
def test_max_abs_of_a_vector_is_the_exact_maximum(v, switch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = max_abs_of(v, switch)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.max(np.abs(v)).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("at", [0, 2, 4])
@BOTH_SIDES
def test_max_abs_of_a_vector_is_nonfinite_for_any_bad_entry(bad, at, switch):
    v = np.array([1.0, -2.0, 3.0, -4.0, 5.0])
    v[at] = bad
    got = max_abs_of(v, switch)
    assert math.isnan(got) if math.isnan(bad) else got == math.inf
    with pytest.raises(InvalidInput, match="guard requires finite inputs"):
        max_abs_of(v, switch, "guard")
    v[(at + 1) % 5] = np.inf if math.isnan(bad) else np.nan  # with the other kind beside it
    assert math.isnan(max_abs_of(v, switch))


def test_refused_dense_matrix_makes_one_matrix_temporary():
    h = random_symmetric(np.random.default_rng(32), 300)
    h[0, 1] += 1.0

    def refused(m):
        with pytest.raises(InvalidInput, match="not symmetric"):
            spectral_bounds(m)

    assert peak_traced_bytes(refused, h) <= 1.1 * h.nbytes


def test_spectral_radius_is_derived_from_the_extremes():
    assert [field.name for field in dataclasses.fields(SpectralBounds)] == [
        "lambda_min", "lambda_max"]
    assert SpectralBounds(-3.0, 2.0).spectral_radius == 3.0
    assert SpectralBounds(-1.0, 2.5).spectral_radius == 2.5


@pytest.mark.parametrize("coerce, bad", [
    (as_vector, [1j, 0.0]),
    (as_vector, np.array([1.0 + 1j, 0.0])),
    (as_vector, ["a", "b"]),
    (as_vector, [[1.0], [1.0, 2.0]]),
    (as_square_matrix, [[1.0, 1j], [1j, 1.0]]),
    (as_square_matrix, np.eye(2, dtype=complex)),
    (as_square_matrix, [["1", "0"], ["0", "1"]]),
    (as_square_matrix, [[1.0, 0.0], [0.0]]),
    (as_square_matrix, np.array([[1.0, None], [None, 1.0]])),
])
def test_coercion_refuses_non_real_input(coerce, bad):
    with pytest.raises(InvalidInput, match="expected real numbers"):
        coerce(bad)


@pytest.mark.parametrize("good", [[1, 2], [True, False], np.array([1, 2], dtype=np.float32),
                                  np.array([3, 4], dtype=np.uint8)])
def test_coercion_converts_real_dtypes_to_float64(good):
    x = as_vector(good)
    assert x.dtype == np.float64
    np.testing.assert_array_equal(x, np.asarray(good, dtype=float))


class TestSolveWorkspace:
    """``solve`` in and out of ``_run_scope``, the block ``run()`` puts it in."""

    @pytest.fixture
    def lapack(self, monkeypatch):
        recording = RecordingLapack(linalg._lapack)
        monkeypatch.setattr(linalg, "_lapack", recording)
        return recording

    @staticmethod
    def systems(order):
        """Invertible and singular systems of two orders, ``a`` laid out in ``order``."""
        rng = np.random.default_rng(17)
        for n in (3, 3, 8, 3):
            for a in (rng.standard_normal((n, n)), random_rank_deficient_symmetric(rng, n, 1)):
                yield np.array(a, order=order), rng.standard_normal(n)

    @staticmethod
    def solved(a, b):
        try:
            return solve(a, b).tobytes()
        except SingularMatrix:
            return "singular"

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_public_solve_leaves_its_operands_and_holds_no_buffer(self, order, lapack):
        for a, b in self.systems(order):
            before = a.copy(order="K"), b.copy()
            self.solved(a, b)
            assert a.flags.c_contiguous == (order == "C")
            assert a.tobytes(order="A") == before[0].tobytes(order="A")
            assert b.tobytes() == before[1].tobytes()
        # every factor was dgesv's own copy, gone with the call
        assert lapack.factored == [(None, False)] * 8 and lapack.buffers() == []
        assert linalg._workspace.get() is None

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_workspace_gives_the_same_bits_and_leaves_the_operands(self, order, lapack):
        outside = [self.solved(a, b) for a, b in self.systems(order)]
        assert "singular" in outside and len(set(outside)) == 5
        inside = []
        with linalg._run_scope([np.empty(0)]):
            for a, b in self.systems(order):
                before = a.copy(order="K"), b.copy()
                inside.append(self.solved(a, b))
                assert a.tobytes(order="A") == before[0].tobytes(order="A")
                assert b.tobytes() == before[1].tobytes()
                buffer = linalg._workspace.get()[0]
                assert buffer.shape == a.shape and buffer.flags.f_contiguous
            del buffer
        assert inside == outside
        # factored in place, one buffer per run of equal orders: 3, 3, 8, 3
        in_place = lapack.factored[8:]
        assert all(ref is not None and same for ref, same in in_place)
        assert len(lapack.buffers()) == 3
        assert all(ref() is None for ref in lapack.buffers())
        assert linalg._workspace.get() is None


class TestQuiet:
    """The ``_quiet`` kernels: called by keyword, counted errstates, a scope of their own."""

    SINGULAR = np.array([[1.0, 1.0], [1.0, 1.0]])
    # each decorated public kernel (Rosenbrock's callables on numpy arrays among them), its
    # parameters, and a call by keyword
    KERNELS = {
        "bound_diagonal": (bound_diagonal, ["hbar"], dict(hbar=H_F)),
        "newton_ratios": (newton_ratios, ["h", "g"], dict(h=H_F, g=[1.0, 2.0])),
        "newton_ratios-fallback": (newton_ratios, ["h", "g"], dict(h=SINGULAR, g=[1.0, 2.0])),
        "new_quadratic_gradient": (new_quadratic_gradient, ["h", "g"],
                                   dict(h=H_F, g=[1.0, 2.0])),
        "pseudoinverse": (pseudoinverse, ["a"], dict(a=H_F)),
        "finite_difference_check": (finite_difference_check, ["f", "x"],
                                    dict(f=rosenbrock(29), x=np.linspace(-1.0, 1.0, 29))),
        **{f"{call}-rosenbrock:29": (getattr(rosenbrock(29), call), ["x"],
                                     dict(x=np.full(29, 1e200)))
           for call in ("value", "gradient", "hessian")},
    }

    @pytest.mark.parametrize("name", KERNELS)
    def test_keeps_its_signature_and_takes_keywords(self, name):
        kernel, parameters, kwargs = self.KERNELS[name]
        assert list(inspect.signature(kernel).parameters) == parameters
        assert kernel.__wrapped__.__name__ == kernel.__name__ == name.split("-")[0]
        kernel(**kwargs)

    @pytest.mark.parametrize("name", KERNELS)
    def test_direct_call_enters_one_errstate_and_holds_no_buffer(self, name, monkeypatch):
        kernel, _, kwargs = self.KERNELS[name]
        made = count_errstates(monkeypatch)
        recording = RecordingLapack(linalg._lapack)
        monkeypatch.setattr(linalg, "_lapack", recording)
        kernel(**kwargs)
        assert made == [{"all": "ignore"}]
        # a direct call's solve factors dgesv's own copy, as a call of solve itself does
        assert all(factored == (None, False) for factored in recording.factored)
        assert linalg._workspace.get() is None

    @pytest.mark.parametrize("h, scopes", [
        (H_F, 0), (rosenbrock(5).hessian(np.linspace(-1.0, 1.0, 5)), 0),
        (random_symmetric(np.random.default_rng(8), 5), 1),
    ], ids=["2x2", "tridiagonal", "dense"])
    def test_spectral_bounds_enters_a_scope_on_its_dense_route_only(self, h, scopes,
                                                                     monkeypatch):
        made = count_errstates(monkeypatch)
        spectral_bounds(h)
        assert made == [{"all": "ignore"}] * scopes


# NaN, +-inf, +-0, the smallest subnormal and the float range's edge
SPECIAL_ENTRIES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308, -1e308]


@st.composite
def guarded_matrices(draw):
    """A float64 matrix of order 1 to 6, with special entries at its first, middle and last
    entry now and then, laid out in C order, F order or as a strided view."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((n, n)) * 10.0 ** draw(st.integers(-300, 300))
    for at in draw(st.lists(st.sampled_from([0, n * n // 2, n * n - 1]), max_size=3)):
        m.flat[at] = draw(st.sampled_from(SPECIAL_ENTRIES))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "strided":
        wide = np.zeros((2 * n, 3 * n))
        wide[::2, ::3] = m
        return wide[::2, ::3]
    return np.array(m, order=layout)


def max_abs_outcome(m, switch):
    """``max_abs_of(m, switch, "guard")``: its value, or the message."""
    try:
        return max_abs_of(m, switch, "guard")
    except InvalidInput as exc:
        return str(exc)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(m=guarded_matrices())
def test_matrix_guard_is_the_same_on_both_sides_of_the_switch(m):
    dlange, reductions = max_abs_outcome(m, "dlange"), max_abs_outcome(m, "reductions")
    if np.isfinite(m).all():
        assert type(dlange) is type(reductions) is float
        assert (np.float64(dlange).tobytes() == np.float64(reductions).tobytes()
                == np.max(np.abs(m)).tobytes())
    else:
        assert dlange == reductions == "guard requires finite inputs"


def test_matrix_guard_reads_a_small_c_ordered_matrix_in_place():
    m = np.random.default_rng(21).standard_normal((20, 20))
    assert m.size <= linalg._DLANGE_MAX_ENTRIES
    # dlange's own work array is n floats; a copy of m would be n * n
    assert peak_traced_bytes(linalg._max_abs, m, "guard") < 0.5 * m.nbytes


class PivotLapack:
    """``linalg._lapack`` whose ``dgesv`` returns a diagonal factor of the given pivots."""

    def __init__(self, pivots):
        self.pivots = pivots

    def __getattr__(self, name):
        return getattr(scipy.linalg.lapack, name)

    def dgesv(self, a, b, overwrite_a=False):
        return np.diag(self.pivots), np.arange(1, len(b) + 1), np.zeros(len(b)), 0


# around solve's tolerance for max|a| = 1, 1e-12 itself not below it, and NaN and inf
PIVOTS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-13, -1e-13, 1e-12, -1e-12,
          1.1e-12, 1.0, -2.0]


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(pivots=st.lists(st.sampled_from(PIVOTS), min_size=1, max_size=6))
@example(pivots=[math.nan, 0.0, 1.0]).via("a NaN first")
@example(pivots=[0.0, math.nan, 1.0]).via("a NaN in the middle")
@example(pivots=[1.0, 0.0, math.nan]).via("a NaN last")
def test_pivot_decision_is_numpys(pivots):
    d = np.array(pivots)
    singular = bool(np.minimum.reduce(abs(d)) < PIVOT_TOL * 1.0)
    with mock.patch.object(linalg, "_lapack", PivotLapack(d)):
        try:
            solve(np.eye(len(d)), np.ones(len(d)))
        except SingularMatrix:
            assert singular
        else:
            assert not singular


# OpenBLAS factors on one thread below 10,000 entries: n = 100 is at the cutoff
@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(n=st.sampled_from([1, 2, 16, 17, 100, 101]), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "rank-deficient", "scaled", "nearly-singular"]),
       order=st.sampled_from(["C", "F"]), in_run=st.booleans())
def test_solve_gives_the_bits_of_dgetrf_and_dgetrs(n, seed, kind, order, in_run):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if kind == "rank-deficient":
        a = random_rank_deficient_symmetric(rng, n, int(rng.integers(0, n)))
    elif kind == "scaled":
        a *= 10.0 ** rng.uniform(-300, 300)
    elif kind == "nearly-singular" and n > 1:
        a[:, -1] = a[:, 0] * (1.0 + 1e-14)
    a, b = np.array(a, order=order), rng.standard_normal(n)
    try:
        expected = TestSolve.reference_solve(a, b).tobytes()
    except SingularMatrix:
        expected = "singular"
    with linalg._run_scope([np.empty(0)]) if in_run else contextlib.nullcontext():
        try:
            got = solve(a, b).tobytes()
        except SingularMatrix:
            got = "singular"
    assert got == expected
