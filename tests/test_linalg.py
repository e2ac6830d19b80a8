import math

import numpy as np
import pytest

from quadgrad import (
    InvalidMatrix,
    SingularMatrix,
    is_symmetric,
    pseudoinverse,
    rosenbrock,
    solve,
    spectral_bounds,
)
from helpers import random_rank_deficient_symmetric, random_symmetric

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
        with pytest.raises(InvalidMatrix):
            spectral_bounds([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
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
    # LAPACK dsyevd leaves the matrix unscaled, so these take the dense path
    @pytest.mark.parametrize("scale", [1.0, -1.0, 1e150, -1e150, 1e-160, -1e-160])
    @pytest.mark.parametrize("n", [2, 3, 20, 129, 400])
    def test_rosenbrock_hessian_matches_eigvalsh_exactly(self, n, scale):
        rng = np.random.default_rng(n)
        f = rosenbrock(n)
        for _ in range(3):
            h = scale * f.hessian(rng.uniform(-2.0, 2.0, n))
            b = spectral_bounds(h)
            eigenvalues = np.linalg.eigvalsh(h)
            assert b.lambda_min == eigenvalues[0]
            assert b.lambda_max == eigenvalues[-1]

    def test_one_by_one(self):
        b = spectral_bounds([[-3.0]])
        assert (b.lambda_min, b.lambda_max, b.spectral_radius) == (-3.0, -3.0, 3.0)

    @pytest.mark.parametrize("tol", [1e-9, 0.1])
    def test_symmetry_decided_as_is_symmetric(self, tol):
        # mismatches from a quarter to four times tol * (1 + max|a|); at the
        # larger tol the mismatched upper entry is itself the largest entry
        diagonal = np.array([0.1, -0.2, 0.05, 0.15])
        lower = np.array([0.05, 1.0, 0.025])
        outcomes = set()
        for mismatch in np.geomspace(0.25, 4.0, 41) * tol * 2.0:
            upper = lower.copy()
            upper[1] += mismatch
            t = np.diag(diagonal) + np.diag(lower, -1) + np.diag(upper, 1)
            outcomes.add(is_symmetric(t, tol))
            if is_symmetric(t, tol):
                b = spectral_bounds(t, tol)
                assert b.lambda_max == np.linalg.eigvalsh(t)[-1]
            else:
                with pytest.raises(InvalidMatrix, match="not symmetric"):
                    spectral_bounds(t, tol)
        assert outcomes == {True, False}

    def test_only_dense_input_reaches_eigvalsh(self, monkeypatch):
        def refuse(a, UPLO="L"):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        h = rosenbrock(50).hessian(np.linspace(-1.0, 1.0, 50))
        assert spectral_bounds(h).lambda_max > 0.0
        with pytest.raises(AssertionError, match="eigvalsh called"):
            spectral_bounds(np.ones((3, 3)) + np.eye(3))


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

    def test_rank_one_projector(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(pseudoinverse(a), a, atol=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            pseudoinverse([[np.inf, 0.0], [0.0, 1.0]])

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


def test_is_symmetric_tolerance():
    assert is_symmetric([[1.0, 2.0], [2.0, 1.0]])
    assert not is_symmetric([[1.0, 2.0], [2.1, 1.0]], tol=1e-6)
