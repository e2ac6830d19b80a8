import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadgrad import (
    InvalidInput,
    Sense,
    UnknownFunction,
    beale,
    booth,
    finite_difference_check,
    get_function,
    himmelblau,
    quadratic_counterexample,
    rosenbrock,
    standard_suite,
)


class TestRosenbrock:
    def test_minimum(self):
        f = rosenbrock(2)
        assert f.value([1.0, 1.0]) == 0.0
        np.testing.assert_array_equal(f.gradient([1.0, 1.0]), [0.0, 0.0])

    def test_origin_derivatives(self):
        # by hand: f(0,0) = 1, g = (-2, 0), H = [[2, 0], [0, 200]]
        f = rosenbrock(2)
        assert f.value([0.0, 0.0]) == pytest.approx(1.0)
        np.testing.assert_allclose(f.gradient([0.0, 0.0]), [-2.0, 0.0])
        np.testing.assert_allclose(
            f.hessian([0.0, 0.0]), [[2.0, 0.0], [0.0, 200.0]]
        )

    def test_higher_dimensional_minimum(self):
        f = rosenbrock(5)
        assert f.value(np.ones(5)) == 0.0

    def test_rejects_dimension_below_two(self):
        with pytest.raises(InvalidInput):
            rosenbrock(1)

    @pytest.mark.parametrize("n", [2.5, 3.0, "5", None, True])
    def test_rejects_non_integer_dimension(self, n):
        with pytest.raises(InvalidInput, match="rosenbrock needs an integer n"):
            rosenbrock(n)

    def test_accepts_numpy_integer_dimension(self):
        f = rosenbrock(np.int64(3))
        assert f.name == "rosenbrock:3"
        assert f.value(np.ones(3)) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 400, 1000])
    def test_hessian_matches_index_scatter_bit_for_bit(self, n):
        x = np.random.default_rng(n).uniform(-2.0, 2.0, n)
        expected = scatter_hessian(x)
        assert rosenbrock(n).hessian(x).view(np.int64).tobytes() == (
            expected.view(np.int64).tobytes()
        )


def per_residual_beale_hessian(x, y):
    """Beale's Hessian at (x, y) summed one residual k at a time, each term
    from its own outer product: the reference for the broadcast form."""
    x, y = np.float64(x), np.float64(y)
    r = [c + x * (y**k - 1.0) for k, c in enumerate((1.5, 2.25, 2.625), start=1)]
    curvatures = (
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0.0, 2.0 * y], [2.0 * y, 2.0 * x]]),
        np.array([[0.0, 3.0 * y * y], [3.0 * y * y, 6.0 * x * y]]),
    )
    h = np.zeros((2, 2))
    for k in (1, 2, 3):
        jac = np.array([y**k - 1.0, k * x * y ** (k - 1)])
        h += 2.0 * (np.outer(jac, jac) + r[k - 1] * curvatures[k - 1])
    return h


def scatter_hessian(x):
    """Rosenbrock's Hessian at ``x`` built by np.arange index scatter, the
    reference for the strided builder."""
    n = x.shape[0]
    h = np.zeros((n, n))
    diag = np.zeros(n)
    diag[:-1] = 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
    diag[1:] += 200.0
    off = -400.0 * x[:-1]
    h[np.arange(n), np.arange(n)] = diag
    h[np.arange(n - 1), np.arange(1, n)] = off
    h[np.arange(1, n), np.arange(n - 1)] = off
    return h


class TestBeale:
    def test_minimum(self):
        f = beale()
        assert f.value([3.0, 0.5]) == 0.0
        np.testing.assert_array_equal(f.gradient([3.0, 0.5]), [0.0, 0.0])

    def test_origin_value(self):
        assert beale().value([0.0, 0.0]) == pytest.approx(14.203125)

    def test_hessian_finite_at_y_zero(self):
        h = beale().hessian([1.0, 0.0])
        assert np.all(np.isfinite(h))

    # zeros of both signs, subnormals, magnitudes from 2**-1074 to 2**1023
    # (products overflow to inf, and inf - inf gives NaN), inf and NaN
    COORDINATES = st.sampled_from([0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan]) | st.tuples(
        st.sampled_from([-1.0, 1.0]), st.floats(-1074.0, 1023.0)).map(lambda p: p[0] * 2.0 ** p[1])

    @settings(derandomize=True, deadline=None, max_examples=500, database=None)
    @given(COORDINATES, COORDINATES)
    def test_hessian_keeps_the_per_residual_bits(self, x, y):
        with np.errstate(all="ignore"):
            assert beale().hessian([x, y]).tobytes() == per_residual_beale_hessian(x, y).tobytes()


class TestBooth:
    def test_minimum(self):
        f = booth()
        assert f.value([1.0, 3.0]) == 0.0

    def test_origin_derivatives(self):
        f = booth()
        assert f.value([0.0, 0.0]) == pytest.approx(74.0)
        np.testing.assert_allclose(f.gradient([0.0, 0.0]), [-34.0, -38.0])

    def test_constant_hessian_and_spectrum(self):
        f = booth()
        h = f.hessian([0.3, -1.2])
        np.testing.assert_array_equal(h, [[10.0, 8.0], [8.0, 10.0]])
        np.testing.assert_allclose(np.linalg.eigvalsh(h), [2.0, 18.0])


class TestHimmelblau:
    def test_named_minimum(self):
        f = himmelblau()
        assert f.value([3.0, 2.0]) == 0.0
        np.testing.assert_array_equal(f.gradient([3.0, 2.0]), [0.0, 0.0])

    def test_origin_value(self):
        assert himmelblau().value([0.0, 0.0]) == pytest.approx(170.0)

    def test_four_optima(self):
        f = himmelblau()
        assert len(f.known_optima) == 4


class TestQuadraticCounterexample:
    def test_featured_point_gradient(self):
        f = quadratic_counterexample()
        np.testing.assert_allclose(f.gradient([-1.0, -1.5]), [1.0, 1.0])

    def test_hessian(self):
        np.testing.assert_array_equal(
            quadratic_counterexample().hessian([0.0, 0.0]),
            [[-4.0, 2.0], [2.0, -2.0]],
        )

    def test_maximum_at_origin(self):
        f = quadratic_counterexample()
        assert f.sense is Sense.MAXIMIZE
        assert f.value([0.0, 0.0]) == 0.0
        np.testing.assert_array_equal(f.gradient([0.0, 0.0]), [0.0, 0.0])


class TestFiniteDifferenceCheck:
    def test_booth_gradient(self):
        grad_err, _ = finite_difference_check(booth(), [0.3, -1.2])
        assert grad_err <= 1e-6

    def test_rosenbrock_gradient(self):
        grad_err, _ = finite_difference_check(rosenbrock(2), [-1.2, 1.0])
        assert grad_err <= 1e-5

    def test_quadratic_hessian_exact(self):
        rng = np.random.default_rng(3)
        f = quadratic_counterexample()
        for _ in range(5):
            _, hess_err = finite_difference_check(f, rng.uniform(-5, 5, 2))
            assert hess_err <= 1e-7


class TestSuiteInvariants:
    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for f in standard_suite():
            for _ in range(50):
                x = rng.uniform(-5.0, 5.0, f.dim)
                grad_err, hess_err = finite_difference_check(f, x)
                g_scale = 1.0 + np.max(np.abs(f.gradient(x)))
                h_scale = 1.0 + np.max(np.abs(f.hessian(x)))
                assert grad_err / g_scale <= 1e-4
                assert hess_err / h_scale <= 1e-4

    def test_hessians_symmetric(self):
        rng = np.random.default_rng(5)
        for f in standard_suite():
            for _ in range(20):
                h = f.hessian(rng.uniform(-5.0, 5.0, f.dim))
                # spectral_bounds' symmetry test, at 1e-12 rather than SYMMETRY_TOL
                assert np.max(np.abs(h - h.T)) <= 1e-12 * (1.0 + np.max(np.abs(h)))

    def test_known_optima_stationary(self):
        for f in standard_suite():
            assert f.known_optima
            for point, best in f.known_optima:
                assert abs(f.value(point) - best) <= 1e-12
                assert np.linalg.norm(f.gradient(point)) <= 1e-9


class TestRegistry:
    @pytest.mark.parametrize(
        "name,dim",
        [
            ("rosenbrock:2", 2),
            ("rosenbrock:20", 20),
            ("rosenbrock", 2),
            ("beale", 2),
            ("booth", 2),
            ("himmelblau", 2),
            ("quadratic-counterexample", 2),
        ],
    )
    def test_lookup(self, name, dim):
        f = get_function(name)
        assert f.dim == dim

    def test_unknown_name(self):
        with pytest.raises(UnknownFunction):
            get_function("nosuch")

    def test_bad_rosenbrock_dimension(self):
        with pytest.raises(InvalidInput):
            get_function("rosenbrock:1")

    def test_standard_suite_is_the_registry_in_order(self):
        names = [f.name for f in standard_suite()]
        assert names == ["rosenbrock:2", "beale", "booth", "himmelblau",
                         "quadratic-counterexample"]
        assert [get_function(name).name for name in names] == names
