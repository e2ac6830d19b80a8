import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadgrad.functions as functions
import quadgrad.linalg as linalg
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

    @pytest.mark.parametrize("n", [2, 3, functions._FLOAT_MAX_N, functions._FLOAT_MAX_N + 1,
                                   64, 65, 400, 1000])
    def test_hessian_matches_index_scatter_bit_for_bit(self, n):
        x = np.random.default_rng(n).uniform(-2.0, 2.0, n)
        expected = scatter_hessian(x)
        assert rosenbrock(n).hessian(x).view(np.int64).tobytes() == (
            expected.view(np.int64).tobytes()
        )

    @pytest.mark.parametrize("n", [2, functions._FLOAT_MAX_N, functions._FLOAT_MAX_N + 1])
    @pytest.mark.parametrize("call", ["value", "gradient", "hessian"])
    def test_callables_refuse_a_point_of_the_wrong_shape(self, n, call):
        evaluate = getattr(rosenbrock(n), call)
        for point in ([1.0] * (n + 1), [1.0] * (n - 1), [2.0], [[1.0] * n], None, 3.0):
            with pytest.raises(ValueError, match=rf"needs a point of shape \({n},\)"):
                evaluate(point)
        assert np.asarray(evaluate([1] * n)).tobytes() == np.asarray(evaluate(np.ones(n))).tobytes()


# zeros of both signs, subnormals, the smallest normal, squares that overflow to
# inf (and inf - inf, which gives NaN), and the optimum's neighbourhood
ROSENBROCK_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e154, -1e154, 1e200, -1e300,
                       1.7e308, 0.5, 1.0, 3.0]


@st.composite
def rosenbrock_points(draw):
    """A point for n from 2 to the float path's largest: each entry a normal
    scaled by 10**U(-3, 3), or one of ``ROSENBROCK_SPECIALS``."""
    n = draw(st.integers(2, functions._FLOAT_MAX_N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    normals = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    specials = draw(st.lists(st.none() | st.sampled_from(ROSENBROCK_SPECIALS),
                             min_size=n, max_size=n))
    return np.array([v if s is None else s for v, s in zip(normals.tolist(), specials)])


@settings(derandomize=True, deadline=None, max_examples=1000, database=None)
@given(x=rosenbrock_points())
def test_rosenbrock_floats_are_the_arrays_bit_for_bit(x):
    n = x.shape[0]
    floats = functions._rosenbrock_floats(n)
    with np.errstate(all="ignore"):
        arrays = functions._rosenbrock_arrays(n)
        expected = [np.asarray(call(x)).tobytes() for call in arrays]
    assert type(floats[0](x)) is float
    assert [np.asarray(call(x)).tobytes() for call in floats] == expected


@pytest.mark.parametrize("length", range(1, 128))
def test_pairwise_sum_is_numpy_add_reduce(length):
    # the float path's value sums fewer than 128 terms; -0.0 terms show where
    # the sum starts from 0.0
    rng = np.random.default_rng(length)
    for trial in range(40):
        terms = rng.standard_normal(length) * 10.0 ** rng.uniform(-3.0, 3.0, length)
        terms[rng.random(length) < trial / 40] = -0.0
        assert (np.float64(functions._pairwise_sum(terms.tolist())).tobytes()
                == np.add.reduce(terms).tobytes())
    for terms in (np.full(length, -0.0), np.arange(length) * -0.5 + 1e16):
        assert (np.float64(functions._pairwise_sum(terms.tolist())).tobytes()
                == np.add.reduce(terms).tobytes())


def beale_residuals(x, y):
    return [c + x * (y**k - 1.0) for k, c in enumerate((1.5, 2.25, 2.625), start=1)]


def per_residual_beale_hessian(x, y):
    """Beale's Hessian at numpy float64 scalars (x, y), summed from zeros one
    residual k at a time, each term from its own outer product."""
    r = beale_residuals(x, y)
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


# (value, gradient, Hessian) of each fixed 2-D objective at numpy float64
# scalars (x, y), as the library computed them before it read its point as
# Python floats: every power is numpy's scalar pow, and every sum() starts at 0
NUMPY_SCALAR_FORMULAS = {
    "beale": (
        lambda x, y: sum(r * r for r in beale_residuals(x, y)),
        lambda x, y: [
            sum(2.0 * r * (y**k - 1.0) for k, r in enumerate(beale_residuals(x, y), start=1)),
            sum(2.0 * r * k * x * y ** (k - 1)
                for k, r in enumerate(beale_residuals(x, y), start=1))],
        per_residual_beale_hessian,
    ),
    "booth": (
        lambda x, y: (x + 2.0 * y - 7.0) ** 2 + (2.0 * x + y - 5.0) ** 2,
        lambda x, y: [2.0 * (x + 2.0 * y - 7.0) + 4.0 * (2.0 * x + y - 5.0),
                      4.0 * (x + 2.0 * y - 7.0) + 2.0 * (2.0 * x + y - 5.0)],
        lambda x, y: [[10.0, 8.0], [8.0, 10.0]],
    ),
    "himmelblau": (
        lambda x, y: (x * x + y - 11.0) ** 2 + (x + y * y - 7.0) ** 2,
        lambda x, y: [4.0 * x * (x * x + y - 11.0) + 2.0 * (x + y * y - 7.0),
                      2.0 * (x * x + y - 11.0) + 4.0 * y * (x + y * y - 7.0)],
        lambda x, y: [[12.0 * x * x + 4.0 * y - 42.0, 4.0 * x + 4.0 * y],
                      [4.0 * x + 4.0 * y, 12.0 * y * y + 4.0 * x - 26.0]],
    ),
    "quadratic-counterexample": (
        lambda x, y: -2.0 * x * x + 2.0 * x * y - y * y,
        lambda x, y: [-4.0 * x + 2.0 * y, 2.0 * x - 2.0 * y],
        lambda x, y: [[-4.0, 2.0], [2.0, -2.0]],
    ),
}

# zeros of both signs, subnormals, magnitudes from 2**-1074 to 2**1023
# (products overflow to inf, and inf - inf gives NaN), inf and NaN
COORDINATES = st.sampled_from([0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan]) | st.tuples(
    st.sampled_from([-1.0, 1.0]), st.floats(-1074.0, 1023.0)).map(lambda p: p[0] * 2.0 ** p[1])


@pytest.mark.parametrize("v", [0.0, -0.0, 5e-324, 1.5, -1.5, 1e103, -1e103, 1e155, -1e155,
                               math.inf, -math.inf, math.nan,
                               pytest.param(-math.nan, id="-nan")])
def test_pow_is_the_numpy_scalar_pow_without_a_warning(v):
    # beyond the float range (1e103**3, 1e155**2) Python's ** raises, and it
    # hands a NaN back as it came, where pow(-nan, 1) is +nan
    for k in range(4):
        with np.errstate(all="ignore"):
            expected = np.float64(v) ** k
        assert np.float64(functions._pow(v, k)).tobytes() == expected.tobytes()


def assert_numpy_scalar_bits(function_id, x, y):
    """The library's value, gradient and Hessian at (x, y) are the bytes of the
    numpy-scalar formulas, ``value`` is a float, and the library warns on
    nothing (a warning fails the test); the reference warns, so it runs silenced."""
    f = get_function(function_id)
    with np.errstate(all="ignore"):
        value, gradient, hessian = (formula(np.float64(x), np.float64(y))
                                    for formula in NUMPY_SCALAR_FORMULAS[function_id])
    assert type(f.value([x, y])) is float
    assert np.float64(f.value([x, y])).tobytes() == np.float64(value).tobytes()
    assert f.gradient([x, y]).tobytes() == np.array(gradient).tobytes()
    assert f.hessian([x, y]).tobytes() == np.array(hessian).tobytes()


@pytest.mark.parametrize("function_id", NUMPY_SCALAR_FORMULAS)
@settings(derandomize=True, deadline=None, max_examples=500, database=None)
@given(x=COORDINATES, y=COORDINATES)
def test_fixed_2d_objectives_keep_the_numpy_scalar_bits(function_id, x, y):
    assert_numpy_scalar_bits(function_id, x, y)


@pytest.mark.parametrize("function_id", NUMPY_SCALAR_FORMULAS)
def test_fixed_2d_objectives_keep_the_numpy_scalar_bits_at_random_points(function_id):
    # full random mantissas, which powers of two lack: pow(v, 2) and v * v
    # differ on about 1 in 1,100 of them. At these 4,000 points, squaring any
    # one residual of Booth or Himmelblau by a product changes some values
    for x, y in np.random.default_rng(3).uniform(-10.0, 10.0, (4000, 2)).tolist():
        assert_numpy_scalar_bits(function_id, x, y)


CALLABLES = ("value", "gradient", "hessian")


@pytest.mark.parametrize("function_id", NUMPY_SCALAR_FORMULAS)
@pytest.mark.parametrize("call", CALLABLES)
def test_fixed_2d_callables_read_a_point_by_one_rule(function_id, call):
    evaluate = getattr(get_function(function_id), call)
    with pytest.raises(ValueError):
        evaluate([1.0, 2.0, 3.0])
    with pytest.raises(TypeError):
        evaluate(None)
    # every real form of a point gives the bytes of its float64 array
    expected = np.asarray(evaluate(np.array([3.0, -2.0]))).tobytes()
    for point in ([3, -2], (3.0, -2.0), np.array([3, -2], dtype=np.int32),
                  np.array([3.0, -2.0], dtype=np.float32)):
        assert np.asarray(evaluate(point)).tobytes() == expected
    assert (np.asarray(evaluate(np.array([True, False]))).tobytes()
            == np.asarray(evaluate(np.array([1.0, 0.0]))).tobytes())


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

    @staticmethod
    def differences(f, x):
        """The central differences less the analytic gradient and Hessian, with the steps
        and the order of ``finite_difference_check``'s documented formula."""
        h, n = 1e-5, x.shape[0]
        fd_grad, fd_hess = np.zeros(n), np.zeros((n, n))
        for j in range(n):
            step = np.zeros(n)
            step[j] = h
            fd_grad[j] = (f.value(x + step) - f.value(x - step)) / (2.0 * h)
            fd_hess[:, j] = (f.gradient(x + step) - f.gradient(x - step)) / (2.0 * h)
        return fd_grad - f.gradient(x), fd_hess - f.hessian(x)

    def test_returns_the_bits_of_the_max_abs_of_its_differences(self):
        # Booth with a value that jumps to inf beside (0, 0): an inf difference quotient
        cliff = dataclasses.replace(booth(), value=lambda x: math.inf if x[0] > 0 else 0.0)
        cases = [(f, np.linspace(-1.0, 1.0, f.dim) * c)
                 for f in [*standard_suite(), rosenbrock(29)] for c in (-0.7, 1e100, 1e200)]
        returned = set()
        for f, x in [*cases, (cliff, np.zeros(2))]:
            errors = finite_difference_check(f, x)
            with np.errstate(all="ignore"):
                expected = [float(np.max(np.abs(d))) for d in self.differences(f, x)]
            assert all(type(error) is float for error in errors)
            assert np.array(errors).tobytes() == np.array(expected).tobytes()
            returned.update("nan" if math.isnan(e) else "inf" if math.isinf(e) else "finite"
                            for e in errors)
        assert returned == {"nan", "inf", "finite"}


class TestAsPoint:
    """``as_point``'s finiteness guard, on both sides of ``_max_abs``'s dlange switch."""

    SIZES = [linalg._DLANGE_MAX_ENTRIES, linalg._DLANGE_MAX_ENTRIES + 1]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    def test_refuses_a_non_finite_entry(self, n, bad, at):
        x = np.ones(n)
        x[{"first": 0, "middle": n // 2, "last": n - 1}[at]] = bad
        with pytest.raises(InvalidInput, match=r"^x0 must be finite$"):
            functions.as_point(x, rosenbrock(n), "x0")

    @pytest.mark.parametrize("n", SIZES)
    def test_accepts_the_float_range_without_a_warning(self, n):
        x = np.full(n, 1e308)
        x[::2] = -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert functions.as_point(x, rosenbrock(n), "x0").tobytes() == x.tobytes()


class TestDirectCallWarnings:
    @pytest.mark.parametrize("c", [1e100, 1e200])
    def test_no_call_warns_at_large_coordinates(self, c):
        # Rosenbrock above the float path's sizes computes on numpy arrays, where it
        # overflows (and a gradient entry between two others adds -inf to inf) quietly
        seen = {}
        for f in [*standard_suite(), rosenbrock(functions._FLOAT_MAX_N),
                  rosenbrock(functions._FLOAT_MAX_N + 1)]:
            calls = {"value": f.value, "gradient": f.gradient, "hessian": f.hessian,
                     "finite_difference_check": lambda x: finite_difference_check(f, x)}
            for name, call in calls.items():
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    call(np.full(f.dim, c))
                if caught:
                    seen[f.name, name] = {str(w.message) for w in caught}
        assert seen == {}


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

    @pytest.mark.parametrize("name", ["nosuch", "booth\n", "rosenbrock\n", "rosenbrock:5\n",
                                      "rosenbrock:\u0665", "rosenbrock:\uff15"])
    def test_unknown_name(self, name):
        with pytest.raises(UnknownFunction):
            get_function(name)

    def test_bad_rosenbrock_dimension(self):
        with pytest.raises(InvalidInput):
            get_function("rosenbrock:1")

    def test_standard_suite_is_the_registry_in_order(self):
        names = [f.name for f in standard_suite()]
        assert names == ["rosenbrock:2", "beale", "booth", "himmelblau",
                         "quadratic-counterexample"]
        assert [get_function(name).name for name in names] == names
