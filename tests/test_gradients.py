import math
import warnings

import numpy as np
import pytest

from quadgrad import (
    InvalidInput,
    bound_diagonal,
    new_quadratic_gradient,
    newton_ratios,
    solve,
    rosenbrock,
    spectral_learning_rate,
)
from quadgrad.gradients import EPSILON
from helpers import (
    peak_traced_bytes,
    random_invertible_symmetric,
    random_nonzero_vector,
    random_rank_deficient_symmetric,
    random_symmetric,
)

H_F = np.array([[-4.0, 2.0], [2.0, -2.0]])


def with_entry(a, index, value):
    """A float copy of ``a`` with ``a[index]`` set to ``value``."""
    a = np.array(a, dtype=float)
    a[index] = value
    return a


# Every memory layout a caller can hand bound_diagonal, built at order n
LAYOUTS = {
    "c-order": lambda rng, n: rng.standard_normal((n, n)),
    "f-order": lambda rng, n: np.asfortranarray(rng.standard_normal((n, n))),
    "transposed": lambda rng, n: rng.standard_normal((n, n)).T,
    "row-strided": lambda rng, n: rng.standard_normal((2 * n, n))[::2],
    "column-strided": lambda rng, n: rng.standard_normal((n, 2 * n))[:, ::2],
    "int": lambda rng, n: rng.integers(-1000, 1000, (n, n)),
}


class TestBoundDiagonal:
    def test_identity_rows(self):
        diag = bound_diagonal(np.eye(2))
        np.testing.assert_allclose(diag, [1.0 / (1.0 + EPSILON)] * 2)

    def test_counterexample_row_sums(self):
        np.testing.assert_allclose(bound_diagonal(H_F), [1.0 / 6.0, 1.0 / 4.0], rtol=1e-8)

    def test_zero_matrix_epsilon_only(self):
        np.testing.assert_array_equal(bound_diagonal(np.zeros((2, 2))), [1.0 / EPSILON] * 2)

    def test_reciprocal_row_sum_identity(self):
        # the literal construction: diag[j] * (eps + rowsum_j) == 1 to roundoff
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            h = random_symmetric(rng, n, scale=10.0 ** rng.uniform(-10, 2))
            products = bound_diagonal(h) * (EPSILON + np.sum(np.abs(h), axis=1))
            np.testing.assert_allclose(products, np.ones(n), rtol=1e-15)

    # 64 is the row-block size: one block, one block plus a one-row tail, ...
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 257, 1000])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_row_sums_bit_identical_to_one_shot_sum(self, layout, n):
        m = LAYOUTS[layout](np.random.default_rng(n), n)
        expected = 1.0 / (EPSILON + np.sum(np.abs(m), axis=1))
        got = bound_diagonal(m)
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    def test_makes_no_copy_of_the_matrix(self):
        h = rosenbrock(300).hessian(np.linspace(-2.0, 2.0, 300))
        assert peak_traced_bytes(bound_diagonal, h) < 0.5 * h.nbytes

    # an inf entry once gave that row a silent 0, a NaN entry a NaN; the guard reads
    # every row sum, so a bad one in the first, middle or last row is refused alike
    @pytest.mark.parametrize("h", [
        pytest.param([[np.inf, 0.0], [0.0, 1.0]], id="inf"),
        pytest.param([[1.0, 0.0], [0.0, -np.inf]], id="minus-inf"),
        pytest.param([[np.nan, 0.0], [0.0, 1.0]], id="nan"),
        pytest.param([[1e308, 1e308], [0.0, 1.0]], id="overflowing-row-sum"),
    ] + [
        pytest.param(with_entry(np.eye(3), (row, 2 - row), value), id=f"{name}-in-row-{row}")
        for row in range(3) for name, value in [("nan", np.nan), ("inf", np.inf),
                                                ("minus-inf", -np.inf)]
    ])
    def test_nonfinite_row_sum_raises(self, h):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput) as info:
                bound_diagonal(h)
        assert type(info.value) is InvalidInput
        assert str(info.value) == "bound_diagonal requires finite row sums of |hbar|"

    def test_huge_finite_row_sums_are_accepted_without_a_warning(self):
        # their squares overflow: a guard built on sums.dot(sums) would warn here
        h = np.array([[1e200, -1e200, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, -1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diag = bound_diagonal(h)
        assert diag.tolist() == [1.0 / (EPSILON + 2e200), 1.0 / (EPSILON + 1e200),
                                 1.0 / (EPSILON + 1e200)]


class TestQuadraticGradient:
    def test_sign_preservation(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            h = random_invertible_symmetric(rng, n)
            g = random_nonzero_vector(rng, n)
            original = bound_diagonal(h) * g
            fresh = new_quadratic_gradient(h, g)
            np.testing.assert_array_equal(np.sign(original), np.sign(g))
            np.testing.assert_array_equal(np.sign(fresh), np.sign(g))


class TestNewtonRatios:
    def test_counterexample_worked_values(self):
        r = newton_ratios(H_F, [1.0, 1.0])
        np.testing.assert_allclose(r.ratios, [-1.0, -1.5], atol=1e-12)
        assert not r.used_pseudoinverse

    def test_identity_hessian_gives_unit_ratios(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            g = random_nonzero_vector(rng, 3)
            r = newton_ratios(np.eye(3), g)
            np.testing.assert_allclose(r.ratios, np.ones(3), atol=1e-12)

    def test_zero_gradient_entry_takes_pseudoinverse_path(self):
        r = newton_ratios(np.eye(2), [1.0, 0.0])
        np.testing.assert_allclose(r.ratios, [1.0, 0.0], atol=1e-14)
        assert r.used_pseudoinverse

    def test_singular_hessian_takes_pseudoinverse_path(self):
        r = newton_ratios(np.zeros((2, 2)), [1.0, 2.0])
        assert r.used_pseudoinverse
        np.testing.assert_allclose(r.ratios, np.zeros(2), atol=1e-14)

    def test_zero_hessian_gives_positive_zero_ratios(self):
        r = newton_ratios(np.zeros((3, 3)), [1.0, -2.0, 3.0])
        assert r.used_pseudoinverse
        assert r.ratios.tobytes() == np.zeros(3).tobytes()

    def test_consistency_with_solve(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            h = random_invertible_symmetric(rng, n)
            g = random_nonzero_vector(rng, n)
            r = newton_ratios(h, g)
            newton_step = solve(h, g)
            assert np.max(np.abs(r.ratios * g - newton_step)) <= 1e-8

    # solve scans h and g on both branches; with a zero entry pseudoinverse
    # scans h @ diag(g), where a finite product that overflows becomes inf.
    # A bad g entry first, in the middle or last is refused alike, with or without
    # a zero entry elsewhere
    @pytest.mark.parametrize("h, g, who", [
        pytest.param([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0], "solve", id="nan-h"),
        pytest.param(np.eye(2), [np.inf, 1.0], "solve", id="inf-g"),
        pytest.param(np.eye(2), [np.nan, 1.0], "solve", id="nan-g"),
        pytest.param([[np.nan, 0.0], [0.0, 1.0]], [1.0, 0.0], "solve", id="nan-h-zero-g"),
        pytest.param(np.eye(2), [np.inf, 0.0], "solve", id="inf-g-zero-g"),
        pytest.param(np.eye(2), [np.nan, 0.0], "solve", id="nan-g-zero-g"),
        pytest.param([[1.0, np.inf], [np.inf, 1.0]], [1.0, 0.0], "solve",
                     id="inf-h-times-zero-g"),
        pytest.param(1e200 * np.eye(2), [1e200, 0.0], "pseudoinverse", id="product-overflows"),
    ] + [
        pytest.param(np.eye(3), with_entry(g, at, value), "solve",
                     id=f"{name}-g-at-{at}{suffix}")
        for g, suffix in [([1.0, 2.0, 3.0], ""), ([0.0, 2.0, 0.0], "-zero-g")]
        for at in range(3)
        for name, value in [("nan", np.nan), ("inf", np.inf), ("minus-inf", -np.inf)]
    ])
    def test_rejects_nonfinite_input(self, h, g, who):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput) as info:
                newton_ratios(np.array(h), g)
        assert type(info.value) is InvalidInput
        assert str(info.value) == f"{who} requires finite inputs"

    @pytest.mark.parametrize("g", [[1e200, -1e200, 1e200], [1e200, 0.0, -1e200]],
                             ids=["exact-path", "fallback"])
    def test_huge_finite_gradient_is_accepted_without_a_warning(self, g):
        # g.dot(g) overflows: a guard built on it would warn here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = newton_ratios(np.eye(3), g)
        assert r.used_pseudoinverse == (0.0 in g)
        np.testing.assert_allclose(r.ratios, [1.0, 0.0 if 0.0 in g else 1.0, 1.0])

    @pytest.mark.parametrize("zero_entry", [False, True], ids=["singular-h", "zero-g"])
    def test_fallback_holds_the_product_and_the_svd(self, zero_entry):
        # h @ diag(g), then pseudoinverse's SVD factors and result: no fifth copy
        rng = np.random.default_rng(26)
        h = random_rank_deficient_symmetric(rng, 300, 200)
        g = random_nonzero_vector(rng, 300)
        if zero_entry:
            g[7] = 0.0
        assert newton_ratios(h, g).used_pseudoinverse
        assert peak_traced_bytes(newton_ratios, h, g) <= 4.1 * h.nbytes

    # solve checks the pairing on both branches
    @pytest.mark.parametrize("order, g", [(2, [1.0, 2.0, 3.0]), (2, [1.0, 0.0, 3.0]),
                                          (3, [1.0, 2.0])],
                             ids=["exact-path", "fallback", "short-gradient"])
    def test_order_mismatch_gives_one_message(self, order, g):
        with pytest.raises(InvalidInput) as info:
            newton_ratios(np.eye(order), g)
        assert str(info.value) == f"matrix order {order} does not match vector length {len(g)}"

    def test_counterexample_breaks_loewner_bound(self):
        # x^T (H_F - diag(r)) x goes negative: the ratio diagonal is not a
        # valid lower bound matrix for this maximization problem
        r = newton_ratios(H_F, [1.0, 1.0])
        gap = H_F - np.diag(r.ratios)
        rng = np.random.default_rng(26)
        quad_forms = [x @ gap @ x for x in rng.standard_normal((100, 2))]
        assert min(quad_forms) < 0.0


class TestNewQuadraticGradient:
    def test_counterexample_vector(self):
        qg = new_quadratic_gradient(H_F, [1.0, 1.0])
        np.testing.assert_allclose(qg, [1.0, 1.0 / 1.5], rtol=1e-7)

    def test_identity_hessian(self):
        qg = new_quadratic_gradient(np.eye(2), [2.0, -3.0])
        np.testing.assert_allclose(qg, [2.0, -3.0], rtol=1e-7)

    def test_zero_gradient(self):
        np.testing.assert_array_equal(new_quadratic_gradient(H_F, np.zeros(2)), np.zeros(2))

    def test_zero_ratio_entries_do_not_blow_up(self):
        # gradient entries of zero produce zero ratios; the guarded 1/eps
        # accelerator entry multiplies a zero gradient entry
        qg = new_quadratic_gradient(np.eye(3), [1.0, 0.0, 2.0])
        diag = 1.0 / (EPSILON + np.abs(newton_ratios(np.eye(3), [1.0, 0.0, 2.0]).ratios))
        assert diag[1] == pytest.approx(1.0 / EPSILON)
        assert qg[1] == 0.0
        assert np.all(np.isfinite(qg))

    @pytest.mark.parametrize("g", [[1.0, 1.0], [-2.0, -2.0]])
    def test_zero_newton_step_entry_amplifies_by_one_over_epsilon(self, g):
        # h^-1 g = (0, g_2): a nonzero gradient entry with a zero ratio reaches |g_i| / EPSILON
        h = [[2.0, 1.0], [1.0, 1.0]]
        np.testing.assert_array_equal(newton_ratios(h, g).ratios, [0.0, 1.0])
        np.testing.assert_array_equal(new_quadratic_gradient(h, g),
                                      [g[0] / EPSILON, g[1] / (EPSILON + 1.0)])
        near = new_quadratic_gradient(h, [1.0, 1.0 + 1e-9])
        assert 9e7 < near[0] < 1.0 / EPSILON

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            new_quadratic_gradient(np.eye(2), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("h, g, expected", [
        # a subnormal g_1 overflows r_1 = solve(h, g)_1 / g_1 to -inf: G_1 = 0
        ([[1.0, 1.0], [1.0, 2.0]], [5e-324, 1.0], [0.0, 1.0 / (EPSILON + 1.0)]),
        # a zero ratio amplifies a huge g_1 by 1 / EPSILON beyond the float range
        ([[2.0, 1.0], [1.0, 1.0]], [1e308, 1e308], [math.inf, 1e308 / (EPSILON + 1.0)]),
    ], ids=["subnormal-gradient", "overflowing-product"])
    def test_overflow_gives_inf_or_zero_without_a_warning(self, h, g, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert new_quadratic_gradient(h, g).tolist() == expected


class TestSpectralLearningRate:
    def test_identity(self):
        assert spectral_learning_rate(np.eye(2)) == pytest.approx(1.0, rel=1e-7)

    def test_booth_hessian(self):
        rate = spectral_learning_rate([[10.0, 8.0], [8.0, 10.0]])
        assert rate == pytest.approx(1.0 / 18.0, rel=1e-8)

    def test_counterexample_hessian(self):
        rate = spectral_learning_rate(H_F)
        assert rate == pytest.approx(1.0 / (3.0 + math.sqrt(5.0)), rel=1e-8)

    def test_positive_and_finite(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            rate = spectral_learning_rate(random_symmetric(rng, 5))
            assert 0.0 < rate < math.inf

    def test_propagates_invalid_matrix(self):
        with pytest.raises(InvalidInput):
            spectral_learning_rate([[0.0, 1.0], [0.5, 0.0]])
