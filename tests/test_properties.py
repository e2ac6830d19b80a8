"""Property tests of run()'s contracts over objectives, methods and start points,
of the linear algebra kernels' finiteness contract, of two of the paper's
claims, and of the CLI's exit codes.

Bad input raises a QuadGradError before the first step; once a run starts
it returns, flagging any breakdown, and it never warns. Reruns are equal.
One inf or NaN anywhere in a kernel's input raises exactly InvalidInput
without a warning; finite input gives the reference bits. A near-symmetric
tridiagonal matrix, at any scale, gives eigvalsh's bits or is refused
exactly where test_linalg's reference symmetry test is False; a symmetric
2 x 2 matrix whose largest entry is in dsterf's range takes dsterf and gives
eigvalsh's bits, and a 1 x 1 matrix gives eigvalsh's bits for any finite
entry. The Newton-ratio
kernels give the same outcome on a list or an int, bool or float32 array as
on the float64 array of the same values.

On any symmetric quadratic, a step of the spectral learning rate lowers the
objective by at least lr |g|^2 / 2; for any symmetric H, diag(row sums of
|H|) - H and diag(row sums of |H|) + H are positive semidefinite. Every argv drawn from the CLI's
flags exits 0, 2 or 3, with no traceback and no warning.
"""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_linalg
from quadgrad import (
    InvalidInput,
    OptimizerConfig,
    QuadGradError,
    SingularMatrix,
    bound_diagonal,
    new_quadratic_gradient,
    newton_ratios,
    pseudoinverse,
    rosenbrock,
    run,
    solve,
    spectral_bounds,
    spectral_learning_rate,
    standard_suite,
)
from quadgrad.bench import main
from quadgrad.gradients import EPSILON
from quadgrad.linalg import SYMMETRY_TOL
from test_optimizers import METHOD_VARIANTS, counted

FUNCTIONS = standard_suite() + [rosenbrock(n) for n in range(3, 7)]

# derandomized so tier-1 draws the same examples on every run
PROPERTY_SETTINGS = settings(
    derandomize=True, deadline=None, max_examples=300, database=None
)


@st.composite
def runs(draw):
    f = draw(st.sampled_from(FUNCTIONS))
    method, variant = draw(st.sampled_from(METHOD_VARIANTS))
    cfg = OptimizerConfig(
        method=method,
        qg_variant=variant,
        stepsize=10.0 ** draw(st.floats(-3.0, 1.0)),
        fixed_hessian=draw(st.booleans()),
        max_iterations=draw(st.integers(1, 15)),
    )
    magnitudes = st.floats(-3.0, 80.0).map(lambda e: 10.0**e)
    coordinates = st.tuples(st.sampled_from([-1.0, 1.0]), magnitudes).map(
        lambda pair: pair[0] * pair[1]
    )
    x0 = np.array(draw(st.lists(coordinates, min_size=f.dim, max_size=f.dim)))
    return f, cfg, x0


def records(traj):
    return traj.diverged, [
        (k, r.objective, r.iterate.tobytes()) for k, r in enumerate(traj.records)
    ]


@PROPERTY_SETTINGS
@given(runs())
def test_run_raises_before_iterating_or_returns_without_warning(case):
    f, cfg, x0 = case
    counted_f, calls = counted(f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            first = run(counted_f, cfg, x0)
        except QuadGradError:
            # only the objective at x0 was evaluated, and it was not finite
            assert calls == {"value": 1}
            with np.errstate(all="ignore"):
                assert not math.isfinite(f.value(x0))
            return
        second = run(f, cfg, x0)
    assert records(first) == records(second)
    assert 1 <= len(first.records) <= cfg.max_iterations + 1
    assert all(math.isfinite(r.objective) for r in first.records)
    assert all(np.all(np.isfinite(r.iterate)) for r in first.records)


# any finite float, so the scale of the entries varies over the whole range
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def symmetric_systems(draw):
    """A finite symmetric matrix, dense or tridiagonal, and a vector of its order
    that may hold a zero."""
    n = draw(st.integers(1, 6))
    tridiagonal = draw(st.booleans())
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(i, min(n, i + 2) if tridiagonal else n):
            h[i, j] = h[j, i] = draw(FINITE)
    g = np.array(draw(st.lists(FINITE, min_size=n, max_size=n)))
    if draw(st.booleans()):
        g[draw(st.integers(0, n - 1))] = 0.0
    return h, g


@st.composite
def poisoned_systems(draw):
    """A symmetric system with NaN, inf or -inf put into the matrix, the vector or
    both: at the first or last entry, off the three central diagonals, or anywhere.
    Returns the matrix, the vector and whether the matrix holds it."""
    h, g = draw(symmetric_systems())
    n = g.shape[0]
    target = draw(st.sampled_from(["matrix", "vector", "both"]))
    if target != "vector":
        corners = [(0, 0), (n - 1, n - 1), (0, n - 1), (n - 1, 0)]  # (0, n - 1) is off-band
        i, j = draw(st.one_of(st.sampled_from(corners),
                              st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        h[i, j] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if draw(st.booleans()):
            h[j, i] = h[i, j]
    if target != "matrix":
        k = draw(st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1)))
        g[k] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return h, g, target != "vector"


@PROPERTY_SETTINGS
@given(poisoned_systems())
def test_non_finite_entry_raises_exactly_invalid_input_without_warning(case):
    h, g, matrix_poisoned = case
    calls = [lambda: solve(h, g), lambda: newton_ratios(h, g)]
    if matrix_poisoned:
        calls += [lambda: spectral_bounds(h), lambda: pseudoinverse(h)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(InvalidInput, match="requires finite inputs") as info:
                call()
            assert type(info.value) is InvalidInput


@PROPERTY_SETTINGS
@given(symmetric_systems())
def test_finite_input_gives_the_reference_bits(case):
    h, g = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = spectral_bounds(h)
        eigenvalues = np.linalg.eigvalsh(h)
        assert (np.array([bounds.lambda_min, bounds.lambda_max]).tobytes()
                == eigenvalues[[0, -1]].tobytes())
        try:
            expected = test_linalg.TestSolve.reference_solve(h, g)
        except SingularMatrix:
            with pytest.raises(SingularMatrix):
                solve(h, g)
        else:
            assert solve(h, g).tobytes() == expected.tobytes()


@st.composite
def near_symmetric_tridiagonals(draw):
    """A tridiagonal matrix whose nonzero entries have magnitudes from 2**-1074 to
    2**1023, around a common scale so that the largest entry is spread over the
    whole float range, including dsyevd's rescaling edges 2**-485 and 2**485.
    Each upper off-diagonal entry differs from the lower one by up to twice
    SYMMETRY_TOL * (1 + m), m the largest diagonal or lower entry, so both sides
    of the tolerance occur; or the pair is upper-dominant: the lower entry is 0
    and the upper one is below 2 * SYMMETRY_TOL in magnitude."""
    n = draw(st.integers(2, 6))
    top = draw(st.sampled_from([-485.0, 485.0, math.log2(2.0 * SYMMETRY_TOL)])
               | st.floats(-1074.0, 1023.0))
    magnitudes = st.floats(max(-1074.0, top - 80.0), min(1023.0, top)).map(lambda e: 2.0**e)
    entries = st.one_of(st.just(0.0), st.tuples(st.sampled_from([-1.0, 1.0]), magnitudes).map(
        lambda pair: pair[0] * pair[1]))
    diagonal = draw(st.lists(entries, min_size=n, max_size=n))
    lower = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    tolerance = SYMMETRY_TOL * (1.0 + max(map(abs, diagonal + lower)))
    upper = list(lower)
    for i in range(n - 1):
        if draw(st.booleans()):
            upper[i] += draw(st.floats(-2.0, 2.0)) * tolerance
        else:
            lower[i], upper[i] = 0.0, draw(st.floats(-2.0 * SYMMETRY_TOL, 2.0 * SYMMETRY_TOL,
                                                     exclude_min=True, exclude_max=True))
    return np.diag(diagonal) + np.diag(lower, -1) + np.diag(upper, 1)


@PROPERTY_SETTINGS
@given(near_symmetric_tridiagonals())
def test_tridiagonal_gives_the_reference_bits_or_refuses_as_the_reference(h):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if test_linalg.reference_is_symmetric(h):
            bounds = spectral_bounds(h)
            eigenvalues = np.linalg.eigvalsh(h)
            assert (np.array([bounds.lambda_min, bounds.lambda_max]).tobytes()
                    == eigenvalues[[0, -1]].tobytes())
        else:
            with pytest.raises(InvalidInput, match="not symmetric") as info:
                spectral_bounds(h)
            assert type(info.value) is InvalidInput


@st.composite
def symmetric_two_by_twos(draw):
    """A symmetric 2 x 2 matrix whose largest entry, in magnitude, is in
    [2 * SYMMETRY_TOL, 2**485] (the edges included); the other two entries
    have any magnitude below it, zero included."""
    sign = st.sampled_from([-1.0, 1.0])
    top = draw(sign) * draw(st.sampled_from([2.0 * SYMMETRY_TOL, 2.0**485])
                            | st.floats(2.0 * SYMMETRY_TOL, 2.0**485))
    below = st.just(0.0) | st.tuples(sign, st.floats(-1074.0, 0.0)).map(
        lambda pair: pair[0] * abs(top) * 2.0 ** pair[1])
    a, b, c = draw(st.permutations([top, draw(below), draw(below)]))
    return np.array([[a, b], [b, c]])


@PROPERTY_SETTINGS
@given(symmetric_two_by_twos())
def test_two_by_two_takes_dsterf_with_the_reference_bits(h):
    eigenvalues = np.linalg.eigvalsh(h)

    def refuse(a, UPLO="L"):
        raise AssertionError("eigvalsh called")

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        patch.setattr(np.linalg, "eigvalsh", refuse)
        bounds = spectral_bounds(h)
    assert np.array([bounds.lambda_min, bounds.lambda_max]).tobytes() == (
        eigenvalues[[0, -1]].tobytes())


@PROPERTY_SETTINGS
@given(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]) | FINITE)
def test_one_by_one_gives_the_reference_bits(v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = spectral_bounds([[v]])
        eigenvalues = np.linalg.eigvalsh([[v]])
    assert np.array([bounds.lambda_min, bounds.lambda_max]).tobytes() == (
        eigenvalues[[0, -1]].tobytes())


# Ways to hand a kernel an operand, each built from a float64 array
FORMS = {
    "float64": lambda a: a,
    "list": lambda a: a.tolist(),
    "int64": lambda a: np.where(np.isfinite(a), a, 0.0).astype(np.int64),
    "bool": lambda a: a != 0.0,
    "float32": lambda a: a.astype(np.float32),
}
SMALL_INTEGERS = st.integers(-4, 4).map(float)
SUBNORMAL = 2.0**-1074


@st.composite
def newton_operands(draw):
    """h and g in any two FORMS: h of small integers, now and then inf or NaN;
    g of small integers, 0.0, -0.0, NaN, inf and a subnormal. One time in four
    the order of h is one more than the length of g."""
    n = draw(st.integers(1, 5))
    order = n + draw(st.sampled_from([0, 0, 0, 1]))
    h_entries = SMALL_INTEGERS
    if draw(st.booleans()):
        h_entries |= st.sampled_from([math.nan, math.inf])
    g_entries = SMALL_INTEGERS | st.sampled_from([0.0, -0.0, math.nan, math.inf, SUBNORMAL])
    h = np.array(draw(st.lists(h_entries, min_size=order**2, max_size=order**2)))
    g = np.array(draw(st.lists(g_entries, min_size=n, max_size=n)))
    forms = st.sampled_from(list(FORMS.values()))
    return draw(forms)(h.reshape(order, order)), draw(forms)(g)


def outcome(call, h, g):
    """The result's dtype and bytes (and which path it took), or the type of the
    QuadGradError it raised; plus the messages of the warnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(h, g)
        except QuadGradError as exc:
            return type(exc), [str(w.message) for w in caught]
    if call is newton_ratios:
        result, path = result.ratios, result.used_pseudoinverse
    else:
        path = None
    return (result.dtype, result.tobytes(), path), [str(w.message) for w in caught]


@PROPERTY_SETTINGS
@given(newton_operands())
def test_newton_ratio_operands_in_any_real_form_give_the_float64_outcome(case):
    h, g = case
    h64, g64 = np.asarray(h, dtype=float), np.asarray(g, dtype=float)
    for call in (newton_ratios, new_quadratic_gradient):
        expected, expected_warnings = outcome(call, h64, g64)
        got, got_warnings = outcome(call, h, g)
        assert got == expected and got_warnings == expected_warnings
        assert got is InvalidInput or (type(got) is tuple and got[0] == np.float64)
        # a subnormal g_i can overflow r_i = solve(h, g)_i / g_i or 1 / sigma in
        # pseudoinverse, which warns in either form; nothing else warns
        if not (g64 == SUBNORMAL).any():
            assert got_warnings == []


@st.composite
def symmetric_matrices(draw, max_order):
    """A symmetric matrix of order 1 to ``max_order`` with any inertia and any
    rank, zero included, and entries of scale 1e-3 to 1e3; plus the
    generator that drew it, for vectors of the same scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_order))
    rank = draw(st.integers(0, n))
    factor = rng.standard_normal((n, rank))
    m = (factor * rng.choice([-1.0, 1.0], rank)) @ factor.T
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return scale * (m + m.T) / 2.0, rng


@PROPERTY_SETTINGS
@given(symmetric_matrices(11))
def test_spectral_rate_meets_the_quadratic_lemma(case):
    # f(x) = x'Hx/2 + b'x: one step of lr = 1 / (eps + max|lambda_i|) along
    # g = Hx + b lowers f by at least lr |g|^2 / 2, whatever the inertia of H
    h, rng = case
    x, b = rng.standard_normal((2, h.shape[0])) * 10.0 ** rng.uniform(-3.0, 3.0, 2)[:, None]

    def f(v):
        return v @ h @ v / 2.0 + b @ v

    g = h @ x + b
    lr = spectral_learning_rate(h)
    slack = 1e-12 * (abs(x @ h @ x / 2.0) + abs(b @ x) + lr * (g @ g))
    assert f(x - lr * g) <= f(x) - lr * (g @ g) / 2.0 + slack


@PROPERTY_SETTINGS
@given(symmetric_matrices(11))
def test_row_sum_diagonal_bounds_the_hessian_both_ways(case):
    # diag(sum_j |h_ij|) - H and diag(sum_j |h_ij|) + H are diagonally dominant
    # (Gershgorin), so PSD: the row-sum accelerator's fixed-Hessian condition
    h, _ = case
    n = h.shape[0]
    d = np.diag(1.0 / bound_diagonal(h) - EPSILON)
    tolerance = 1e-14 * n * (np.abs(h).max() + EPSILON)
    for bound in (d - h, d + h):
        assert np.linalg.eigvalsh(bound)[0] >= -tolerance


def option_values(out_dir):
    """Each documented CLI flag, with a valid value half the time and an invalid
    one otherwise, sized so that no draw runs more than 30 iterations at more
    than 10 variables."""
    def either(valid, invalid):
        return st.sampled_from(valid) | st.sampled_from(invalid)

    coordinate = st.sampled_from(["0", "-1", "2.5", "1e300", "nan", "inf", "1j", ""])
    return {
        "--experiment": either(["lemma-lr", "adam-qg"], ["nosuch"]),
        "--function": either(["booth", "beale", "himmelblau", "rosenbrock", "rosenbrock:10",
                              "quadratic-counterexample"],
                             ["nosuch", "", "rosenbrock:x", "rosenbrock:-1", "rosenbrock:1",
                              "rosenbrock:" + "9" * 5000, f"rosenbrock:{10**20}"]),
        "--nvars": either(["2", "5", "10"], ["-2", "0", "1", "x", "2.5", str(2**62)]),
        "--iters": either(["0", "1", "30"], ["-1", "x", "1e3"]),
        "--x0": st.sampled_from(["0,0", "-1,-1", "1,2.5"])
        | st.lists(coordinate, max_size=4).map(",".join),
        "--eta": either(["0.5", "1", "2", "1e13"], ["nan", "inf", "-inf", "-1", "0", "x", ""]),
        "--out": either([str(out_dir / "table.csv")], [str(out_dir / "missing" / "t.csv")]),
    }


@settings(PROPERTY_SETTINGS, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_exits_0_2_or_3_without_a_traceback_or_a_warning(tmp_path, data):
    # tmp_path is shared by the examples; each overwrites the one table it writes
    values = option_values(tmp_path)
    flags = data.draw(st.lists(st.sampled_from([*values, "--fixed-hessian", "--bogus"]),
                               max_size=5))
    # "--flag=value", so that a value starting with "-" reaches the option
    argv = [f"{flag}={data.draw(values[flag])}" if flag in values else flag for flag in flags]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    assert (stderr.getvalue() == "") == (code == 0)
