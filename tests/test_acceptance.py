"""Acceptance battery: one test per release criterion, with a printed
pass/fail line each (run with ``pytest tests/test_acceptance.py -v -s``)."""

import functools
import math
import time

import numpy as np

from quadgrad import (
    CsvTable,
    Method,
    OptimizerConfig,
    Variant,
    booth,
    experiment_adam_qg,
    experiment_lemma_lr,
    finite_difference_check,
    newton_ratios,
    pseudoinverse,
    quadratic_counterexample,
    rosenbrock,
    run,
    solve,
    spectral_bounds,
    standard_suite,
)
from helpers import (
    random_invertible_symmetric,
    random_nonzero_vector,
    random_rank_deficient_symmetric,
    random_symmetric,
)

H_F = np.array([[-4.0, 2.0], [2.0, -2.0]])


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] FAIL  {label}", flush=True)
                raise
            print(f"[acceptance] PASS  {label}", flush=True)

        return wrapper

    return decorate


@criterion("1 counterexample reproduction: ratios (-1,-1.5), Loewner bound broken")
def test_c1_counterexample_reproduction():
    start = time.perf_counter()
    r = newton_ratios(H_F, np.array([1.0, 1.0]))
    assert np.max(np.abs(r.ratios - np.array([-1.0, -1.5]))) <= 1e-10
    gap = H_F - np.diag(r.ratios)
    rng = np.random.default_rng(100)
    assert min(x @ gap @ x for x in rng.standard_normal((100, 2))) < 0.0
    assert time.perf_counter() - start < 1.0


@criterion("2 Rayleigh quotient bounded by eigenvalue extremes")
def test_c2_rayleigh_lemma_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        h = random_symmetric(rng, n)
        bounds = spectral_bounds(h)
        x = rng.standard_normal((100, n))
        quotients = np.einsum("ij,jk,ik->i", x, h, x) / np.einsum("ij,ij->i", x, x)
        assert np.all(quotients >= bounds.lambda_min - 1e-9)
        assert np.all(quotients <= bounds.lambda_max + 1e-9)
    assert time.perf_counter() - start < 1.0


@criterion("3 spectral-rate descent converges monotonically on the quadratics")
def test_c3_spectral_rate_convergence():
    start = time.perf_counter()
    cfg = OptimizerConfig(method=Method.GD_SPECTRAL, max_iterations=500)

    traj = run(booth(), cfg, [0.0, 0.0])
    values = traj.objectives()
    assert values[-1] <= 1e-6
    assert all(b <= a for a, b in zip(values, values[1:]))

    # the maximization counterexample starts at its featured point; (0, 0)
    # is already the optimum
    traj = run(quadratic_counterexample(), cfg, [-1.0, -1.5])
    losses = [-v for v in traj.objectives()]
    assert losses[-1] <= 1e-6
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert time.perf_counter() - start < 1.0


@criterion("4 analytic derivatives match finite differences on all five functions")
def test_c4_derivative_correctness():
    rng = np.random.default_rng(102)
    for f in standard_suite():
        for _ in range(50):
            x = rng.uniform(-5.0, 5.0, f.dim)
            grad_err, hess_err = finite_difference_check(f, x)
            assert grad_err / (1.0 + np.max(np.abs(f.gradient(x)))) <= 1e-4
            assert hess_err / (1.0 + np.max(np.abs(f.hessian(x)))) <= 1e-4


@criterion("5 pseudoinverse satisfies the four Penrose conditions")
def test_c5_penrose_conditions():
    rng = np.random.default_rng(103)
    for case in range(60):
        n = int(rng.integers(1, 11))
        if case % 2 == 0 or n == 1:
            a = random_symmetric(rng, n)
        else:
            a = random_rank_deficient_symmetric(rng, n, int(rng.integers(1, n)))
        p = pseudoinverse(a)
        tol = 1e-8 * (1.0 + np.linalg.norm(a, 2))
        assert np.max(np.abs(a @ p @ a - a)) <= tol
        assert np.max(np.abs(p @ a @ p - p)) <= tol
        assert np.max(np.abs((a @ p).T - a @ p)) <= tol
        assert np.max(np.abs((p @ a).T - p @ a)) <= tol


@criterion("6 identity-accelerated Adam reduces to plain Adam")
def test_c6_enhanced_adam_reduction():
    f = rosenbrock(2)
    x0 = [-1.2, 1.0]
    plain = run(f, OptimizerConfig(method=Method.ADAM, stepsize=0.1,
                                   max_iterations=100), x0)
    forced = run(f, OptimizerConfig(method=Method.ENHANCED_ADAM, stepsize=0.1,
                                    qg_variant=None, max_iterations=100), x0)
    assert len(plain.records) == len(forced.records) == 101
    for a, b in zip(plain.records, forced.records):
        assert np.max(np.abs(a.iterate - b.iterate)) <= 1e-12
        assert abs(a.objective - b.objective) <= 1e-12


@criterion("7 ratio diagonal reproduces the exact Newton step")
def test_c7_ratio_solve_consistency():
    rng = np.random.default_rng(104)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        h = random_invertible_symmetric(rng, n)
        g = random_nonzero_vector(rng, n)
        r = newton_ratios(h, g)
        assert np.max(np.abs(r.ratios * g - solve(h, g))) <= 1e-8


@criterion("8 adam-qg panels complete; a quadratic-gradient variant improves")
def test_c8_figure_shape_reproduction():
    start = time.perf_counter()
    for n in (2, 5, 10, 20):
        table = experiment_adam_qg(n, iterations=30)
        assert len(table.rows) == 31
        initial = table.rows[0][1]
        final_old, final_new = table.rows[-1][2], table.rows[-1][3]
        assert final_old < initial or final_new < initial
    for n in (2, 5, 10, 20):
        table = experiment_adam_qg(n, iterations=300)
        assert len(table.rows) == 301
        assert all(len(row) == 4 for row in table.rows)
        # divergence, if any, shows up as trailing nan padding, never a crash
        for column in (1, 2, 3):
            values = [row[column] for row in table.rows]
            finite_after_nan = False
            seen_nan = False
            for v in values:
                if math.isnan(v):
                    seen_nan = True
                elif seen_nan:
                    finite_after_nan = True
            assert not finite_after_nan
    assert time.perf_counter() - start < 10.0


@criterion("9 CSV headers byte-match the published labels and round-trip")
def test_c9_csv_compatibility():
    adam_table = experiment_adam_qg(2, iterations=5)
    lemma_table = experiment_lemma_lr("booth", x0=[0.0, 0.0], iterations=5)
    assert adam_table.emit().splitlines()[0] == "Iterations,Adam,AdamOldQG,AdamNewQG"
    assert lemma_table.emit().splitlines()[0] == (
        "Iterations,fSFHasLRrawgradientmethod,naiveNAGwithfSFHasLR,"
        "enhancedNAGwithQGandfSFHasLR"
    )
    for table in (adam_table, lemma_table):
        assert CsvTable.parse(table.emit()) == table
